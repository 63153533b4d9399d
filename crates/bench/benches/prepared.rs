//! Compile-once/execute-many microbench: `prepared_vs_reparse`.
//!
//! Measures the cost the prepared-statement split removes from the hot
//! path. `reparse_per_call` runs the legacy wire format — SQL text through
//! lex → parse → bind → optimize → execute on **every** call — while
//! `prepared_execute` plans once and executes the stored plan per call. The
//! headline pair is `star_join`, the canonical serving shape (a
//! point-filtered star join over small dimension tables, where cost-based
//! join planning dominates the tiny execution): prepared must sustain
//! ≥ 5× the re-parse throughput there. The facade pair mirrors the same
//! split one layer up: `facade_compile_each` re-runs the whole
//! Python→TondIR→plan pipeline per call, `facade_cached_run` is
//! `Pytond::run` hitting the stats-versioned plan cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pytond::{Backend, OptLevel, Pytond};
use pytond_common::{Column, Relation};
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::time::Duration;

/// Fact-table rows: small on purpose — the serving story is many cheap
/// repeated queries, where per-call planning dominates.
const ROWS: i64 = 256;

/// The star schema both layers bench against: one small fact table and
/// three tiny dimensions.
fn tables() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "events",
            Relation::new(vec![
                ("id".into(), Column::from_i64((0..ROWS).collect())),
                (
                    "uid".into(),
                    Column::from_i64((0..ROWS).map(|i| i % 64).collect()),
                ),
                (
                    "v".into(),
                    Column::from_f64((0..ROWS).map(|i| (i % 97) as f64).collect()),
                ),
            ])
            .unwrap(),
        ),
        (
            "users",
            Relation::new(vec![
                ("uid".into(), Column::from_i64((0..64).collect())),
                (
                    "rid".into(),
                    Column::from_i64((0..64).map(|i| i % 16).collect()),
                ),
            ])
            .unwrap(),
        ),
        (
            "regions",
            Relation::new(vec![
                ("rid".into(), Column::from_i64((0..16).collect())),
                (
                    "w".into(),
                    Column::from_f64((0..16).map(|i| i as f64).collect()),
                ),
            ])
            .unwrap(),
        ),
    ]
}

fn bench_db() -> Database {
    let db = Database::new();
    for (name, rel) in tables() {
        db.register(name, rel);
    }
    db
}

fn bench_pytond() -> Pytond {
    let py = Pytond::new();
    for (name, rel) in tables() {
        py.register_table(name, rel, &[]);
    }
    py
}

/// Engine-level split: re-parse per call vs execute a prepared plan.
fn prepared_vs_reparse(c: &mut Criterion) {
    let db = bench_db();
    let config = EngineConfig::default();
    let mut group = c.benchmark_group("prepared_vs_reparse");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(100));
    group.measurement_time(Duration::from_millis(500));
    // The headline serving query: point-filtered star join. Planning (parse,
    // bind, cost-based join-order search) dwarfs the tiny execution, so the
    // prepared path must run ≥ 5× faster.
    let star = "SELECT events.v, regions.w FROM events, users, regions \
                WHERE events.uid = users.uid AND users.rid = regions.rid AND events.id = 77";
    group.bench_function(BenchmarkId::new("reparse_per_call", "star_join"), |b| {
        b.iter(|| db.execute_sql(star, &config).unwrap())
    });
    let prepared_star = db.prepare(star, Profile::Vectorized).unwrap();
    group.bench_function(BenchmarkId::new("prepared_execute", "star_join"), |b| {
        b.iter(|| db.execute_prepared(&prepared_star, &config).unwrap())
    });
    // Point lookup: the minimal-execution extreme.
    let point = "SELECT v FROM events WHERE id = 128";
    group.bench_function(BenchmarkId::new("reparse_per_call", "point"), |b| {
        b.iter(|| db.execute_sql(point, &config).unwrap())
    });
    let prepared_point = db.prepare(point, Profile::Vectorized).unwrap();
    group.bench_function(BenchmarkId::new("prepared_execute", "point"), |b| {
        b.iter(|| db.execute_prepared(&prepared_point, &config).unwrap())
    });
    group.finish();
}

/// Facade-level split: full recompilation per call vs the plan cache.
fn facade_cache(c: &mut Criterion) {
    let py = bench_pytond();
    let src = "@pytond\ndef q(events, users, regions):\n    \
               j = events.merge(users, on=['uid']).merge(regions, on=['rid'])\n    \
               hot = j[j.id < 32]\n    \
               return hot.groupby(['rid']).agg(total=('v', 'sum'))\n";
    let backend = Backend::duckdb_sim(1);
    let mut group = c.benchmark_group("prepared_vs_reparse");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(100));
    group.measurement_time(Duration::from_millis(500));
    group.bench_function(BenchmarkId::new("facade_compile_each", "star_agg"), |b| {
        b.iter(|| {
            let compiled = py.compile_at(src, backend.dialect(), OptLevel::O4).unwrap();
            py.execute(&compiled, &backend).unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("facade_cached_run", "star_agg"), |b| {
        b.iter(|| py.run(src, &backend).unwrap())
    });
    group.finish();
}

criterion_group!(benches, prepared_vs_reparse, facade_cache);
criterion_main!(benches);
