//! `scaling` microbench: wall-clock speedup of morsel-driven parallel
//! execution at 1/2/4 worker threads on the join/aggregation-heavy TPC-H
//! queries (Q3, Q9, Q18) and a scan-heavy predicated filter+aggregate.
//!
//! Each query compiles/prepares once; only prepared execution is timed
//! (the serving hot path the parallel executor accelerates). Besides the
//! usual `PYTOND_BENCH_JSON` records, the bench prints a `1t → Nt` speedup
//! table (min-of-5 rounds per point, robust to scheduler noise) and — when
//! `PYTOND_SCALING_ASSERT=1` **and** the machine has ≥ 4 hardware threads —
//! asserts that 4-thread Q18 beats 1-thread by ≥ 1.5×. On smaller runners
//! the assertion self-skips (oversubscribed "workers" cannot beat serial
//! execution), so the check is meaningful exactly where it can be.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pytond::{Backend, OptLevel};
use pytond_common::{pool, Column, Relation};
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::time::{Duration, Instant};

/// TPC-H scale factor: big enough that lineitem spans many morsels
/// (sf 0.05 ≈ 300 K lineitem rows ≈ 19 production morsels).
const SF: f64 = 0.05;

/// Rows of the synthetic scan-heavy table (filter + scalar aggregate, no
/// join): isolates the parallel predicated-scan path.
const SCAN_ROWS: i64 = 2_000_000;

/// Thread counts of the scaling ladder.
const THREADS: [usize; 3] = [1, 2, 4];

/// The queries of the 1→4-thread ladder.
const TPCH_IDS: [usize; 3] = [3, 9, 18];

fn smoke() -> bool {
    std::env::var("PYTOND_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn scan_db() -> Database {
    let db = Database::new();
    db.register(
        "events",
        Relation::new(vec![
            ("id".into(), Column::from_i64((0..SCAN_ROWS).collect())),
            (
                "grp".into(),
                Column::from_i64((0..SCAN_ROWS).map(|i| i % 512).collect()),
            ),
            (
                "v".into(),
                Column::from_f64((0..SCAN_ROWS).map(|i| (i % 9973) as f64 * 0.25).collect()),
            ),
        ])
        .unwrap(),
    );
    db
}

/// Scan-heavy shape: a ~50%-selective predicate the zone maps cannot prune
/// (grp is unclustered), so every morsel's rows are evaluated, then a
/// scalar aggregate over the survivors.
const SCAN_SQL: &str = "SELECT SUM(v) AS s, COUNT(*) AS n FROM events WHERE grp < 256 AND v > 1.0";

/// Rounds for the speedup table / CI assertion: always min-of-5 after a
/// warm-up, even in smoke mode — a single noisy-neighbor stall on a shared
/// runner must not flip the ≥ 1.5× gate.
const ASSERT_ROUNDS: usize = 5;

/// Minimum wall-clock nanoseconds of `f` over [`ASSERT_ROUNDS`] rounds,
/// measured outside criterion (criterion's own numbers feed the JSON
/// record; the min is robust against one-off scheduler hiccups).
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..ASSERT_ROUNDS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn scaling(c: &mut Criterion) {
    let data = pytond_tpch::generate(SF);
    let py = pytond_bench::tpch_instance(&data);
    let scan = scan_db();
    let rounds = if smoke() { 2 } else { 5 };

    let mut group = c.benchmark_group("scaling");
    group.sample_size(rounds);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    // (label, 1t ns, best parallel ns) for the printed speedup table.
    let mut speedups: Vec<(String, f64, f64)> = Vec::new();

    for id in TPCH_IDS {
        let q = pytond_tpch::query(id);
        let compiled = py
            .compile_at(q.source, pytond::Dialect::DuckDb, OptLevel::O4)
            .expect(q.name);
        let mut by_threads = Vec::new();
        for threads in THREADS {
            let backend = Backend::duckdb_sim(threads);
            group.bench_function(
                BenchmarkId::new(q.name.to_lowercase(), format!("{threads}t")),
                |b| b.iter(|| py.execute(&compiled, &backend).unwrap()),
            );
            by_threads.push(time_ns(|| {
                py.execute(&compiled, &backend).unwrap();
            }));
        }
        speedups.push((
            q.name.to_string(),
            by_threads[0],
            by_threads[THREADS.len() - 1],
        ));
    }

    // Prepare once; only prepared execution is timed, like the TPC-H
    // entries above.
    let scan_prepared = scan
        .prepare(SCAN_SQL, Profile::Vectorized)
        .expect("scan_heavy prepares");
    for threads in THREADS {
        let cfg = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        group.bench_function(BenchmarkId::new("scan_heavy", format!("{threads}t")), |b| {
            b.iter(|| scan.execute_prepared(&scan_prepared, &cfg).unwrap())
        });
        if threads == 1 || threads == THREADS[THREADS.len() - 1] {
            let ns = time_ns(|| {
                scan.execute_prepared(&scan_prepared, &cfg).unwrap();
            });
            match threads {
                1 => speedups.push(("scan_heavy".into(), ns, f64::NAN)),
                _ => {
                    if let Some(last) = speedups.last_mut() {
                        last.2 = ns;
                    }
                }
            }
        }
    }
    group.finish();

    let max_t = THREADS[THREADS.len() - 1];
    println!(
        "\nscaling: 1t → {max_t}t speedups ({} hardware threads)",
        pool::hardware_threads()
    );
    for (name, serial, parallel) in &speedups {
        println!(
            "  {name:<12} {:>8.2} ms → {:>8.2} ms   {:.2}x",
            serial / 1e6,
            parallel / 1e6,
            serial / parallel
        );
    }

    // CI gate: on a real multicore runner, 4-thread Q18 must beat serial by
    // ≥ 1.5×. Self-skips on < 4-hardware-thread machines, where "4
    // workers" are timeslices of the same cores and no speedup is
    // physically possible. hardware_threads() counts SMT siblings, so a
    // 2-core/4-vCPU CI runner is NOT skipped — to keep that honest without
    // flaking, a failing first measurement is re-taken once from scratch
    // (min-of-5 again, fresh cache state) before the gate fires.
    let assert_requested = std::env::var("PYTOND_SCALING_ASSERT").is_ok_and(|v| v == "1");
    if assert_requested {
        if pool::hardware_threads() >= 4 {
            let q18 = pytond_tpch::query(18);
            let compiled = py
                .compile_at(q18.source, pytond::Dialect::DuckDb, OptLevel::O4)
                .expect("Q18");
            let measure = |threads: usize| {
                let backend = Backend::duckdb_sim(threads);
                time_ns(|| {
                    py.execute(&compiled, &backend).unwrap();
                })
            };
            let (_, serial0, parallel0) = speedups
                .iter()
                .find(|(n, _, _)| n == "Q18")
                .expect("Q18 measured");
            let mut speedup = serial0 / parallel0;
            if speedup < 1.5 {
                // One clean retry before failing the build.
                speedup = measure(1) / measure(max_t);
            }
            assert!(
                speedup >= 1.5,
                "Q18: {max_t}-thread speedup {speedup:.2}x < 1.5x required \
                 (after one re-measure)"
            );
            println!("scaling assertion passed: Q18 {speedup:.2}x ≥ 1.5x");
        } else {
            println!(
                "scaling assertion skipped: {} hardware thread(s) < 4",
                pool::hardware_threads()
            );
        }
    }
}

criterion_group!(benches, scaling);
criterion_main!(benches);
