//! Property tests for morsel-driven parallel execution: every query must be
//! **bit-identical** across thread counts — not approximately equal, equal
//! to the last float bit — because the accumulation tree is a function of
//! the fixed morsel grid, never of the worker count (the "fixed merge
//! order" policy of `docs/EXECUTION.md`).
//!
//! Coverage: all 22 TPC-H queries, every hybrid workload, the
//! stats-property corpus (dtypes × clustering × NULL patterns ×
//! predicates), the operators that stay on the driver thread (sort,
//! computed group keys), `DISTINCT` on the aggregate path, NULL-heavy joins
//! and empty-table joins. Thread counts
//! include 1 (the serial path), 2, 7 (odd counts catch partition-skew and
//! uneven-grid bugs) and the machine's hardware parallelism.

use pytond::{Backend, EngineConfig, OptLevel, Profile, Pytond};
use pytond_common::{CancelToken, Error};
use pytond_sqldb::Database;
use std::time::Duration;

mod common;
use common::{assert_bit_identical, corpus_db, null_heavy_db, null_heavy_db_scaled, thread_counts};

/// Small morsels so even the test-sized inputs span many-morsel grids
/// (16 Ki-row production morsels would leave them single-morsel).
const TEST_MORSEL: usize = 1024;

fn config(profile: Profile, threads: usize) -> EngineConfig {
    EngineConfig {
        profile,
        threads,
        morsel: TEST_MORSEL,
        zone_prune: true,
        ..EngineConfig::default()
    }
}

/// Runs one compiled source at every thread count and asserts bit-identity
/// against the serial run.
fn check_source(name: &str, py: &Pytond, source: &str, profile: Profile) {
    let backend = Backend {
        profile,
        threads: 1,
        timeout_ms: None,
        mem_budget_mb: None,
    };
    let prepared = py
        .prepare(source, &backend, OptLevel::O4)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let reference = py
        .database()
        .execute_prepared(&prepared, &config(profile, 1))
        .unwrap_or_else(|e| panic!("{name}: serial run failed: {e}"));
    for threads in thread_counts() {
        let r = py
            .database()
            .execute_prepared(&prepared, &config(profile, threads))
            .unwrap_or_else(|e| panic!("{name}@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}@{threads}t"), &reference, &r);
    }
}

#[test]
fn tpch_bit_identical_across_thread_counts() {
    let data = pytond_tpch::generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    for q in pytond_tpch::all_queries() {
        check_source(q.name, &py, q.source, Profile::Vectorized);
    }
    // The fused profile drives the late-materialization parallel paths.
    for id in [1, 3, 6, 9, 18] {
        let q = pytond_tpch::query(id);
        check_source(&format!("{}/fused", q.name), &py, q.source, Profile::Fused);
    }
}

#[test]
fn hybrid_workloads_bit_identical_across_thread_counts() {
    for w in pytond_workloads::all_workloads(1) {
        let py = Pytond::new();
        for (name, rel, unique) in &w.tables {
            let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
            py.register_table(name, rel.clone(), &keys);
        }
        check_source(w.name, &py, w.source, Profile::Vectorized);
    }
}

// ---------------- the stats-property corpus, re-run for parallelism ------

fn check_sql(name: &str, db: &Database, sql: &str) {
    let reference = db
        .execute_sql(sql, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: serial run failed: {e}"));
    for threads in thread_counts() {
        let r = db
            .execute_sql(sql, &config(Profile::Vectorized, threads))
            .unwrap_or_else(|e| panic!("{name}@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}@{threads}t"), &reference, &r);
    }
}

#[test]
fn stats_corpus_bit_identical_across_thread_counts() {
    // Float SUM/AVG over many groups is the hardest case: the accumulation
    // tree must be grid-fixed or the low mantissa bits drift per thread
    // count. DISTINCT and predicated scans ride along.
    for dtype in 0..4u8 {
        for &clustered in &[true, false] {
            for &null_every in &[0usize, 5] {
                let db = corpus_db(dtype, 12_000, 400, clustered, null_every);
                let label = format!("dtype{dtype}/clustered={clustered}/nulls={null_every}");
                check_sql(
                    &format!("{label}/groupby"),
                    &db,
                    "SELECT k, SUM(f) AS s, AVG(f) AS m, COUNT(*) AS n, \
                     COUNT(DISTINCT v) AS d FROM t GROUP BY k",
                );
                check_sql(
                    &format!("{label}/scalar"),
                    &db,
                    "SELECT SUM(f) AS s, AVG(f) AS m, MIN(f) AS lo, MAX(f) AS hi FROM t",
                );
                check_sql(
                    &format!("{label}/pruned-scan"),
                    &db,
                    "SELECT v, f FROM t WHERE v >= 1000 AND v < 3000",
                );
                check_sql(
                    &format!("{label}/distinct"),
                    &db,
                    "SELECT DISTINCT k FROM t",
                );
            }
        }
    }
}

/// The shapes whose work stays on the driver thread at every thread count —
/// a sort, a computed group key — over many-morsel inputs, so a parallel
/// fork reappearing in any of them would have to match the serial bits to
/// pass. (`DISTINCT` left this list when it became an aggregate: below, it
/// polls per morsel like one.)
#[test]
fn serial_operators_bit_identical_across_thread_counts() {
    let db = corpus_db(0, 12_000, 400, false, 5);
    let computed_key = "SELECT v % 7 AS g, SUM(f) AS s, COUNT(*) AS n FROM t GROUP BY v % 7";
    for sql in [
        // 12 morsels of shuffled keys, ties broken on row position.
        "SELECT v, k, f FROM t ORDER BY k DESC, f",
        computed_key,
    ] {
        check_sql(sql, &db, sql);
    }
    // Under an armed token the key evaluation polls once per morsel: the
    // computed key adds one poll per morsel over the bare-column key.
    let armed = config(Profile::Vectorized, 1).with_timeout(Some(60_000));
    let checks = |sql: &str| {
        let (_, trace) = db.execute_sql_traced(sql, &armed).unwrap();
        trace.metrics.cancel_checks
    };
    let bare = checks("SELECT v AS g, SUM(f) AS s, COUNT(*) AS n FROM t GROUP BY v");
    assert!(
        checks(computed_key) >= bare + 12_000 / TEST_MORSEL as u64,
        "key evaluation stopped polling per morsel"
    );
    // DISTINCT folds its morsels as any aggregate does, polling at each.
    assert!(
        checks("SELECT DISTINCT v, k FROM t") >= 12_000 / TEST_MORSEL as u64,
        "DISTINCT stopped polling per morsel"
    );
    // A deadline that has already passed trips the computed-key query.
    let prepared = db.prepare(computed_key, Profile::Vectorized).unwrap();
    let expired = CancelToken::new();
    expired.set_deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(1));
    let err = db
        .snapshot()
        .execute_prepared_with(&prepared, &config(Profile::Vectorized, 2), expired)
        .unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
}

/// `SELECT DISTINCT` is a key-only aggregate: over a 12-morsel input under
/// an armed token it polls at least once per morsel, charges its groups
/// against the budget, folds its partials on the workers, fuses into a
/// pipeline's aggregate sink — and answers bit-identically at every thread
/// count under both profiles, rows in first-occurrence order.
#[test]
fn distinct_is_an_aggregate_on_shared_code() {
    let n = 12_000usize;
    let morsels = (n / TEST_MORSEL) as u64;
    let db = corpus_db(0, n, 400, false, 5);
    let all_distinct = "SELECT DISTINCT v, k FROM t";
    let filtered = "SELECT DISTINCT k FROM t WHERE v % 3 = 0";
    for sql in [all_distinct, filtered] {
        check_sql(sql, &db, sql);
        let want = db
            .execute_sql(sql, &config(Profile::Vectorized, 1))
            .unwrap();
        let fused = db.execute_sql(sql, &config(Profile::Fused, 7)).unwrap();
        assert_bit_identical(&format!("fused/{sql}"), &want, &fused);
    }
    for profile in [Profile::Vectorized, Profile::Fused] {
        let armed = config(profile, 1).with_timeout(Some(60_000));
        let (rel, trace) = db.execute_sql_traced(all_distinct, &armed).unwrap();
        assert_eq!(rel.num_rows(), n);
        let m = &trace.metrics;
        assert!(m.cancel_checks >= morsels, "{profile:?}: {m:?}");
        assert!(m.mem_peak_bytes > 0, "{profile:?}: {m:?}");
        assert_eq!(m.agg_groups, n as u64, "{profile:?}");
        let first: Vec<i64> = rel.column("v").unwrap().as_int().to_vec();
        assert_eq!(first, (0..n as i64).collect::<Vec<_>>(), "{profile:?}");
        let (_, par) = db
            .execute_sql_traced(all_distinct, &config(profile, 7))
            .unwrap();
        assert!(
            par.metrics.morsels_claimed_per_worker.len() > 1,
            "{profile:?}: {:?}",
            par.metrics
        );
    }
    // Fused, the filter streams into the DISTINCT's aggregate sink.
    let (_, trace) = db
        .execute_sql_traced(filtered, &config(Profile::Fused, 1))
        .unwrap();
    assert!(trace.plan.contains("→ aggregate ["), "{}", trace.plan);
    assert!(
        trace.metrics.pipeline_ops.iter().any(|&ops| ops >= 2),
        "{:?}",
        trace.metrics
    );
}

// ---------------- NULL-heavy and empty-table joins ----------------

#[test]
fn null_heavy_and_empty_joins_bit_identical() {
    // Dense keys build direct-addressed indexes, spread ones hashed.
    for db in [null_heavy_db(30_000), null_heavy_db_scaled(30_000, 7919)] {
        null_heavy_joins_bit_identical(&db);
    }
}

fn null_heavy_joins_bit_identical(db: &Database) {
    for sql in [
        // Inner join + aggregate over the matches.
        "SELECT l.k, COUNT(*) AS n, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k",
        // Outer joins keep unmatched rows with NULL fill.
        "SELECT l.a, r.b FROM l LEFT JOIN r ON l.k = r.k",
        "SELECT l.a, r.b FROM l FULL OUTER JOIN r ON l.k = r.k",
        // Semi/anti via IN / NOT IN subqueries.
        "SELECT a FROM l WHERE k IN (SELECT k FROM r)",
        "SELECT a FROM l WHERE k NOT IN (SELECT k FROM r WHERE k IS NOT NULL)",
        // Empty build and probe sides.
        "SELECT l.a FROM l, empty WHERE l.k = empty.k",
        "SELECT empty.k FROM empty LEFT JOIN r ON empty.k = r.k",
    ] {
        check_sql(sql, db, sql);
    }
}

// ---------------- parallel runs actually parallelize ----------------

#[test]
fn traces_report_parallelism_and_partitions() {
    // Keys spanning ≥ 4× the rows: the join index hashes.
    let db = null_heavy_db_scaled(40_000, 7919);
    let join_agg = "SELECT l.k, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k";
    // Serial trace: one worker, no concurrent partitions.
    let (_, serial) = db
        .execute_sql_traced(join_agg, &config(Profile::Vectorized, 1))
        .unwrap();
    assert_eq!(serial.metrics.threads, 1);
    assert!(
        serial.metrics.morsels_claimed_per_worker.is_empty(),
        "serial runs never touch the dispenser: {:?}",
        serial.metrics
    );
    assert_eq!(serial.metrics.partitions_built, 0);
    assert_eq!(serial.metrics.direct_builds, 0);
    assert!(serial.plan.contains("parallelism: 1 worker thread(s)"));
    // Parallel trace: multiple workers claimed morsels, the join build
    // partitioned, and the plan header names the degree of parallelism.
    let (_, par) = db
        .execute_sql_traced(join_agg, &config(Profile::Vectorized, 7))
        .unwrap();
    assert_eq!(par.metrics.threads, 7);
    assert!(
        par.metrics.morsels_claimed_per_worker.len() > 1,
        "expected multi-worker claims: {:?}",
        par.metrics
    );
    assert!(
        par.metrics.morsels_claimed_per_worker.iter().sum::<u64>() > 0,
        "{:?}",
        par.metrics
    );
    assert!(
        par.metrics.partitions_built > 0,
        "the 40k-row build side should partition: {:?}",
        par.metrics
    );
    assert_eq!(par.metrics.direct_builds, 0);
    assert!(par.plan.contains("parallelism: 7 worker thread(s)"));
    assert!(par.summary().contains("morsels claimed per worker"));
    // Dense keys (`i % 500`, `i % 700`): the same join builds one
    // direct-addressed index, serially, at any worker count.
    let dense = null_heavy_db(40_000);
    for threads in [1, 7] {
        let (_, t) = dense
            .execute_sql_traced(join_agg, &config(Profile::Vectorized, threads))
            .unwrap();
        assert_eq!(t.metrics.direct_builds, 1, "{threads}: {:?}", t.metrics);
        assert_eq!(t.metrics.partitions_built, 0, "{threads}: {:?}", t.metrics);
        assert!(t.summary().contains("direct builds: 1"), "{}", t.summary());
    }
}
