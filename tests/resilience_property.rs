//! Property tests for the query-lifecycle resilience layer (ISSUE 7 /
//! `docs/RESILIENCE.md`): deadlines, cooperative cancellation, memory
//! budgets and load shedding.
//!
//! The correctness bar: every lifecycle abort is a *transient* error (the
//! taxonomy of `pytond_common::Error::is_transient`), lands within one
//! morsel-claim granularity, and leaves the process fully serviceable —
//! the worker pool keeps running, snapshots and plan caches are untouched,
//! and the next query over the same data reproduces the reference result
//! bit for bit. Fault-injection sweeps live in `tests/fault_injection.rs`
//! (their process-global harness must not race other tests).

use pytond_common::pool::Admission;
use pytond_common::{CancelToken, Column, Error, Relation};
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::time::{Duration, Instant};

/// Rows of the deliberately slow table: large enough that the aggregation
/// below takes well over the 10 ms deadline on any machine, small enough
/// to build quickly.
const BIG_ROWS: i64 = 512 * 1024;

/// Distinct groups: a large hash-aggregation state (this is also what the
/// 1 MiB memory-budget test trips on).
const GROUPS: i64 = 1 << 16;

/// The seeded slow query: a full-table hash aggregation into [`GROUPS`]
/// states with three aggregates per group.
const SLOW_SQL: &str = "SELECT g, SUM(v) AS sv, SUM(w) AS sw, COUNT(*) AS n FROM big GROUP BY g";

fn big_db() -> Database {
    let db = Database::new();
    db.register(
        "big",
        Relation::new(vec![
            (
                "g".into(),
                Column::from_i64((0..BIG_ROWS).map(|i| i % GROUPS).collect()),
            ),
            (
                "v".into(),
                Column::from_i64((0..BIG_ROWS).map(|i| i % 97).collect()),
            ),
            (
                "w".into(),
                Column::from_i64((0..BIG_ROWS).map(|i| -(i % 97)).collect()),
            ),
        ])
        .unwrap(),
    );
    db
}

/// Serial, small-morsel configuration: frequent morsel claims make the
/// cancellation granularity fine even on one thread.
fn serial_cfg() -> EngineConfig {
    EngineConfig {
        threads: 1,
        morsel: 4096,
        ..EngineConfig::default()
    }
}

/// The acceptance criterion of ISSUE 7: a seeded slow query with a 10 ms
/// deadline returns `Error::Timeout` within one morsel-claim granularity —
/// orders of magnitude before the query would have finished.
#[test]
fn deadline_times_out_within_a_morsel_claim() {
    let db = big_db();
    let prepared = db.prepare(SLOW_SQL, Profile::Vectorized).unwrap();
    // Sanity: unlimited, the query succeeds and genuinely takes longer than
    // the deadline we are about to impose.
    let start = Instant::now();
    let full = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    let full_elapsed = start.elapsed();
    assert_eq!(full.num_rows() as i64, GROUPS);
    assert!(
        full_elapsed > Duration::from_millis(10),
        "slow query finished in {full_elapsed:?}; it cannot exercise a 10ms deadline"
    );
    // With a 10 ms deadline the same plan must abort with the transient
    // Timeout, promptly: one morsel claim past the deadline, bounded far
    // below the full runtime.
    let cfg = serial_cfg().with_timeout(Some(10));
    let start = Instant::now();
    let err = db.execute_prepared(&prepared, &cfg).unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(err.is_transient());
    assert!(
        elapsed < Duration::from_millis(1500),
        "timeout surfaced only after {elapsed:?}"
    );
    // The pool and snapshot are unaffected: the same plan still completes.
    let again = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    assert_eq!(again.num_rows() as i64, GROUPS);
}

/// Explicit cancellation: a pre-tripped token aborts at the first morsel
/// claim; a mid-flight cancel from another thread aborts promptly; and
/// neither poisons the pool or the snapshot.
#[test]
fn explicit_cancel_aborts_and_leaves_the_pool_serviceable() {
    let db = big_db();
    let prepared = db.prepare(SLOW_SQL, Profile::Vectorized).unwrap();
    let snap = db.snapshot();

    // Deterministic: the token is already tripped when execution starts.
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = snap
        .execute_prepared_with(&prepared, &serial_cfg(), cancel.clone())
        .unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err}");
    assert!(err.is_transient());
    assert!(cancel.checks() > 0, "execution never polled the token");

    // Mid-flight: another thread cancels a few milliseconds in. The query
    // either finished first (correct result) or aborted with Cancelled —
    // nothing else.
    let token = CancelToken::new();
    let racer = token.clone();
    std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            racer.cancel();
        });
        match snap.execute_prepared_with(&prepared, &serial_cfg(), token) {
            Ok(rel) => assert_eq!(rel.num_rows() as i64, GROUPS),
            Err(e) => assert!(matches!(e, Error::Cancelled(_)), "{e}"),
        }
    });

    // Serviceability: the very next unlimited run succeeds.
    let ok = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    assert_eq!(ok.num_rows() as i64, GROUPS);
}

/// A 1 MiB budget must abort the large hash aggregation with the transient
/// `ResourceExhausted`, and the abort must not disturb the snapshot: the
/// unbudgeted re-run reproduces the reference bit for bit.
#[test]
fn memory_budget_aborts_without_poisoning_the_snapshot() {
    let db = big_db();
    let prepared = db.prepare(SLOW_SQL, Profile::Vectorized).unwrap();
    let reference = db.execute_prepared(&prepared, &serial_cfg()).unwrap();

    let tight = serial_cfg().with_mem_budget(Some(1));
    let err = db.execute_prepared(&prepared, &tight).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.is_transient());

    let after = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    assert_eq!(reference, after, "budget abort disturbed the snapshot");

    // A generous budget admits the query and reports its accounting.
    let roomy = serial_cfg().with_mem_budget(Some(1024));
    let (out, trace) = db.execute_prepared_traced(&prepared, &roomy).unwrap();
    assert_eq!(out.num_rows() as i64, GROUPS);
    assert_eq!(trace.metrics.mem_budget_bytes, 1024 * 1024 * 1024);
    assert!(
        trace.metrics.mem_peak_bytes > 0,
        "the aggregation charged nothing against its budget"
    );
    assert!(trace.metrics.mem_peak_bytes < trace.metrics.mem_budget_bytes);
}

/// A `COUNT(DISTINCT …)` keeps every distinct `(group, value)` pair: 100 K
/// distinct values in four groups overrun a 1 MiB budget, over a
/// fixed-width argument and over a byte-encoded (float) one alike, and a
/// roomy budget reports at least the pairs' bytes.
#[test]
fn count_distinct_sets_are_charged_against_the_budget() {
    let n = 100_000i64;
    let db = Database::new();
    db.register(
        "t",
        Relation::new(vec![
            (
                "k".into(),
                Column::from_i64((0..n).map(|i| i % 4).collect()),
            ),
            ("v".into(), Column::from_i64((0..n).collect())),
            (
                "f".into(),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
        ])
        .unwrap(),
    );
    for arg in ["v", "f"] {
        let sql = format!("SELECT k, COUNT(DISTINCT {arg}) AS d FROM t GROUP BY k");
        let tight = serial_cfg().with_mem_budget(Some(1));
        let err = db.execute_sql(&sql, &tight).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{arg}: {err}");
        let roomy = serial_cfg().with_mem_budget(Some(1024));
        let (out, trace) = db.execute_sql_traced(&sql, &roomy).unwrap();
        assert_eq!(out.column("d").unwrap().as_int(), [n / 4; 4], "{arg}");
        let pairs = n as u64 * 16;
        assert!(
            trace.metrics.mem_peak_bytes >= pairs,
            "{arg}: {:?}",
            trace.metrics
        );
    }
}

/// Bounded admission: a full gate rejects with the transient `Overloaded`
/// instead of queueing forever, and a caller retrying it recovers as soon
/// as capacity frees up.
#[test]
fn overloaded_admission_sheds_and_retry_recovers() {
    let gate = Admission::with_capacity(1);
    let held = gate.admit_within(None).unwrap();

    // Zero timeout = shed immediately when full.
    let err = gate.admit_within(Some(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, Error::Overloaded(_)), "{err}");
    assert!(err.is_transient());

    // A short bounded wait still sheds while the slot stays occupied.
    let err = gate
        .admit_within(Some(Duration::from_millis(5)))
        .unwrap_err();
    assert!(matches!(err, Error::Overloaded(_)), "{err}");

    // Retry: the first attempt sheds, the slot frees, the second succeeds.
    let mut held = Some(held);
    let mut attempt = 0;
    let admitted_at = loop {
        match gate.admit_within(Some(Duration::ZERO)) {
            Ok(_ticket) => break attempt,
            Err(e) if e.is_transient() && attempt < 3 => {
                held.take();
                attempt += 1;
            }
            Err(e) => panic!("admission did not recover: {e}"),
        }
    };
    assert_eq!(admitted_at, 1);
}

/// The EXPLAIN/trace header reports the lifecycle limits in force, and the
/// metrics carry the cancellation-poll and memory-accounting counters.
#[test]
fn traces_report_limits_and_lifecycle_counters() {
    let db = Database::new();
    db.register(
        "t",
        Relation::new(vec![("x".into(), Column::from_i64((0..1024).collect()))]).unwrap(),
    );
    let prepared = db
        .prepare("SELECT COUNT(*) AS n FROM t", Profile::Vectorized)
        .unwrap();

    let cfg = EngineConfig::default()
        .with_timeout(Some(5000))
        .with_mem_budget(Some(64));
    let (_, trace) = db.execute_prepared_traced(&prepared, &cfg).unwrap();
    assert!(
        trace
            .plan
            .contains("limits: deadline 5000ms, mem budget 67108864 bytes"),
        "{}",
        trace.plan
    );
    assert!(
        trace.summary().contains("limits: deadline 5000ms"),
        "{}",
        trace.summary()
    );
    assert_eq!(trace.metrics.deadline_ms, 5000);
    assert_eq!(trace.metrics.mem_budget_bytes, 64 * 1024 * 1024);
    assert!(trace.metrics.cancel_checks > 0);

    // Unlimited runs say so explicitly. A default config defers to the
    // environment (the CI resilience job runs this suite under
    // PYTOND_QUERY_TIMEOUT_MS), so force "no limits" with the explicit
    // `Some(0)` override rather than assuming a clean environment.
    let off = EngineConfig::default()
        .with_timeout(Some(0))
        .with_mem_budget(Some(0));
    let (_, unlimited) = db.execute_prepared_traced(&prepared, &off).unwrap();
    assert!(
        unlimited
            .plan
            .contains("limits: deadline none, mem budget none"),
        "{}",
        unlimited.plan
    );
    assert_eq!(unlimited.metrics.deadline_ms, 0);
    assert_eq!(unlimited.metrics.mem_budget_bytes, 0);
}

// ---------------- fused pipelines under lifecycle limits ----------------

/// [`serial_cfg`] under the fused profile: the queries below execute as
/// single-pass pipelines (scan → … → sink) instead of materializing
/// operators.
fn fused_cfg() -> EngineConfig {
    EngineConfig {
        profile: Profile::Fused,
        ..serial_cfg()
    }
}

/// [`SLOW_SQL`] with a pushed-down scan predicate, so the fused profile
/// drives it as one scan→aggregate pipeline rather than falling back to
/// the bare-aggregate operator.
const SLOW_FUSED_SQL: &str =
    "SELECT g, SUM(v) AS sv, SUM(w) AS sw, COUNT(*) AS n FROM big WHERE v >= 0 GROUP BY g";

/// Lifecycle limits must trip *inside* a fused pipeline with the same
/// one-morsel granularity as the materializing path: the driver polls the
/// token at every claim and at every stage boundary, so a deadline, a
/// pre-tripped cancel and a tight memory budget all abort mid-pipeline
/// with their transient errors — and a clean re-run afterwards is
/// bit-identical to the materializing oracle.
#[test]
fn fused_pipeline_trips_limits_within_a_morsel() {
    let db = big_db();
    let prepared = db.prepare(SLOW_FUSED_SQL, Profile::Fused).unwrap();
    let reference = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    assert_eq!(reference.num_rows() as i64, GROUPS);

    // Deadline: aborts long before the pipeline would finish.
    let start = Instant::now();
    let err = db
        .execute_prepared(&prepared, &fused_cfg().with_timeout(Some(10)))
        .unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(err.is_transient());
    assert!(
        start.elapsed() < Duration::from_millis(1500),
        "fused timeout surfaced only after {:?}",
        start.elapsed()
    );

    // Pre-tripped cancel: the first morsel claim inside the pipeline polls
    // the token and aborts before any chunk flows.
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = db
        .snapshot()
        .execute_prepared_with(&prepared, &fused_cfg(), cancel.clone())
        .unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err}");
    assert!(cancel.checks() > 0, "fused drive never polled the token");

    // Memory budget: the aggregation state blows a 1 MiB budget whether or
    // not the input streamed through a pipeline.
    let err = db
        .execute_prepared(&prepared, &fused_cfg().with_mem_budget(Some(1)))
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.is_transient());

    // No abort disturbed anything: the clean fused run reproduces the
    // materializing reference bit for bit.
    let after = db.execute_prepared(&prepared, &fused_cfg()).unwrap();
    assert_eq!(reference, after, "fused abort disturbed the snapshot");
}

/// A materialize-sink pipeline (scan → project, no aggregation) charges its
/// per-chunk stage outputs against the budget, so a tight budget trips
/// mid-pipeline — within one morsel of crossing the line, not after the
/// full output materialized.
#[test]
fn fused_projection_pipeline_charges_chunks_against_the_budget() {
    let db = big_db();
    let sql = "SELECT v + w AS x FROM big WHERE v >= 0";
    let prepared = db.prepare(sql, Profile::Fused).unwrap();

    let err = db
        .execute_prepared(&prepared, &fused_cfg().with_mem_budget(Some(1)))
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");

    // Unbudgeted, fused output equals the materializing oracle's.
    let reference = db.execute_prepared(&prepared, &serial_cfg()).unwrap();
    let fused = db.execute_prepared(&prepared, &fused_cfg()).unwrap();
    assert_eq!(reference, fused);
    assert_eq!(reference.num_rows() as i64, BIG_ROWS);
}

/// `Some(0)` on the config explicitly disables a limit (distinct from
/// `None` = "defer to the environment default").
#[test]
fn zero_disables_the_limit_explicitly() {
    let db = big_db();
    let prepared = db.prepare(SLOW_SQL, Profile::Vectorized).unwrap();
    let cfg = serial_cfg().with_timeout(Some(0)).with_mem_budget(Some(0));
    let (out, trace) = db.execute_prepared_traced(&prepared, &cfg).unwrap();
    assert_eq!(out.num_rows() as i64, GROUPS);
    assert_eq!(trace.metrics.deadline_ms, 0);
    assert_eq!(trace.metrics.mem_budget_bytes, 0);
}
