//! Deterministic fault-injection sweeps (ISSUE 7 / `docs/RESILIENCE.md`).
//!
//! The harness (`pytond_common::fault`, compiled in for test builds via the
//! `fault` feature) fires deterministic failures at three sites: pool job
//! dispatch (an injected worker panic), append publication, and the
//! executor morsel body. This suite proves the resilience invariant across
//! several seeds:
//!
//! - every injected failure surfaces as a **transient** error OR the query
//!   completes with a **bit-identical** result — never a wrong answer,
//!   never a crash;
//! - the worker pool stays serviceable afterwards;
//! - a failed append publishes nothing (version and content unchanged);
//! - subsequent queries are unaffected once the harness is cleared.
//!
//! The harness state is process-global, so this file is its own test
//! binary and every test serializes on [`FAULT_LOCK`]. CI re-runs this
//! binary with `PYTOND_FAULT=<seed>:<rate>` for several seeds; when that
//! variable is set it *replaces* the built-in seed sweep below.

use pytond_common::{fault, Column, Relation, Value};
use pytond_sqldb::table::{Batch, StoredTable};
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::sync::{Arc, Mutex};

/// Serializes tests in this binary: the fault harness is process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

const BASE_ROWS: i64 = 64 * 1024;
const BATCH_ROWS: i64 = 1024;

const AGG_SQL: &str = "SELECT COUNT(*) AS n, SUM(id) AS ids, SUM(a + b) AS torn FROM t";

fn rel(start: i64, rows: i64) -> Relation {
    Relation::new(vec![
        (
            "id".into(),
            Column::from_i64((start..start + rows).collect()),
        ),
        (
            "a".into(),
            Column::from_i64((start..start + rows).map(|i| i % 97).collect()),
        ),
        (
            "b".into(),
            Column::from_i64((start..start + rows).map(|i| -(i % 97)).collect()),
        ),
    ])
    .unwrap()
}

fn agg_of(out: &Relation) -> (i64, i64, i64) {
    let get = |name: &str| match out.column(name).unwrap().get(0) {
        Value::Int(i) => i,
        other => panic!("expected Int in {name}, got {other:?}"),
    };
    (get("n"), get("ids"), get("torn"))
}

/// The `(seed, rate)` pairs to sweep: `PYTOND_FAULT=<seed>:<rate>` when CI
/// sets it, else three built-in seeds at increasing rates.
fn sweep() -> Vec<(u64, f64)> {
    if let Ok(raw) = std::env::var("PYTOND_FAULT") {
        if let Some((seed, rate)) = raw.split_once(':') {
            if let (Ok(seed), Ok(rate)) = (seed.trim().parse(), rate.trim().parse()) {
                return vec![(seed, rate)];
            }
        }
    }
    vec![(1, 0.02), (7, 0.1), (42, 0.3)]
}

/// Queries under injected faults, serial and parallel: every run either
/// reproduces the reference bit for bit or returns a transient error, and
/// the pool answers the next query as if nothing happened.
#[test]
fn injected_faults_yield_transient_errors_or_identical_results() {
    let _guard = FAULT_LOCK.lock().unwrap();
    // Fails to compile if the root dev-dependency drops the fault feature:
    // the whole suite would silently test nothing.
    const { assert!(fault::COMPILED) };
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    let cfgs = [
        EngineConfig {
            threads: 1,
            morsel: 4096,
            ..EngineConfig::default()
        },
        EngineConfig {
            threads: 4,
            morsel: 4096,
            ..EngineConfig::default()
        },
    ];
    let reference = db.execute_prepared(&prepared, &cfgs[0]).unwrap();

    for (seed, rate) in sweep() {
        fault::set(seed, rate);
        let mut failures = 0u32;
        for round in 0..30 {
            let cfg = &cfgs[round % cfgs.len()];
            match db.execute_prepared(&prepared, cfg) {
                Ok(out) => {
                    assert_eq!(
                        out, reference,
                        "seed {seed}: a faulted run produced a different result"
                    );
                }
                Err(e) => {
                    failures += 1;
                    assert!(
                        e.is_transient(),
                        "seed {seed}: injected fault surfaced as a permanent error: {e}"
                    );
                }
            }
        }
        // The sweep rates are high enough that at least one fault fired per
        // seed; determinism means re-running reproduces exactly this split.
        assert!(
            failures > 0,
            "seed {seed}: no injected fault fired in 30 runs"
        );
        // The pool survives every injected panic: with the harness off, the
        // very next query over the same snapshot is exact.
        fault::clear();
        let after = db.execute_prepared(&prepared, &cfgs[1]).unwrap();
        assert_eq!(after, reference, "seed {seed}: pool left unserviceable");
    }
    fault::clear();
}

/// The fused pipeline driver under the same sweeps: morsel faults fire at
/// the claim inside the single-pass drive (before any stage of that morsel
/// runs), mid-pipeline rather than between materialized operators. The
/// invariant is unchanged — and strengthened: every *completed* faulted
/// run must be bit-identical to the **materializing** reference, so a
/// fault can never corrupt the fused driver's published chunks or partial
/// aggregation state.
#[test]
fn injected_faults_in_fused_pipelines_yield_transient_or_identical() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    // The pushed-down predicate makes this a scan→aggregate pipeline under
    // the fused profile.
    let sql = "SELECT COUNT(*) AS n, SUM(id) AS ids, SUM(a + b) AS torn FROM t WHERE id >= 0";
    let prepared = db.prepare(sql, Profile::Fused).unwrap();
    let fused_cfgs = [
        EngineConfig {
            profile: Profile::Fused,
            threads: 1,
            morsel: 4096,
            ..EngineConfig::default()
        },
        EngineConfig {
            profile: Profile::Fused,
            threads: 4,
            morsel: 4096,
            ..EngineConfig::default()
        },
    ];
    let reference = db
        .execute_prepared(
            &prepared,
            &EngineConfig {
                profile: Profile::Vectorized,
                threads: 1,
                morsel: 4096,
                ..EngineConfig::default()
            },
        )
        .unwrap();

    for (seed, rate) in sweep() {
        fault::set(seed, rate);
        let mut failures = 0u32;
        for round in 0..30 {
            let cfg = &fused_cfgs[round % fused_cfgs.len()];
            match db.execute_prepared(&prepared, cfg) {
                Ok(out) => {
                    assert_eq!(
                        out, reference,
                        "seed {seed}: a faulted fused run diverged from the \
                         materializing reference"
                    );
                }
                Err(e) => {
                    failures += 1;
                    assert!(
                        e.is_transient(),
                        "seed {seed}: fused-pipeline fault surfaced as a permanent error: {e}"
                    );
                }
            }
        }
        assert!(
            failures > 0,
            "seed {seed}: no injected fault fired in 30 fused runs"
        );
        fault::clear();
        let after = db.execute_prepared(&prepared, &fused_cfgs[1]).unwrap();
        assert_eq!(after, reference, "seed {seed}: pool left unserviceable");
    }
    fault::clear();
}

/// Appends under injected publication faults: a failed append changes
/// neither the version nor the content, and the table afterwards holds
/// exactly the successful batches.
#[test]
fn faulted_appends_publish_nothing() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    let cfg = EngineConfig::default();

    for (seed, rate) in sweep() {
        // Start each seed from a known version.
        let start_version = db.stats_version();
        let start_rows = agg_of(&db.execute_prepared(&prepared, &cfg).unwrap()).0;
        fault::set(seed, rate.max(0.2));
        let mut appended = 0i64;
        for _ in 0..25 {
            let before = db.stats_version();
            match db.append("t", &rel(start_rows + appended * BATCH_ROWS, BATCH_ROWS)) {
                Ok(()) => {
                    appended += 1;
                    assert_eq!(db.stats_version(), before + 1);
                }
                Err(e) => {
                    assert!(e.is_transient(), "seed {seed}: {e}");
                    assert_eq!(
                        db.stats_version(),
                        before,
                        "seed {seed}: failed append moved the version"
                    );
                }
            }
        }
        fault::clear();
        // Content check from first principles: exactly the successful
        // batches, id-dense, torn-read invariant intact.
        let n = start_rows + appended * BATCH_ROWS;
        let (count, ids, torn) = agg_of(&db.execute_prepared(&prepared, &cfg).unwrap());
        assert_eq!(count, n, "seed {seed}");
        assert_eq!(ids, n * (n - 1) / 2, "seed {seed}");
        assert_eq!(torn, 0, "seed {seed}");
        assert_eq!(db.stats_version(), start_version + appended as u64);
    }
}

/// `rows` rows from `start` with two string columns: `s` drawn from 37
/// strings tagged `tag` (a new tag brings strings the dictionary lacks), `t`
/// from five shared ones.
fn tagged(start: usize, rows: usize, tag: &str) -> Relation {
    let range = start..start + rows;
    let s: Vec<String> = range.clone().map(|i| format!("{tag}{}", i % 37)).collect();
    let t: Vec<String> = range.clone().map(|i| format!("t{}", i % 5)).collect();
    Relation::new(vec![
        (
            "id".into(),
            Column::from_i64(range.map(|i| i as i64).collect()),
        ),
        ("s".into(), Column::from_str_vec(s)),
        ("t".into(), Column::from_str_vec(t)),
    ])
    .unwrap()
}

/// A rejected append leaves the current version's storage exactly as it
/// was — the same chunks, and dictionaries holding the same entries — both
/// when validation refuses it (a schema mismatch) and when publication
/// fails after the next version, dictionary growth included, was built (an
/// injected `append-publish` fault). The next successful append, bringing
/// other new strings, is bit-identical to a bulk load of the same rows.
#[test]
fn rejected_appends_leave_dictionaries_untouched() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", tagged(0, 5_000, "a"));
    db.append("t", &tagged(5_000, 4_000, "b")).unwrap();
    let before = db.table("t").unwrap();
    assert!(before.chunks.len() > 1, "a multi-chunk table");
    let entries = |table: &StoredTable| -> Vec<Vec<String>> {
        let newest = &table.chunks.last().unwrap().batch;
        let dicts = [1, 2].map(|c| newest.cols[c].dict_parts().expect("encoded").1.clone());
        dicts
            .iter()
            .map(|d| d.strs().map(str::to_string).collect())
            .collect()
    };
    let known = entries(&before);
    let version = db.stats_version();
    let mismatch = Relation::new(vec![
        ("id".into(), Column::from_i64(vec![9_000])),
        ("s".into(), Column::from_strs(&["c0"])),
        ("t".into(), Column::from_i64(vec![1])),
    ])
    .unwrap();
    assert!(db.append("t", &mismatch).is_err());
    fault::set(11, 1.0);
    let err = db.append("t", &tagged(9_000, 3_000, "c")).unwrap_err();
    fault::clear();
    assert!(err.is_transient(), "{err}");
    assert_eq!(db.stats_version(), version, "a rejected append published");
    let after = db.table("t").unwrap();
    assert!(Arc::ptr_eq(&before, &after));
    assert_eq!(
        entries(&after),
        known,
        "a rejected append grew a dictionary"
    );
    // The next append grows the lineage from the published version as if
    // the rejected ones had never run.
    db.append("t", &tagged(9_000, 3_000, "d")).unwrap();
    let bulk = Database::new();
    let mut all = tagged(0, 5_000, "a").columns().to_vec();
    for more in [tagged(5_000, 4_000, "b"), tagged(9_000, 3_000, "d")] {
        for ((_, col), (_, add)) in all.iter_mut().zip(more.columns()) {
            col.append(add).unwrap();
        }
    }
    bulk.register("t", Relation::new(all).unwrap());
    let (got, want) = (db.table("t").unwrap(), bulk.table("t").unwrap());
    let whole = |t: &StoredTable| Batch::concat_rows(&t.chunks).unwrap().cols;
    assert_eq!(whole(&got), whole(&want));
    for sql in [
        "SELECT s, t, COUNT(*) AS n, SUM(id) AS ids FROM t GROUP BY s, t ORDER BY s, t",
        "SELECT id FROM t WHERE s = 'd3' AND t = 't1'",
        "SELECT COUNT(*) AS n FROM t WHERE s = 'c3'",
    ] {
        let cfg = EngineConfig::default();
        let (a, b) = (db.execute_sql(sql, &cfg), bulk.execute_sql(sql, &cfg));
        assert_eq!(a.unwrap(), b.unwrap(), "{sql}");
    }
}

// ---------------- materialized views under faults (ISSUE 10) -------------

/// View refresh under the fault sweeps: the `view-publish` site (plus
/// morsel and pool faults inside the refresh's own execution) can kill any
/// refresh, and every surviving observation must still hold **exactly** the
/// content of the version it is stamped with — a fault may leave the view
/// *stale* (prior consistent version) but never *wrong*. Appends themselves
/// keep succeeding, the pool stays serviceable, and after the harness
/// clears one more append heals the view back to the live version.
#[test]
fn faulted_view_refreshes_keep_a_consistent_prior_version_and_heal() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    db.register_view("standing", AGG_SQL).unwrap();
    let expected = |rows: i64| (rows, rows * (rows - 1) / 2, 0);
    // version → total rows at that version, for stamp-pinned checks.
    let mut rows_at = std::collections::BTreeMap::new();
    rows_at.insert(db.stats_version(), BASE_ROWS);

    for (seed, rate) in sweep() {
        fault::set(seed, rate.max(0.15));
        let mut stale_observed = false;
        for _ in 0..25 {
            let before_rows = *rows_at.values().last().unwrap();
            match db.append("t", &rel(before_rows, BATCH_ROWS)) {
                Ok(()) => {
                    rows_at.insert(db.stats_version(), before_rows + BATCH_ROWS);
                }
                Err(e) => {
                    assert!(e.is_transient(), "seed {seed}: {e}");
                    continue;
                }
            }
            // The read side never fails (a lock-free load of the published
            // state), and what it observes must match its stamp exactly.
            let state = db.view("standing").unwrap();
            let stamp = state.snapshot_version();
            let rows = *rows_at
                .get(&stamp)
                .unwrap_or_else(|| panic!("seed {seed}: stamp v{stamp} was never published"));
            assert_eq!(
                agg_of(state.relation()),
                expected(rows),
                "seed {seed}: view content diverged from its stamp v{stamp}"
            );
            if stamp < db.stats_version() {
                stale_observed = true;
            }
        }
        fault::clear();
        assert!(
            stale_observed || fault::fired() == 0 || rate < 0.1,
            "seed {seed}: refresh faults fired but the view never went stale"
        );
        // Healing: with the harness off, the next append refreshes the view
        // back onto the live version, bit-exact.
        let before_rows = *rows_at.values().last().unwrap();
        db.append("t", &rel(before_rows, BATCH_ROWS)).unwrap();
        rows_at.insert(db.stats_version(), before_rows + BATCH_ROWS);
        let state = db.view("standing").unwrap();
        assert_eq!(
            state.snapshot_version(),
            db.stats_version(),
            "seed {seed}: view did not heal after the harness cleared"
        );
        assert_eq!(
            agg_of(state.relation()),
            expected(before_rows + BATCH_ROWS),
            "seed {seed}"
        );
        // The pool answers ordinary queries as if nothing happened.
        let direct = db.execute_sql(AGG_SQL, &EngineConfig::default()).unwrap();
        assert_eq!(agg_of(&direct), expected(before_rows + BATCH_ROWS));
    }
    fault::clear();
}

/// An aggregate view carries its fold across appends; a refresh that dies
/// drops it. The heal is a full recompute that leaves a fresh fold behind,
/// and the append after that resumes it by delta again — bit-identical to
/// the from-scratch oracle at both steps.
#[test]
fn healed_aggregate_view_recomputes_then_resumes_delta() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    let config = EngineConfig {
        morsel: 1000,
        ..EngineConfig::default()
    };
    let sql = "SELECT a, SUM(id * 0.1) AS s, COUNT(*) AS n FROM t GROUP BY a";
    db.register_view_with("standing", sql, &config).unwrap();
    let mut rows = BASE_ROWS;
    let mut append = |db: &Database| {
        if db.append("t", &rel(rows, BATCH_ROWS)).is_ok() {
            rows += BATCH_ROWS;
        }
    };
    let same_bits = |db: &Database| {
        let (state, oracle) = (
            db.view("standing").unwrap(),
            db.view_oracle("standing").unwrap(),
        );
        assert_eq!(state.snapshot_version(), db.stats_version());
        assert!(
            oracle.diff(state.relation(), 0.0).is_none(),
            "{:?}",
            oracle.diff(state.relation(), 0.0)
        );
        state.mode()
    };
    for (seed, rate) in sweep() {
        append(&db);
        assert_eq!(
            same_bits(&db),
            pytond_sqldb::RefreshMode::Delta,
            "seed {seed}"
        );
        // Fault refreshes until one dies and the view is left stale.
        fault::set(seed, rate.max(0.2));
        for _ in 0..400 {
            append(&db);
            if db.view("standing").unwrap().snapshot_version() < db.stats_version() {
                break;
            }
        }
        fault::clear();
        let stale = db.view("standing").unwrap().snapshot_version() < db.stats_version();
        assert!(stale, "seed {seed}: no refresh fault landed in 400 appends");
        append(&db);
        let trace = db.view_trace("standing").unwrap();
        assert_eq!(
            same_bits(&db),
            pytond_sqldb::RefreshMode::Recompute,
            "{trace}"
        );
        append(&db);
        let trace = db.view_trace("standing").unwrap();
        assert_eq!(same_bits(&db), pytond_sqldb::RefreshMode::Delta, "{trace}");
        assert!(trace.contains("t: delta (agg)"), "{trace}");
    }
}

/// Appends to a table the view does not reference, racing injected refresh
/// faults: a stale view (a prior refresh died at the `view-publish` site)
/// must never be re-stamped as fresh by an unreferenced-table append — it
/// either heals (full recompute, content exact for the new stamp) or keeps
/// its prior stamp. With the harness cleared, a single unreferenced append
/// alone heals the view back to the live version.
#[test]
fn unreferenced_appends_heal_or_keep_stale_views() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    db.register("t", rel(0, BASE_ROWS));
    db.register("side", rel(0, 16));
    db.register_view("standing", AGG_SQL).unwrap();
    let expected = |rows: i64| (rows, rows * (rows - 1) / 2, 0);
    // version → rows of `t` at that version (unreferenced appends publish a
    // new version with the same `t` contents).
    let mut rows_at = std::collections::BTreeMap::new();
    rows_at.insert(db.stats_version(), BASE_ROWS);
    let mut side_rows = 16i64;

    for (seed, rate) in sweep() {
        fault::set(seed, rate.max(0.15));
        for round in 0..30 {
            let before_rows = *rows_at.values().last().unwrap();
            if round % 2 == 0 {
                // Referenced append: an injected refresh fault leaves the
                // view stale for the unreferenced append that follows.
                match db.append("t", &rel(before_rows, BATCH_ROWS)) {
                    Ok(()) => {
                        rows_at.insert(db.stats_version(), before_rows + BATCH_ROWS);
                    }
                    Err(e) => assert!(e.is_transient(), "seed {seed}: {e}"),
                }
            } else {
                match db.append("side", &rel(side_rows, BATCH_ROWS)) {
                    Ok(()) => {
                        side_rows += BATCH_ROWS;
                        rows_at.insert(db.stats_version(), before_rows);
                    }
                    Err(e) => assert!(e.is_transient(), "seed {seed}: {e}"),
                }
            }
            let state = db.view("standing").unwrap();
            let stamp = state.snapshot_version();
            let rows = *rows_at
                .get(&stamp)
                .unwrap_or_else(|| panic!("seed {seed}: stamp v{stamp} was never published"));
            assert_eq!(
                agg_of(state.relation()),
                expected(rows),
                "seed {seed}: view content diverged from its stamp v{stamp} \
                 (an unreferenced append must not re-stamp stale content)"
            );
        }
        fault::clear();
        // Healing via an unreferenced append alone: whether or not the view
        // ended the sweep stale, one fault-free append to `side` must leave
        // it exact at the live version.
        let live_rows = *rows_at.values().last().unwrap();
        db.append("side", &rel(side_rows, BATCH_ROWS)).unwrap();
        side_rows += BATCH_ROWS;
        rows_at.insert(db.stats_version(), live_rows);
        let state = db.view("standing").unwrap();
        assert_eq!(
            state.snapshot_version(),
            db.stats_version(),
            "seed {seed}: unreferenced append did not heal the stale view"
        );
        assert_eq!(agg_of(state.relation()), expected(live_rows), "seed {seed}");
    }
    fault::clear();
}

/// Deadline cancellation mid-refresh: a view whose refresh blows its
/// per-view deadline keeps its prior consistent version (stamp visibly
/// behind the live snapshot), the append that triggered it still succeeds,
/// the failure is reported in the view trace, and the engine stays
/// serviceable for ordinary queries and for other views.
#[test]
fn cancelled_view_refresh_leaves_prior_version() {
    let _guard = FAULT_LOCK.lock().unwrap();
    fault::clear();
    let db = Database::new();
    // Start tiny so the initial materialization beats the deadline easily;
    // the append then grows the cross join past any 50ms budget.
    db.register(
        "t",
        Relation::new(vec![("k".into(), Column::from_i64((0..10).collect()))]).unwrap(),
    );
    let tight = EngineConfig {
        timeout_ms: Some(50),
        morsel: 256,
        ..EngineConfig::default()
    };
    db.register_view_with(
        "explosive",
        "SELECT SUM(a.k + b.k) AS s FROM t AS a, t AS b WHERE a.k + b.k >= 0",
        &tight,
    )
    .unwrap();
    db.register_view("cheap", "SELECT COUNT(*) AS n FROM t")
        .unwrap();
    let before = db.view("explosive").unwrap();
    assert_eq!(before.snapshot_version(), db.stats_version());

    // 3k × 3k ≈ 9M-row cross join: far past the 50ms deadline.
    db.append(
        "t",
        &Relation::new(vec![("k".into(), Column::from_i64((10..3_000).collect()))]).unwrap(),
    )
    .unwrap();
    let after = db.view("explosive").unwrap();
    assert_eq!(
        after.snapshot_version(),
        before.snapshot_version(),
        "cancelled refresh must keep the prior consistent version"
    );
    assert!(
        after.snapshot_version() < db.stats_version(),
        "staleness must be visible via the stamp"
    );
    assert_eq!(agg_of_one(after.relation()), agg_of_one(before.relation()));
    let trace = db.view_trace("explosive").unwrap();
    assert!(trace.contains("last-error"), "{trace}");
    // The sibling view refreshed normally under the same append...
    let cheap = db.view("cheap").unwrap();
    assert_eq!(cheap.snapshot_version(), db.stats_version());
    assert_eq!(agg_of_one(cheap.relation()), 3_000);
    // ...and the engine is fully serviceable.
    let n = db
        .execute_sql("SELECT COUNT(*) AS n FROM t", &EngineConfig::default())
        .unwrap();
    assert_eq!(agg_of_one(&n), 3_000);
}

fn agg_of_one(rel: &Relation) -> i64 {
    match rel.column_at(0).get(0) {
        Value::Int(i) => i,
        other => panic!("expected Int, got {other:?}"),
    }
}
