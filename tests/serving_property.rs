//! Property tests for the concurrent serving core: snapshot isolation under
//! interleaved readers and appenders.
//!
//! The correctness bar (ISSUE 6 / `docs/SERVING.md`): every query sees
//! **exactly one** table version — its result is bit-identical to a serial
//! re-run against the same pinned snapshot, and to the content that version
//! is known to hold by construction. Coverage:
//!
//! - concurrent readers + one appender: each in-flight result matches a
//!   serial re-execution on the snapshot it pinned, bit for bit;
//! - version → content reconstruction: a pinned version `v` holds exactly
//!   the rows of the first `v` deterministic appends, never a prefix of a
//!   batch (no torn reads);
//! - a row-level invariant (`a + b = 0` on every appended row) that a torn
//!   or mixed-version read would violate, checked under load;
//! - seeded-schedule interleavings of pin/append/query/drop operations;
//! - the `Pytond` facade under races: stale prepared plans transparently
//!   re-plan, and shared `&self` appends keep the catalog in lockstep.

use pytond::{Backend, Pytond};
use pytond_common::{Column, Relation, Value};
use pytond_sqldb::{Database, EngineConfig, Profile, Snapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::assert_bit_identical;

/// Initial rows of the served table.
const BASE_ROWS: i64 = 4_096;

/// Rows per deterministic append batch.
const BATCH_ROWS: i64 = 512;

/// The served table: `id` ascending, and on every row `a + b = 0` — the
/// invariant a torn read (a partially appended batch, or `a` from one
/// version and `b` from another) would break.
fn serve_rel(start: i64, rows: i64) -> Relation {
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

fn serve_db() -> Database {
    let db = Database::new();
    db.register("t", serve_rel(0, BASE_ROWS));
    db
}

/// Rows the table holds at snapshot version `v` (version 1 = the initial
/// `register`, each later version = one `BATCH_ROWS` append).
fn rows_at_version(v: u64) -> i64 {
    assert!(v >= 1, "version 0 is the empty database");
    BASE_ROWS + (v as i64 - 1) * BATCH_ROWS
}

/// The aggregate query whose result is a pure function of the version:
/// count, id checksum, and the torn-read invariant in one pass.
const AGG_SQL: &str = "SELECT COUNT(*) AS n, SUM(id) AS ids, SUM(a + b) AS torn FROM t";

/// Expected `AGG_SQL` result at version `v`, computed from first
/// principles (not through the engine).
fn expected_agg(v: u64) -> (i64, i64, i64) {
    let n = rows_at_version(v);
    (n, n * (n - 1) / 2, 0)
}

fn agg_of(rel: &Relation) -> (i64, i64, i64) {
    let get = |name: &str| match rel.column(name).unwrap().get(0) {
        Value::Int(i) => i,
        other => panic!("expected Int in {name}, got {other:?}"),
    };
    (get("n"), get("ids"), get("torn"))
}

/// Readers race an appender, each pinning snapshots mid-stream; every
/// result must match (a) a serial re-execution against the pinned snapshot
/// — bit-identical — and (b) the content version `v` is known to hold.
#[test]
fn concurrent_reads_are_snapshot_isolated() {
    let db = serve_db();
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    let cfg = EngineConfig::default();
    let appends = 24;
    let readers = 4;
    let done = AtomicBool::new(false);

    let observed: Vec<(Arc<Snapshot>, Relation)> = std::thread::scope(|s| {
        let appender = s.spawn(|| {
            for k in 0..appends {
                db.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
                    .unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snap = db.snapshot();
                        let out = snap.execute_prepared(&prepared, &cfg).unwrap();
                        seen.push((snap, out));
                        if finished {
                            return seen;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        appender.join().unwrap();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert!(!observed.is_empty());
    let mut versions_seen = std::collections::BTreeSet::new();
    for (snap, out) in &observed {
        let v = snap.version();
        versions_seen.insert(v);
        // (a) bit-identical to a serial re-run on the same pinned version,
        // even though that version may be many publishes old by now.
        let serial = snap.execute_prepared(&prepared, &cfg).unwrap();
        assert_bit_identical(&format!("v{v}"), &serial, out);
        // (b) exactly the content version v holds: whole batches only, no
        // torn append, invariant intact.
        assert_eq!(agg_of(out), expected_agg(v), "content at v{v}");
    }
    // The final version holds every append.
    assert_eq!(db.stats_version(), 1 + appends as u64);
    assert_eq!(
        agg_of(&db.execute_prepared(&prepared, &cfg).unwrap()),
        expected_agg(1 + appends as u64)
    );
}

/// A pinned snapshot is frozen: appends published after the pin never leak
/// into it, and dropping newer versions never invalidates it.
#[test]
fn pinned_snapshots_do_not_move() {
    let db = serve_db();
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    let cfg = EngineConfig::default();
    let pinned = db.snapshot();
    let before = pinned.execute_prepared(&prepared, &cfg).unwrap();
    for k in 0..8 {
        db.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
            .unwrap();
    }
    let after = pinned.execute_prepared(&prepared, &cfg).unwrap();
    assert_bit_identical("pinned", &before, &after);
    assert_eq!(pinned.version(), 1);
    assert_eq!(agg_of(&after), expected_agg(1));
    // The live handle sees all eight appends.
    assert_eq!(
        agg_of(&db.execute_prepared(&prepared, &cfg).unwrap()),
        expected_agg(9)
    );
}

/// Seeded-schedule interleavings: a deterministic xorshift stream drives
/// pin / append / query / unpin operations; every held snapshot must keep
/// reproducing exactly the content of the version it pinned, at every step.
#[test]
fn seeded_interleavings_reconstruct_every_version() {
    for seed in [3u64, 17, 2024, 987_654_321] {
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64*: deterministic, no rand dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let db = serve_db();
        let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
        let cfg = EngineConfig::default();
        let mut held: Vec<Arc<Snapshot>> = vec![db.snapshot()];
        let mut appended = 0i64;
        for _ in 0..60 {
            match next() % 4 {
                0 => held.push(db.snapshot()),
                1 => {
                    db.append(
                        "t",
                        &serve_rel(BASE_ROWS + appended * BATCH_ROWS, BATCH_ROWS),
                    )
                    .unwrap();
                    appended += 1;
                }
                2 if !held.is_empty() => {
                    let idx = (next() as usize) % held.len();
                    let snap = &held[idx];
                    let out = snap.execute_prepared(&prepared, &cfg).unwrap();
                    assert_eq!(
                        agg_of(&out),
                        expected_agg(snap.version()),
                        "seed {seed}: v{} diverged",
                        snap.version()
                    );
                }
                _ if held.len() > 1 => {
                    let idx = (next() as usize) % held.len();
                    held.swap_remove(idx);
                }
                _ => {}
            }
        }
        // Every snapshot still held reconstructs its version exactly.
        for snap in &held {
            let out = snap.execute_prepared(&prepared, &cfg).unwrap();
            assert_eq!(agg_of(&out), expected_agg(snap.version()), "seed {seed}");
        }
        assert_eq!(db.stats_version(), 1 + appended as u64);
    }
}

/// A failed append publishes nothing: concurrent readers never observe a
/// half-applied version, and the version counter does not move.
#[test]
fn failed_appends_are_invisible() {
    let db = serve_db();
    let v = db.stats_version();
    let bad = Relation::new(vec![("id".into(), Column::from_i64(vec![0]))]).unwrap();
    assert!(db.append("t", &bad).is_err());
    assert_eq!(db.stats_version(), v);
    let out = db.execute_sql(AGG_SQL, &EngineConfig::default()).unwrap();
    assert_eq!(agg_of(&out), expected_agg(v));
}

/// The facade under races: shared `Arc<Pytond>` clients keep querying while
/// another thread appends. Stale prepared plans must transparently re-plan
/// (never error, never serve mixed versions), and afterwards the catalog
/// row count must be in lockstep with the data.
#[test]
fn facade_replans_stale_plans_under_concurrent_appends() {
    let py = Arc::new(Pytond::new());
    py.register_table("t", serve_rel(0, BASE_ROWS), &[]);
    let src = "@pytond\ndef q(t):\n    g = t.groupby(['a']).agg(n=('id', 'count'))\n    return g.sort_values(by=['a'])\n";
    let backend = Backend::duckdb_sim(1);
    // Warm the plan cache so the racing readers start from a cached entry.
    let first = py.run(src, &backend).unwrap();
    assert_eq!(first.num_rows(), 97);
    let appends = 12;
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let writer = {
            let py = py.clone();
            let done = &done;
            s.spawn(move || {
                for k in 0..appends {
                    py.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
                        .unwrap();
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let py = py.clone();
                let done = &done;
                s.spawn(move || {
                    let mut runs = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let out = py.run(src, &backend).unwrap();
                        // Group count is version-independent; total count
                        // must equal a whole number of batches.
                        assert_eq!(out.num_rows(), 97);
                        let total: i64 = (0..out.num_rows())
                            .map(|i| match out.get(i, "n") {
                                Some(Value::Int(n)) => n,
                                other => panic!("bad count cell {other:?}"),
                            })
                            .sum();
                        assert_eq!(
                            (total - BASE_ROWS) % BATCH_ROWS,
                            0,
                            "mixed-version read: {total} rows"
                        );
                        runs += 1;
                        if finished {
                            return runs;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });

    // Post-race: one more prepare is current and the catalog row count
    // tracked every append.
    let plan = py.prepare(src, &backend, pytond::OptLevel::O4).unwrap();
    assert!(plan.is_current(py.database()));
    assert_eq!(
        py.catalog().table("t").unwrap().row_count,
        Some((BASE_ROWS + appends * BATCH_ROWS) as u64)
    );
    let out = py.run(src, &backend).unwrap();
    let total: i64 = (0..out.num_rows())
        .map(|i| match out.get(i, "n") {
            Some(Value::Int(n)) => n,
            other => panic!("bad count cell {other:?}"),
        })
        .sum();
    assert_eq!(total, BASE_ROWS + appends * BATCH_ROWS);
}

/// Cancellation under live appends (ISSUE 7): cancelling an in-flight scan
/// must not delay the appender's publication cadence or poison the
/// snapshot — every post-cancel read still reconstructs its pinned version
/// exactly.
#[test]
fn cancelled_queries_do_not_delay_or_poison_appends() {
    use pytond_sqldb::CancelToken;
    let db = serve_db();
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    // Small morsels so the cancelled scans poll their tokens frequently.
    let cfg = EngineConfig {
        morsel: 1024,
        ..EngineConfig::default()
    };
    let appends = 24;
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let appender = s.spawn(|| {
            for k in 0..appends {
                db.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
                    .unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        // Readers continuously start queries and cancel them mid-flight;
        // every abort must be the transient Cancelled, never anything that
        // would block the writer.
        let cancellers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let mut cancelled = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let token = CancelToken::new();
                        let racer = token.clone();
                        let snap = db.snapshot();
                        racer.cancel();
                        match snap.execute_prepared_with(&prepared, &cfg, token) {
                            Err(e) => {
                                assert!(e.is_transient(), "{e}");
                                cancelled += 1;
                            }
                            Ok(out) => {
                                // A query that slipped through before the
                                // cancel still saw one exact version.
                                assert_eq!(agg_of(&out), expected_agg(snap.version()));
                            }
                        }
                        std::thread::yield_now();
                    }
                    cancelled
                })
            })
            .collect();
        appender.join().unwrap();
        for c in cancellers {
            assert!(c.join().unwrap() > 0, "no query was ever cancelled");
        }
    });

    // The appender published every batch; no snapshot was poisoned: the
    // final version reconstructs from first principles.
    assert_eq!(db.stats_version(), 1 + appends as u64);
    let out = db
        .execute_prepared(&prepared, &EngineConfig::default())
        .unwrap();
    assert_eq!(agg_of(&out), expected_agg(1 + appends as u64));
}

/// Traces carry the serving metadata: the snapshot version the query ran
/// against and the admission queue wait, in both the plan header and the
/// summary (the worked example in ARCHITECTURE.md quotes these).
#[test]
fn traces_report_snapshot_version_and_queue_wait() {
    let db = serve_db();
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).unwrap();
    let (_, trace) = db
        .execute_prepared_traced(&prepared, &EngineConfig::default())
        .unwrap();
    assert_eq!(trace.metrics.snapshot_version, 1);
    assert!(
        trace.plan.contains("snapshot: v1 (queue wait"),
        "{}",
        trace.plan
    );
    assert!(
        trace.summary().contains("snapshot: v1"),
        "{}",
        trace.summary()
    );
    db.append("t", &serve_rel(BASE_ROWS, BATCH_ROWS)).unwrap();
    let (_, trace) = db
        .execute_prepared_traced(&prepared, &EngineConfig::default())
        .unwrap();
    assert_eq!(
        trace.metrics.snapshot_version, 2,
        "append publishes a new version"
    );
    // An explicitly pinned old snapshot reports its own version.
    let old = db.snapshot();
    db.append("t", &serve_rel(BASE_ROWS + BATCH_ROWS, BATCH_ROWS))
        .unwrap();
    let (_, trace) = old
        .execute_prepared_traced(&prepared, &EngineConfig::default())
        .unwrap();
    assert_eq!(trace.metrics.snapshot_version, 2);
}

// ---------------- materialized views under races (ISSUE 10) --------------

/// Concurrent view readers racing a live appender (ISSUE 10): every
/// observed [`pytond_sqldb::ViewState`] must hold **exactly** the content
/// of the version it is stamped with (the first-principles aggregate is a
/// pure function of the version, so a torn or mixed-version refresh cannot
/// pass), stamps are monotone per reader, and no observation is ever stale
/// beyond the one version the writer may currently be refreshing.
#[test]
fn concurrent_view_readers_never_observe_torn_or_overstale_results() {
    let db = serve_db();
    db.register_view("standing", AGG_SQL).unwrap();
    let appends = 24;
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let appender = s.spawn(|| {
            for k in 0..appends {
                db.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
                    .unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut last_stamp = 0u64;
                    let mut observations = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let version_before = db.stats_version();
                        let state = db.view("standing").unwrap();
                        let stamp = state.snapshot_version();
                        // Never torn: the content is exactly what the
                        // stamped version holds, by construction.
                        assert_eq!(
                            agg_of(state.relation()),
                            expected_agg(stamp),
                            "view content does not match its stamp v{stamp}"
                        );
                        // Never stale beyond the stamp: at most the one
                        // version whose writer critical section may still
                        // be refreshing can be missing.
                        assert!(
                            stamp + 1 >= version_before,
                            "view stamped v{stamp} but v{version_before} was \
                             already published before the read"
                        );
                        // Published states move forward only.
                        assert!(
                            stamp >= last_stamp,
                            "view stamp went backwards: v{last_stamp} → v{stamp}"
                        );
                        last_stamp = stamp;
                        observations += 1;
                        if finished {
                            return observations;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        appender.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });

    // Quiesced: the view absorbed every append and matches both the
    // first-principles content and a from-scratch recompute bit for bit.
    let final_state = db.view("standing").unwrap();
    assert_eq!(final_state.snapshot_version(), 1 + appends as u64);
    assert_eq!(
        agg_of(final_state.relation()),
        expected_agg(1 + appends as u64)
    );
    assert_bit_identical(
        "final view",
        &db.view_oracle("standing").unwrap(),
        final_state.relation(),
    );
}

/// A held [`pytond_sqldb::ViewState`] is frozen: refreshes published by
/// later appends never mutate an observation a reader already holds, even
/// while the maintained content is appended in place behind new states.
#[test]
fn held_view_states_do_not_move() {
    let db = serve_db();
    // A chain view: its maintained content grows by in-place column
    // appends, which must copy-on-write under a held reader, never mutate.
    db.register_view("ids", "SELECT id, a, b FROM t WHERE a >= 50")
        .unwrap();
    let held = db.view("ids").unwrap();
    let before = held.relation().clone();
    for k in 0..6 {
        db.append("t", &serve_rel(BASE_ROWS + k * BATCH_ROWS, BATCH_ROWS))
            .unwrap();
    }
    assert_bit_identical("held state", &before, held.relation());
    let fresh = db.view("ids").unwrap();
    assert!(fresh.relation().num_rows() > before.num_rows());
    assert_bit_identical(
        "fresh state",
        &db.view_oracle("ids").unwrap(),
        fresh.relation(),
    );
}
