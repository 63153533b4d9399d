//! Differential maintenance suite for materialized views (ISSUE 10): after
//! **every** append in randomized batched schedules, every registered view
//! must be **bit-identical** — `Value::total_cmp` per cell, so NaN payloads
//! and `-0.0` count — to a from-scratch recompute of its own prepared plan
//! on the same pinned snapshot, and its stamp must equal the snapshot
//! version the append published.
//!
//! Coverage: all 22 TPC-H queries and every hybrid workload registered as
//! standing views (thread counts and profiles rotated across the corpus),
//! synthetic tables with dict-string keys, NULL densities and empty appends
//! at threads 1 / 2 / 7 / hardware under both profiles, `@pytond` programs
//! registered through the front door taking the delta path, a resumable-fold
//! matrix (delta sizes around the morsel boundary, new groups, NULL keys,
//! dictionary growth, every accumulator kind, an empty prefix, a table of
//! plain strings), and trace pinning that incremental-eligible plan shapes
//! actually report `delta` — not `recompute` — after an append. The oracle
//! is an argument, not a mode: `Database::view_oracle_at` recomputes on the
//! pinned snapshot, so every refresh-mode assertion runs unconditionally.
//!
//! The storage the views read is checked against a second, independent
//! oracle: a bulk load. All 22 TPC-H queries over a `lineitem` grown by
//! appends across chunk boundaries return what they return over the same
//! rows registered at once; a snapshot pinned before an append keeps its
//! answers; and reads over appended tables never concatenate chunks.

use pytond::{Backend, OptLevel, Profile, Pytond};
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::stats::ZONE_ROWS;
use pytond_sqldb::table::Batch;
use pytond_sqldb::{Database, EngineConfig, RefreshMode};

mod common;
use common::{assert_bit_identical, thread_counts};

/// Small morsels so test-sized inputs span many-morsel grids.
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

/// The first `k` rows of `rel` — the generic append batch for schedules
/// over pre-generated corpora (duplicated keys are fine: both the
/// maintained side and the oracle execute the same plan over the same
/// rows). `k = 0` produces a schema-correct empty append.
fn head_rows(rel: &Relation, k: usize) -> Relation {
    let k = k.min(rel.num_rows());
    Relation::new(
        rel.columns()
            .iter()
            .map(|(n, c)| (n.clone(), c.slice(0, k)))
            .collect(),
    )
    .unwrap()
}

/// xorshift64*: deterministic schedule randomness without a rand crate.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Checks every named view of `db` against a from-scratch recompute of its
/// own prepared plan on the current (pinned) snapshot, and that a healthy
/// view's stamp equals the version that snapshot carries.
fn check_views(db: &Database, context: &str) {
    let snap = db.snapshot();
    for name in db.view_names() {
        let state = db
            .view(&name)
            .unwrap_or_else(|e| panic!("{context}/{name}: view read failed: {e}"));
        assert_eq!(
            state.snapshot_version(),
            snap.version(),
            "{context}/{name}: stamp lags the published snapshot"
        );
        let oracle = db
            .view_oracle_at(&name, &snap)
            .unwrap_or_else(|e| panic!("{context}/{name}: oracle failed: {e}"));
        assert_bit_identical(&format!("{context}/{name}"), &oracle, state.relation());
    }
}

// ---------------- TPC-H corpus as standing views -------------------------

/// All 22 TPC-H queries registered as standing views, with thread counts
/// and profiles rotated across the corpus; a seeded schedule of batched
/// appends to the fact/dimension tables must keep every view bit-identical
/// to recompute after every single append.
#[test]
fn tpch_views_bit_identical_across_append_schedule() {
    let data = pytond_tpch::generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    let threads = thread_counts();
    let profiles = [Profile::Vectorized, Profile::Fused];
    for (i, q) in pytond_tpch::all_queries().iter().enumerate() {
        let backend = Backend {
            profile: profiles[i % profiles.len()],
            threads: threads[i % threads.len()],
            timeout_ms: None,
            mem_budget_mb: None,
        };
        py.register_view(q.name, q.source, &backend)
            .unwrap_or_else(|e| panic!("{}: register_view failed: {e}", q.name));
    }
    check_views(py.database(), "initial");

    let mut next = rng(0xDECAF);
    let appendable = ["lineitem", "orders", "customer", "partsupp"];
    let base: Vec<(String, Relation)> = data
        .tables()
        .into_iter()
        .filter(|(name, _, _)| appendable.contains(name))
        .map(|(name, rel, _)| (name.to_string(), rel.clone()))
        .collect();
    assert_eq!(base.len(), appendable.len());
    for round in 0..3 {
        for _ in 0..2 {
            let (table, rel) = &base[(next() as usize) % base.len()];
            // Batch sizes cover empty, tiny and multi-hundred-row appends.
            let k = match next() % 4 {
                0 => 0,
                1 => 1 + (next() as usize) % 8,
                _ => 32 + (next() as usize) % 226,
            };
            py.append(table, &head_rows(rel, k))
                .unwrap_or_else(|e| panic!("append {k} rows to {table}: {e}"));
            check_views(py.database(), &format!("round{round}/{table}+{k}"));
        }
    }
}

/// Every hybrid workload registered as a standing view over its own
/// tables, absorbing appends to each table in turn.
#[test]
fn hybrid_workload_views_bit_identical_across_appends() {
    let mut next = rng(0xB0BA);
    for w in pytond_workloads::all_workloads(1) {
        let py = Pytond::new();
        for (name, rel, unique) in &w.tables {
            let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
            py.register_table(name, rel.clone(), &keys);
        }
        let backend = Backend {
            profile: if next() % 2 == 0 {
                Profile::Vectorized
            } else {
                Profile::Fused
            },
            threads: thread_counts()[(next() as usize) % 4],
            timeout_ms: None,
            mem_budget_mb: None,
        };
        py.register_view(w.name, w.source, &backend)
            .unwrap_or_else(|e| panic!("{}: register_view failed: {e}", w.name));
        check_views(py.database(), &format!("{}/initial", w.name));
        for (name, rel, _) in &w.tables {
            let k = (next() as usize) % 64;
            py.append(name, &head_rows(rel, k))
                .unwrap_or_else(|e| panic!("{}: append to {name}: {e}", w.name));
            check_views(py.database(), &format!("{}/{name}+{k}", w.name));
        }
    }
}

// ---------------- synthetic matrix: threads × profiles × data shapes -----

/// A synthetic base table with dict-string keys, NULL-bearing ints and
/// rounding-sensitive floats; `salt` varies the content between appends.
fn synth_rel(start: usize, rows: usize, null_every: usize, salt: u64) -> Relation {
    let mut k = Column::new(DType::Int);
    let mut f = Column::new(DType::Float);
    let mut s = Column::new(DType::Str);
    let cities = ["tokyo", "lima", "oslo", "cairo", "quito", "perth"];
    for i in start..start + rows {
        if null_every > 0 && i % null_every == 0 {
            k.push_null();
        } else {
            k.push(Value::Int(((i as u64).wrapping_mul(salt | 1) % 97) as i64))
                .unwrap();
        }
        f.push(Value::Float((i as f64) * 0.618_033_988_749 + 0.1))
            .unwrap();
        s.push(Value::Str(
            cities[(i + salt as usize) % cities.len()].to_string(),
        ))
        .unwrap();
    }
    Relation::new(vec![("k".into(), k), ("f".into(), f), ("s".into(), s)]).unwrap()
}

/// Filter, projection, group-by aggregation and join views over the
/// synthetic table, maintained at every thread count under both profiles:
/// after each append in a seeded schedule (varying batch sizes, NULL
/// densities and an empty batch) every view is bit-identical to recompute
/// on the pinned snapshot.
#[test]
fn synthetic_views_bit_identical_at_all_thread_counts() {
    for threads in thread_counts() {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let db = Database::new();
            db.register("t", synth_rel(0, 4_000, 7, 3));
            db.register(
                "dim",
                Relation::new(vec![
                    ("k".into(), Column::from_i64((0..97).collect())),
                    (
                        "w".into(),
                        Column::from_f64((0..97).map(|i| i as f64 * 1.5).collect()),
                    ),
                ])
                .unwrap(),
            );
            let cfg = config(profile, threads);
            for (name, sql) in [
                ("v_filter", "SELECT k, f, s FROM t WHERE k >= 40"),
                (
                    "v_project",
                    "SELECT k + 1 AS k1, f * 2.0 AS f2 FROM t WHERE k IS NOT NULL",
                ),
                (
                    "v_agg",
                    "SELECT s, SUM(f) AS sf, COUNT(*) AS n, AVG(f) AS af, MIN(k) AS lo, \
                     MAX(k) AS hi FROM t GROUP BY s",
                ),
                (
                    "v_join_agg",
                    "SELECT t.s, SUM(dim.w) AS sw FROM t, dim WHERE t.k = dim.k AND t.k < 12 \
                     GROUP BY t.s",
                ),
                (
                    "v_sorted",
                    "SELECT s, k, f FROM t WHERE k < 5 ORDER BY f DESC, k",
                ),
            ] {
                db.register_view_with(name, sql, &cfg)
                    .unwrap_or_else(|e| panic!("{name}@{threads}t: register failed: {e}"));
            }
            let label = format!("{profile:?}@{threads}t");
            check_views(&db, &format!("{label}/initial"));
            let mut next = rng(threads as u64 * 7919 + 13);
            for (step, (rows, null_every)) in
                [(513usize, 0usize), (0, 0), (1_024, 3), (65, 1), (700, 11)]
                    .into_iter()
                    .enumerate()
            {
                let start = 4_000 + step * 1_100;
                db.append("t", &synth_rel(start, rows, null_every, next()))
                    .unwrap();
                check_views(&db, &format!("{label}/step{step}+{rows}"));
            }
        }
    }
}

// ---------------- trace pinning: eligible shapes say `delta` -------------

/// Incremental-eligible plan shapes must actually refresh via delta (the
/// trace says `delta`, and the chain views propagate exactly the delta's
/// output rows); ineligible shapes must say `recompute` with the blocking
/// operator named in the maintenance matrix.
#[test]
fn eligible_shapes_report_delta_in_trace() {
    let db = Database::new();
    db.register("t", synth_rel(0, 4_000, 7, 3));
    db.register(
        "dim",
        Relation::new(vec![
            ("k".into(), Column::from_i64((0..97).collect())),
            (
                "w".into(),
                Column::from_f64((0..97).map(|i| i as f64 * 1.5).collect()),
            ),
        ])
        .unwrap(),
    );
    let cfg = config(Profile::Fused, 2);
    let delta_views = [
        ("d_filter", "SELECT k, f FROM t WHERE k >= 40"),
        ("d_project", "SELECT k + 1 AS k1, f * 2.0 AS f2 FROM t"),
        (
            "d_agg",
            "SELECT s, SUM(f) AS sf, COUNT(*) AS n FROM t GROUP BY s",
        ),
        (
            // The selective predicate keeps `t` the cheap (probe) side, so
            // the appended rows stay on the left spine of the join.
            "d_join",
            "SELECT t.s, SUM(dim.w) AS sw FROM t, dim WHERE t.k = dim.k AND t.k < 12 \
             GROUP BY t.s",
        ),
        // DISTINCT is a key-only aggregate: it resumes its fold like one.
        ("d_distinct", "SELECT DISTINCT s FROM t"),
    ];
    let recompute_views = [
        (
            "r_sort",
            "SELECT k, f FROM t WHERE k >= 40 ORDER BY f",
            "sort",
        ),
        ("r_limit", "SELECT k, f FROM t LIMIT 10", "limit"),
    ];
    for (name, sql) in delta_views {
        db.register_view_with(name, sql, &cfg).unwrap();
    }
    for (name, sql, _) in recompute_views {
        db.register_view_with(name, sql, &cfg).unwrap();
    }
    db.append("t", &synth_rel(4_000, 800, 5, 11)).unwrap();
    for (name, _) in delta_views {
        let state = db.view(name).unwrap();
        assert_eq!(
            state.mode(),
            RefreshMode::Delta,
            "{name}: {}",
            db.view_trace(name).unwrap()
        );
        let trace = db.view_trace(name).unwrap();
        assert!(trace.contains("mode=delta"), "{name}: {trace}");
        assert!(
            trace.starts_with(&format!("view: {name} ")),
            "{name}: {trace}"
        );
    }
    // Chain views propagate exactly their delta's output rows.
    let filtered = db.view("d_filter").unwrap();
    assert!(
        filtered.rows_propagated() < 800,
        "{}",
        filtered.rows_propagated()
    );
    let projected = db.view("d_project").unwrap();
    assert_eq!(projected.rows_propagated(), 800);
    for (name, _, op) in recompute_views {
        let state = db.view(name).unwrap();
        assert_eq!(state.mode(), RefreshMode::Recompute, "{name}");
        let trace = db.view_trace(name).unwrap();
        assert!(trace.contains("mode=recompute"), "{name}: {trace}");
        assert!(
            trace.contains(&format!("recompute ({op})")),
            "{name}: {trace}"
        );
    }
    check_views(&db, "trace-pinning");
}

// ---------------- the front door takes the delta path --------------------

/// Rows `[from, from + k)` of `rel`, wrapping around its end.
fn rows_from(rel: &Relation, from: usize, k: usize) -> Relation {
    let idx: Vec<usize> = (from..from + k).map(|i| i % rel.num_rows()).collect();
    let cols = rel.columns().iter();
    Relation::new(cols.map(|(n, c)| (n.clone(), c.gather(&idx))).collect()).unwrap()
}

/// Asserts that the last refresh of every view of `db` was a delta, and —
/// for the views that read `table` — one that resumed the aggregate's fold.
fn assert_all_delta(db: &Database, table: &str, context: &str) {
    for name in db.view_names() {
        let trace = db.view_trace(&name).unwrap();
        let mode = db.view(&name).unwrap().mode();
        assert_eq!(mode, RefreshMode::Delta, "{context}/{name}: {trace}");
        if trace.contains(&format!("\n  {table}: ")) {
            let class = format!("{table}: delta (agg)");
            assert!(trace.contains(&class), "{context}/{name}: {trace}");
        }
    }
}

/// TPC-H Q1 and Q6 and the N3 notebook (a dictionary-string group-by with
/// rounding-sensitive float sums and means) registered through
/// `Pytond::register_view_with`: the binder splices their single-use CTE
/// chains, so each classifies `delta (agg)` and every append — empty, tiny,
/// and large enough to close several morsels of the carried fold — refreshes
/// by delta, bit-identical to recompute, at every thread count under both
/// profiles.
#[test]
fn front_door_views_refresh_by_delta() {
    let data = pytond_tpch::generate(0.002);
    let more = pytond_tpch::generate_seeded(0.002, 99).lineitem;
    let n3 = pytond_workloads::all_workloads(1)
        .into_iter()
        .find(|w| w.name == "N3")
        .expect("the N3 notebook");
    let flights = &n3.tables[0].1;
    for threads in [1, 2, 7] {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let py = Pytond::new();
            for (name, rel, unique) in data
                .tables()
                .into_iter()
                .chain(n3.tables.iter().map(|(n, r, u)| (*n, r, u.clone())))
            {
                let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
                py.register_table(name, rel.clone(), &keys);
            }
            let cfg = config(profile, threads);
            for (name, source) in [
                ("v_q1", pytond_tpch::query(1).source),
                ("v_q6", pytond_tpch::query(6).source),
                ("v_n3", n3.source),
            ] {
                py.register_view_with(name, source, &cfg)
                    .unwrap_or_else(|e| panic!("{name}: register_view failed: {e}"));
            }
            let label = format!("{profile:?}@{threads}t");
            check_views(py.database(), &format!("{label}/initial"));
            let mut at = 0;
            for k in [1usize, 300, 0, 2 * TEST_MORSEL + 77, 777] {
                py.append("lineitem", &rows_from(&more, at, k)).unwrap();
                check_views(py.database(), &format!("{label}/lineitem+{k}"));
                assert_all_delta(py.database(), "lineitem", &format!("{label}/lineitem+{k}"));
                py.append("flights", &rows_from(flights, at, k)).unwrap();
                check_views(py.database(), &format!("{label}/flights+{k}"));
                assert_all_delta(py.database(), "flights", &format!("{label}/flights+{k}"));
                at += k;
            }
        }
    }
}

// ---------------- the resumable fold ------------------------------------

/// A batch for the fold matrix: like [`synth_rel`], with city names drawn
/// from `cities` so a batch can bring strings the stored dictionary (and the
/// view's carried group keys) have never seen.
fn fold_rel(start: usize, rows: usize, null_every: usize, cities: &[&str]) -> Relation {
    let s: Vec<&str> = (start..start + rows)
        .map(|i| cities[i % cities.len()])
        .collect();
    let rel = synth_rel(start, rows, null_every, 5);
    let cols = rel.columns().iter().map(|(n, c)| match n.as_str() {
        "s" => (n.clone(), Column::from_strs(&s)),
        _ => (n.clone(), c.clone()),
    });
    Relation::new(cols.collect()).unwrap()
}

/// Aggregate views resume their fold instead of re-aggregating: the carried
/// state is the merged partials of the closed morsels plus the raw rows of
/// the open trailing one, and an append folds on the same fixed grid a
/// recompute walks. Delta sizes 0, 1, morsel − 1, morsel, morsel + 1 and
/// 3·morsel + 5 follow one another (so the open tail closes mid-append, at a
/// different offset each time), over every accumulator kind: float `SUM` /
/// `AVG` over rounding-sensitive values, `MIN` / `MAX` over floats, ints and
/// strings, `COUNT(DISTINCT)`, NULL group keys, groups and dictionary
/// entries first seen in a delta, a filter below the barrier (so the
/// aggregate's input is not the batch), scalar aggregation over a table
/// that starts empty, and string group keys over a table registered plain
/// (plain `Column::append`, plain keys in the resumed fold).
#[test]
fn aggregate_views_resume_their_fold() {
    const M: usize = TEST_MORSEL;
    let old = ["tokyo", "lima", "oslo"];
    let new = ["tokyo", "lagos", "oslo", "delhi", "lima"];
    for threads in [1, 2, 7] {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let db = Database::new();
            // A prefix that ends mid-morsel, and an empty one.
            db.register("t", fold_rel(0, 2 * M + 300, 7, &old));
            db.register("e", fold_rel(0, 0, 0, &old));
            db.register_plain("p", fold_rel(0, 2 * M + 300, 7, &old));
            let cfg = config(profile, threads);
            for (name, sql) in [
                (
                    "f_sums",
                    "SELECT s, SUM(f) AS sf, AVG(f) AS af, COUNT(*) AS n, SUM(k) AS sk \
                     FROM t GROUP BY s",
                ),
                (
                    "f_extrema",
                    "SELECT k, MIN(f) AS lo, MAX(f) AS hi, MIN(s) AS first, MAX(s) AS last, \
                     COUNT(k) AS n FROM t GROUP BY k",
                ),
                (
                    "f_distinct",
                    "SELECT s, COUNT(DISTINCT k) AS dk, COUNT(DISTINCT f) AS df FROM t GROUP BY s",
                ),
                (
                    "f_filtered",
                    "SELECT s, k, SUM(f * 1.1) AS sf FROM t WHERE k >= 40 GROUP BY s, k",
                ),
                (
                    "f_having_sorted",
                    "SELECT s, SUM(f) AS sf FROM t GROUP BY s HAVING COUNT(*) > 10 ORDER BY sf DESC",
                ),
                ("f_scalar", "SELECT SUM(f) AS sf, AVG(f) AS af, MAX(s) AS last FROM t"),
                (
                    "f_empty",
                    "SELECT SUM(f) AS sf, COUNT(*) AS n, MIN(s) AS first, COUNT(DISTINCT k) AS dk \
                     FROM e",
                ),
                ("f_empty_groups", "SELECT s, SUM(f) AS sf FROM e GROUP BY s"),
                (
                    "f_plain",
                    "SELECT s, SUM(f) AS sf, COUNT(*) AS n, MIN(s) AS first FROM p GROUP BY s",
                ),
            ] {
                db.register_view_with(name, sql, &cfg)
                    .unwrap_or_else(|e| panic!("{name}@{threads}t: register failed: {e}"));
            }
            let label = format!("{profile:?}@{threads}t");
            check_views(&db, &format!("{label}/initial"));
            let mut start = 2 * M + 300;
            for (step, rows) in [0, 1, M - 1, M, M + 1, 3 * M + 5].into_iter().enumerate() {
                // Later batches bring new cities (new groups, a grown
                // dictionary) and a different NULL density.
                let cities: &[&str] = if step < 3 { &old } else { &new };
                let null_every = [0, 1, 5, 3, 0, 11][step];
                for table in ["t", "e", "p"] {
                    db.append(table, &fold_rel(start, rows, null_every, cities))
                        .unwrap();
                    let context = format!("{label}/{table}+{rows}");
                    check_views(&db, &context);
                    assert_all_delta(&db, table, &context);
                }
                start += rows;
            }
        }
    }
}

// ---------------- chunked storage against a bulk load -------------------

/// `rel` with `more`'s rows appended, as one relation.
fn concat(rel: &Relation, more: &[Relation]) -> Relation {
    let mut cols = rel.columns().to_vec();
    for batch in more {
        for ((_, col), (_, add)) in cols.iter_mut().zip(batch.columns()) {
            col.append(add).unwrap();
        }
    }
    Relation::new(cols).unwrap()
}

/// A `Pytond` over the TPC-H tables of `data`, `lineitem` replaced.
fn tpch_instance(data: &pytond_tpch::TpchData, lineitem: Option<Relation>) -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        let rel = match (name, &lineitem) {
            ("lineitem", Some(li)) => li.clone(),
            _ => rel.clone(),
        };
        py.register_table(name, rel, &keys);
    }
    py
}

/// All 22 TPC-H queries over a `lineitem` grown across storage-chunk
/// boundaries — appends of 0, 1, Z − 1, Z, Z + 1 and 3Z + 5 rows in
/// sequence (Z = `ZONE_ROWS`) — are bit-identical to the same queries over
/// one bulk load of the same rows, at threads 1 / 2 / 7 under both
/// profiles. The chunked table's zone grid is the bulk load's, and its
/// dictionary codes are too.
#[test]
fn tpch_over_appended_lineitem_matches_a_bulk_load() {
    const Z: usize = ZONE_ROWS;
    let data = pytond_tpch::generate(0.002);
    let more = pytond_tpch::generate_seeded(0.005, 7).lineitem;
    let appended = tpch_instance(&data, None);
    let mut batches = Vec::new();
    let mut at = 0;
    for k in [0, 1, Z - 1, Z, Z + 1, 3 * Z + 5] {
        let batch = rows_from(&more, at, k);
        appended.append("lineitem", &batch).unwrap();
        batches.push(batch);
        at += k;
    }
    let bulk = tpch_instance(&data, Some(concat(&data.lineitem, &batches)));
    let (a, b) = (
        appended.database().table("lineitem").unwrap(),
        bulk.database().table("lineitem").unwrap(),
    );
    assert!(a.chunks.len() > 2, "{} chunks", a.chunks.len());
    let (a, b) = (Batch::concat_rows(&a.chunks), Batch::concat_rows(&b.chunks));
    for (i, (x, y)) in a.unwrap().cols.iter().zip(&b.unwrap().cols).enumerate() {
        assert_eq!(x, y, "stored column {i} differs");
    }
    for threads in [1, 2, 7] {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let backend = Backend {
                profile,
                threads,
                timeout_ms: None,
                mem_budget_mb: None,
            };
            for q in pytond_tpch::all_queries() {
                let want = bulk.run(q.source, &backend).unwrap();
                let got = appended.run(q.source, &backend).unwrap();
                let context = format!("{}/{profile:?}@{threads}t", q.name);
                assert_bit_identical(&context, &want, &got);
            }
        }
    }
}

/// A snapshot pinned before appends that bring new strings keeps its
/// answers: the strings its dictionary version never held match nothing
/// on it, and every other answer is unchanged — while the live version
/// sees the new rows.
#[test]
fn pinned_snapshot_keeps_its_answers_across_dictionary_growth() {
    let old = ["tokyo", "lima", "oslo"];
    let db = Database::new();
    db.register("t", fold_rel(0, ZONE_ROWS + 300, 7, &old));
    let pinned = db.snapshot();
    let queries = [
        "SELECT COUNT(*) AS n FROM t WHERE s = 'lagos'",
        "SELECT s, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY s ORDER BY s",
        "SELECT k, s FROM t WHERE s IN ('lagos', 'lima') AND k < 20",
    ];
    let cfg = config(Profile::Fused, 2);
    let prepared: Vec<_> = queries
        .iter()
        .map(|q| db.prepare(q, Profile::Fused).unwrap())
        .collect();
    let before: Vec<Relation> = prepared
        .iter()
        .map(|p| pinned.execute_prepared(p, &cfg).unwrap())
        .collect();
    let mut start = ZONE_ROWS + 300;
    for rows in [1, ZONE_ROWS, 2 * ZONE_ROWS + 9] {
        db.append("t", &fold_rel(start, rows, 5, &["lagos", "delhi", "lima"]))
            .unwrap();
        start += rows;
    }
    assert!(db.table("t").unwrap().chunks.len() > 2);
    for ((q, p), want) in queries.iter().zip(&prepared).zip(&before) {
        let got = pinned.execute_prepared(p, &cfg).unwrap();
        assert_bit_identical(&format!("pinned/{q}"), want, &got);
    }
    let lagos = |r: Relation| r.column("n").unwrap().get(0);
    assert_eq!(lagos(before[0].clone()), Value::Int(0));
    let live = db.execute_prepared(&prepared[0], &cfg).unwrap();
    assert!(matches!(lagos(live), Value::Int(n) if n > 0));
}

/// Reads over tables grown by 50 appends stream their scans chunk by
/// chunk: Q6, Q14 and Q22 over `lineitem` / `customer` and Crime Index over
/// `cities` glue no storage chunks together under either profile — while a
/// breaker reading a multi-chunk table whole does, and says so.
#[test]
fn reads_after_appends_concatenate_no_chunks() {
    let data = pytond_tpch::generate(0.002);
    let more = pytond_tpch::generate_seeded(0.002, 3);
    let crime = pytond_workloads::all_workloads(1)
        .into_iter()
        .find(|w| w.name == "Crime Index")
        .expect("the Crime Index notebook");
    let py = tpch_instance(&data, None);
    for (name, rel, unique) in &crime.tables {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    let cities = &crime.tables[0].1;
    for i in 0..50 {
        py.append("lineitem", &rows_from(&more.lineitem, i * 200, 200))
            .unwrap();
        py.append("customer", &rows_from(&more.customer, i * 100, 100))
            .unwrap();
        py.append("cities", &rows_from(cities, i * 100, 100))
            .unwrap();
    }
    let db = py.database();
    for table in ["lineitem", "customer", "cities"] {
        let chunks = db.table(table).unwrap().chunks.len();
        assert!(chunks > 1, "{table}: {chunks} chunk(s)");
    }
    let reads = [
        ("Q6", pytond_tpch::query(6).source),
        ("Q14", pytond_tpch::query(14).source),
        ("Q22", pytond_tpch::query(22).source),
        ("Crime Index", crime.source),
    ];
    for profile in [Profile::Vectorized, Profile::Fused] {
        let backend = Backend {
            profile,
            threads: 2,
            timeout_ms: None,
            mem_budget_mb: None,
        };
        for (name, source) in reads {
            let prepared = py.prepare(source, &backend, OptLevel::O4).unwrap();
            let (_, trace) = db
                .execute_prepared_traced(&prepared, &backend.config())
                .unwrap();
            assert_eq!(
                trace.metrics.chunks_concatenated,
                0,
                "{name}/{profile:?}:\n{}",
                trace.summary()
            );
        }
    }
    let (_, trace) = db
        .execute_sql_traced(
            "SELECT c_custkey FROM customer ORDER BY c_acctbal",
            &config(Profile::Fused, 1),
        )
        .unwrap();
    let chunks = db.table("customer").unwrap().chunks.len() as u64;
    assert_eq!(
        trace.metrics.chunks_concatenated,
        chunks,
        "{}",
        trace.summary()
    );
    assert!(trace
        .summary()
        .contains(&format!("storage chunks concatenated: {chunks}")));
}

/// A read that needs a several-chunk table whole — a breaker over an
/// unpredicated scan, or a pipeline whose scan keeps every row —
/// concatenates the chunks for itself: every read of a version reports its
/// chunk count (nothing is cached for the next), and every answer equals a
/// bulk load's.
#[test]
fn whole_table_reads_concatenate_once_per_read() {
    let data = pytond_tpch::generate(0.002);
    let more = pytond_tpch::generate_seeded(0.002, 3).lineitem;
    let py = tpch_instance(&data, None);
    let reads = [
        "SELECT l_orderkey, l_comment FROM lineitem \
         ORDER BY l_extendedprice, l_orderkey, l_linenumber",
        "SELECT l_quantity, l_comment FROM lineitem WHERE l_quantity > 0",
        "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem \
         WHERE l_quantity > 0 GROUP BY l_returnflag ORDER BY l_returnflag",
    ];
    let mut batches = Vec::new();
    for profile in [Profile::Vectorized, Profile::Fused] {
        for sql in reads {
            let batch = rows_from(&more, batches.len() * 700, 700);
            py.append("lineitem", &batch).unwrap();
            batches.push(batch);
            let bulk = tpch_instance(&data, Some(concat(&data.lineitem, &batches)));
            let want = (bulk.database().execute_sql(sql, &config(profile, 2))).unwrap();
            let db = py.database();
            let chunks = db.table("lineitem").unwrap().chunks.len() as u64;
            assert!(chunks > 1);
            for read in ["first", "second"] {
                let (got, trace) = db.execute_sql_traced(sql, &config(profile, 2)).unwrap();
                let context = format!("{sql}/{profile:?}/{read} read");
                assert_eq!(trace.metrics.chunks_concatenated, chunks, "{context}");
                assert_bit_identical(&context, &want, &got);
            }
        }
    }
}
