//! Differential property tests for the two pipeline-extraction policies:
//! under the fused profile (maximal chains) every query must be
//! **bit-identical** — `Value::total_cmp` per cell, so NaN payloads and
//! `-0.0` count — to the vectorized profile (one operator per pipeline), at
//! every thread count. The policy analogue of `tests/parallel_property.rs`.
//!
//! Why this holds by construction (and what this suite pins): both policies
//! run the same kernels through the same driver; filters, projections and
//! probes are elementwise, chunks merge in ascending order, and aggregate
//! sinks rebuild the narrow key/argument columns in that order before
//! running the *same* fixed-grid accumulation tree (`docs/EXECUTION.md`
//! § Fusion). The oracle is chosen per call: `Profile::Vectorized` is the
//! one-operator policy, so every pipeline assertion below runs in the
//! default process.
//!
//! Coverage: all 22 TPC-H queries, every hybrid workload, the
//! stats-property corpus (dtypes × clustering × NULL patterns), NULL-heavy
//! and empty-table joins, at threads 1 / 2 / 7 / hardware — and the one
//! hash join against a nested-loop reference written here (kind × planned
//! build side × key layout × NULLs/duplicates/empty sides, row order
//! included), which shares nothing with either policy.

use pytond::{Backend, EngineConfig, OptLevel, Profile, Pytond};
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::Database;

mod common;
use common::{assert_bit_identical, corpus_db, null_heavy_db, null_heavy_db_scaled, thread_counts};

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

/// Compiles one source once, runs it materializing (vectorized profile,
/// serial — the oracle) and fused at every thread count, and asserts
/// bit-identity. One prepared plan feeds both paths, so any divergence is
/// the driver's, not the planner's.
fn check_source(name: &str, py: &Pytond, source: &str) {
    let backend = Backend {
        profile: Profile::Fused,
        threads: 1,
        timeout_ms: None,
        mem_budget_mb: None,
    };
    let prepared = py
        .prepare(source, &backend, OptLevel::O4)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let reference = py
        .database()
        .execute_prepared(&prepared, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: materializing run failed: {e}"));
    for threads in thread_counts() {
        let r = py
            .database()
            .execute_prepared(&prepared, &config(Profile::Fused, threads))
            .unwrap_or_else(|e| panic!("{name}/fused@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}/fused@{threads}t"), &reference, &r);
    }
}

/// SQL-level variant of [`check_source`].
fn check_sql(name: &str, db: &Database, sql: &str) {
    let reference = db
        .execute_sql(sql, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: materializing run failed: {e}"));
    for threads in thread_counts() {
        let r = db
            .execute_sql(sql, &config(Profile::Fused, threads))
            .unwrap_or_else(|e| panic!("{name}/fused@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}/fused@{threads}t"), &reference, &r);
    }
}

#[test]
fn tpch_fused_matches_materializing() {
    let data = pytond_tpch::generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    for q in pytond_tpch::all_queries() {
        check_source(q.name, &py, q.source);
    }
}

#[test]
fn hybrid_workloads_fused_matches_materializing() {
    for w in pytond_workloads::all_workloads(1) {
        let py = Pytond::new();
        for (name, rel, unique) in &w.tables {
            let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
            py.register_table(name, rel.clone(), &keys);
        }
        check_source(w.name, &py, w.source);
    }
}

// ---------------- the stats-property corpus, re-run fused ----------------

#[test]
fn stats_corpus_fused_matches_materializing() {
    // Float SUM/AVG group-bys are the rounding-sensitive cases: the fused
    // aggregate sink must feed the accumulation grid the exact same rows in
    // the exact same order or low mantissa bits drift. Predicated scans
    // exercise the claim-time zone skip inside the fused source.
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
                    &format!("{label}/filtered-groupby"),
                    &db,
                    "SELECT k, SUM(f) AS s FROM t WHERE v >= 1000 AND v < 9000 GROUP BY k",
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
                    &format!("{label}/projected-filter"),
                    &db,
                    "SELECT v + 1 AS v1, f * 2.0 AS f2 FROM t WHERE v < 5000",
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

// ---------------- NULL-heavy and empty-table joins, fused probes ---------

#[test]
fn null_heavy_and_empty_joins_fused_matches_materializing() {
    // Dense keys build direct-addressed indexes, spread ones hashed.
    for db in [null_heavy_db(30_000), null_heavy_db_scaled(30_000, 7919)] {
        null_heavy_joins_fused_match(&db);
    }
}

fn null_heavy_joins_fused_match(db: &Database) {
    for sql in [
        // Inner probe feeding a fused aggregate sink.
        "SELECT l.k, COUNT(*) AS n, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k",
        // Left probe keeps unmatched rows with NULL fill; full outer breaks
        // the pipeline (build-side backfill) and must still agree.
        "SELECT l.a, r.b FROM l LEFT JOIN r ON l.k = r.k",
        "SELECT l.a, r.b FROM l FULL OUTER JOIN r ON l.k = r.k",
        // Semi/anti probes narrow the selection without moving columns.
        "SELECT a FROM l WHERE k IN (SELECT k FROM r)",
        "SELECT a FROM l WHERE k NOT IN (SELECT k FROM r WHERE k IS NOT NULL)",
        // Empty build side, and an empty probe side.
        "SELECT l.a FROM l, empty WHERE l.k = empty.k",
        "SELECT empty.k FROM empty LEFT JOIN r ON empty.k = r.k",
        // Probe → filter → project → aggregate in one pipeline, with a
        // residual-carrying non-equi conjunct.
        "SELECT l.k, SUM(r.b) AS s FROM l, r WHERE l.k = r.k AND r.b > 10.0 \
         AND l.a < 20000 GROUP BY l.k",
    ] {
        check_sql(sql, db, sql);
    }
}

// ---------------- pipeline metrics: counted once, shown in traces --------

#[test]
fn fused_traces_report_pipelines_and_scan_zones_once() {
    // 12 000 sequential rows span 3 zone-map zones (⌈12000/4096⌉). The
    // predicate `v >= 1000 AND v < 3000` lives entirely in zone 0, so
    // exactly 1 zone survives and 2 prune — and `morsels_scanned` must
    // report that *per-pipeline* total exactly once, not once per fused
    // operator that touches the scan (the historical double-count).
    let db = corpus_db(0, 12_000, 400, true, 0);
    let sql = "SELECT k, SUM(f) AS s FROM t WHERE v >= 1000 AND v < 3000 GROUP BY k";
    let (_, vec_trace) = db
        .execute_sql_traced(sql, &config(Profile::Vectorized, 1))
        .unwrap();
    assert_eq!(
        (
            vec_trace.metrics.morsels_scanned,
            vec_trace.metrics.morsels_pruned
        ),
        (1, 2),
        "materializing zone counts: {:?}",
        vec_trace.metrics
    );
    assert_eq!(vec_trace.metrics.pipelines, 0);
    assert!(vec_trace.metrics.pipeline_ops.is_empty());
    for threads in [1usize, 7] {
        let (_, fused) = db
            .execute_sql_traced(sql, &config(Profile::Fused, threads))
            .unwrap();
        // The pin: fused and materializing agree on the zone totals.
        assert_eq!(
            (fused.metrics.morsels_scanned, fused.metrics.morsels_pruned),
            (1, 2),
            "fused@{threads}t zone counts: {:?}",
            fused.metrics
        );
        assert!(
            fused.metrics.pipelines >= 1,
            "fused@{threads}t: {:?}",
            fused.metrics
        );
        assert_eq!(
            fused.metrics.pipeline_ops.len(),
            fused.metrics.pipelines as usize
        );
        // scan + aggregate sink, at least; the scan's survivor gather is
        // the avoided intermediate.
        assert!(fused.metrics.pipeline_ops.iter().all(|&ops| ops >= 2));
        assert!(fused.metrics.intermediates_avoided >= 1);
        // EXPLAIN/trace surfaces: plan header shows the decomposition,
        // summary shows the counters.
        assert!(fused.plan.contains("pipelines:"), "{}", fused.plan);
        assert!(fused.plan.contains("aggregate ["), "{}", fused.plan);
        assert!(
            fused.summary().contains("pipelines: "),
            "{}",
            fused.summary()
        );
    }
}

#[test]
fn planned_build_side_shows_in_explain_and_pipelines() {
    let db = null_heavy_db(30_000);
    // `r` (15 000 rows) is the left input and the smaller one: the plan
    // builds on it and streams `l` (30 000 rows) through the probe.
    let sql = "SELECT r.k, SUM(r.b) AS s FROM r, l WHERE r.k = l.k GROUP BY r.k";
    let plan = db.explain_sql(sql).unwrap();
    assert!(plan.contains("Join Inner build=left on ["), "{plan}");
    for profile in [Profile::Vectorized, Profile::Fused] {
        let (_, trace) = db.execute_sql_traced(sql, &config(profile, 1)).unwrap();
        let m = &trace.metrics;
        assert_eq!(m.joins_flipped, 1, "{profile:?}: {m:?}");
        assert_eq!(
            (m.join_build_rows, m.join_probe_rows),
            (15_000, 30_000),
            "{profile:?}: {m:?}"
        );
    }
    let (_, fused) = db
        .execute_sql_traced(sql, &config(Profile::Fused, 1))
        .unwrap();
    assert!(
        fused
            .plan
            .lines()
            .any(|l| l.contains("scan l → probe(inner, build=left) → regroup")),
        "{}",
        fused.plan
    );
    // The other way round the binder's default stands and the probe fuses
    // with the aggregation above it.
    let sql = "SELECT l.k, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k";
    let (_, fused) = db
        .execute_sql_traced(sql, &config(Profile::Fused, 1))
        .unwrap();
    assert_eq!(fused.metrics.joins_flipped, 0, "{:?}", fused.metrics);
    assert!(!fused.plan.contains("build=left"), "{}", fused.plan);
    assert!(
        fused.plan.contains("scan l → probe(inner) → aggregate"),
        "{}",
        fused.plan
    );
}

// ---------------- the one join, against a nested-loop reference ----------

/// A join input `(id, k1, k2, ks, kf)`: keys from tiny domains (duplicates
/// everywhere), NULLs in `k1`/`ks`/`kf`, `salt` shifting the two sides
/// against each other so every key has matches, misses and NULLs.
fn join_side(n: usize, salt: usize) -> Relation {
    let mut cols: Vec<Column> = [DType::Int, DType::Int, DType::Int, DType::Str, DType::Float]
        .into_iter()
        .map(Column::new)
        .collect();
    for i in 0..n {
        let cell = |null: bool, v: Value| if null { Value::Null } else { v };
        let row = [
            Value::Int(i as i64),
            cell((i + salt) % 5 == 0, Value::Int(((i * 3 + salt) % 7) as i64)),
            Value::Int(((i + salt) % 3) as i64),
            cell(i % 7 == 3, Value::Str(format!("s{}", (i * 2 + salt) % 6))),
            cell(i % 6 == 1, Value::Float(((i + 2 * salt) % 7) as f64)),
        ];
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v).unwrap();
        }
    }
    let names = ["id", "k1", "k2", "ks", "kf"];
    Relation::new(names.iter().map(|n| n.to_string()).zip(cols).collect()).unwrap()
}

fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
    (0..rel.num_rows())
        .map(|i| {
            (0..rel.num_cols())
                .map(|c| rel.column_at(c).get(i))
                .collect()
        })
        .collect()
}

/// The reference: nested loops over `Value` rows. `lk`/`rk` are key column
/// positions; the output is `(a.id, b.id, b.ks)` — `(a.id, a.ks)` for
/// semi/anti — in the engine's documented order: left rows in order, each
/// one's matches in right-row order, a right/full join's unmatched right
/// rows last. NULL keys never match; anti keeps NULL-key rows.
fn nested_loop_join(
    kind: &str,
    a: &[Vec<Value>],
    b: &[Vec<Value>],
    lk: &[usize],
    rk: &[usize],
) -> Vec<Vec<Value>> {
    let eq = |l: &[Value], r: &[Value]| {
        lk.iter()
            .zip(rk)
            .all(|(&i, &j)| l[i].sql_cmp(&r[j]) == Some(std::cmp::Ordering::Equal))
    };
    let mut out = Vec::new();
    let mut matched = vec![false; b.len()];
    for l in a {
        let hits: Vec<usize> = (0..b.len()).filter(|&j| eq(l, &b[j])).collect();
        match kind {
            "semi" | "anti" => {
                if hits.is_empty() == (kind == "anti") {
                    out.push(vec![l[0].clone(), l[3].clone()]);
                }
            }
            _ => {
                for &j in &hits {
                    matched[j] = true;
                    out.push(vec![l[0].clone(), b[j][0].clone(), b[j][3].clone()]);
                }
                if hits.is_empty() && matches!(kind, "left" | "full") {
                    out.push(vec![l[0].clone(), Value::Null, Value::Null]);
                }
            }
        }
    }
    if matches!(kind, "right" | "full") {
        for j in (0..b.len()).filter(|&j| !matched[j]) {
            out.push(vec![Value::Null, b[j][0].clone(), b[j][3].clone()]);
        }
    }
    out
}

#[test]
fn one_join_matches_nested_loop_reference() {
    // Key column pairs: a `u64` key, a `u128` key, a string key (dictionary
    // codes — also over plain stored strings, below) and a float-vs-int key
    // (always byte-encoded).
    let layouts: [&[(&str, &str)]; 4] = [
        &[("k1", "k1")],
        &[("k1", "k1"), ("k2", "k2")],
        &[("ks", "ks")],
        &[("kf", "k1")],
    ];
    let pos = |name: &str| {
        ["id", "k1", "k2", "ks", "kf"]
            .iter()
            .position(|n| *n == name)
            .unwrap()
    };
    // Left smaller (the estimate plans build=left where the kind allows),
    // right smaller, an empty left, an empty right.
    for (na, nb) in [(60, 300), (300, 60), (0, 50), (50, 0)] {
        let (ra, rb) = (join_side(na, 0), join_side(nb, 2));
        let (a, b) = (rows_of(&ra), rows_of(&rb));
        let db = Database::new();
        db.register("a", ra.clone());
        db.register("b", rb.clone());
        // The string key once more with both sides stored plain: whichever
        // side the plan builds on, its keys are plain strings encoded at
        // build, and the probe re-encodes plain chunks into that dictionary.
        let plain = Database::new();
        plain.register_plain("a", ra);
        plain.register_plain("b", rb);
        let runs = layouts
            .iter()
            .map(|keys| (&db, *keys, ""))
            .chain([(&plain, layouts[2], "plain/")]);
        for (db, keys, stored) in runs {
            let lk: Vec<usize> = keys.iter().map(|(l, _)| pos(l)).collect();
            let rk: Vec<usize> = keys.iter().map(|(_, r)| pos(r)).collect();
            for kind in ["inner", "left", "right", "full", "semi", "anti"] {
                let on: Vec<String> = keys.iter().map(|(l, r)| format!("a.{l} = b.{r}")).collect();
                let sql = match (kind, keys) {
                    ("semi", [(l, r)]) => {
                        format!("SELECT a.id, a.ks FROM a WHERE a.{l} IN (SELECT {r} FROM b)")
                    }
                    ("anti", [(l, r)]) => format!(
                        "SELECT a.id, a.ks FROM a WHERE a.{l} NOT IN \
                         (SELECT {r} FROM b WHERE {r} IS NOT NULL)"
                    ),
                    // An IN subquery carries one key column.
                    ("semi" | "anti", _) => continue,
                    ("full", _) => format!(
                        "SELECT a.id, b.id, b.ks FROM a FULL OUTER JOIN b ON {}",
                        on.join(" AND ")
                    ),
                    _ => format!(
                        "SELECT a.id, b.id, b.ks FROM a {kind} JOIN b ON {}",
                        on.join(" AND ")
                    ),
                };
                let name = format!("{stored}{na}x{nb}/{kind}/{}", on.join("&"));
                let planned_left = db.explain_sql(&sql).unwrap().contains("build=left");
                let may_flip = matches!(kind, "inner" | "semi" | "anti");
                assert_eq!(
                    planned_left,
                    may_flip && na < nb,
                    "{name}: planned build side"
                );
                let want = nested_loop_join(kind, &a, &b, &lk, &rk);
                for profile in [Profile::Vectorized, Profile::Fused] {
                    for threads in [1usize, 2, 7] {
                        let cfg = EngineConfig {
                            morsel: 16,
                            ..config(profile, threads)
                        };
                        let got = db
                            .execute_sql(&sql, &cfg)
                            .unwrap_or_else(|e| panic!("{name}/{profile:?}@{threads}t: {e}"));
                        let got = rows_of(&got);
                        assert_eq!(got.len(), want.len(), "{name}/{profile:?}@{threads}t: rows");
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                g.iter().zip(w).all(|(x, y)| x.total_cmp(y).is_eq()),
                                "{name}/{profile:?}@{threads}t: row {i}: {g:?} vs {w:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// An outer join keeps a row unmatched by its equi-keys alone, so one whose
/// ON clause holds anything else — a non-equi conjunct beside the keys, or
/// no key at all — is refused at bind instead of answering with the inner
/// join's rows. The equi-key outer joins still run (and match
/// [`nested_loop_join`] in `one_join_matches_nested_loop_reference`), as do
/// inner joins with a residual.
#[test]
fn outer_joins_beyond_equalities_are_refused() {
    let db = Database::new();
    let pairs = |k: Vec<i64>, x: Vec<i64>, name: &str| {
        Relation::new(vec![
            ("k".into(), Column::from_i64(k)),
            (name.into(), Column::from_i64(x)),
        ])
        .unwrap()
    };
    db.register("a", pairs(vec![1, 2, 3], vec![10, 20, 30], "x"));
    db.register("b", pairs(vec![1, 2, 2], vec![5, 25, 15], "y"));
    let refused = [
        "SELECT a.k, a.x, b.y FROM a LEFT JOIN b ON a.k = b.k AND a.x < b.y",
        "SELECT a.k, a.x, b.y FROM a LEFT JOIN b ON a.x < b.y",
        "SELECT a.k, a.x, b.y FROM a RIGHT JOIN b ON a.x < b.y",
        "SELECT a.k, a.x, b.y FROM a FULL OUTER JOIN b ON a.x < b.y",
    ];
    let int = |v: i64| Value::Int(v);
    let admitted = [
        (
            "SELECT a.k, a.x, b.y FROM a LEFT JOIN b ON a.k = b.k",
            vec![
                vec![int(1), int(10), int(5)],
                vec![int(2), int(20), int(25)],
                vec![int(2), int(20), int(15)],
                vec![int(3), int(30), Value::Null],
            ],
        ),
        (
            "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k AND a.x < b.y",
            vec![vec![int(2), int(20), int(25)]],
        ),
    ];
    for profile in [Profile::Vectorized, Profile::Fused] {
        let cfg = config(profile, 2);
        for sql in refused {
            let err = db.execute_sql(sql, &cfg).unwrap_err();
            assert!(
                matches!(err, pytond_common::Error::Unsupported(_)),
                "{profile:?}: {sql}: {err}"
            );
        }
        for (sql, want) in &admitted {
            let got = rows_of(&db.execute_sql(sql, &cfg).unwrap());
            assert_eq!(&got, want, "{profile:?}: {sql}");
        }
    }
}

#[test]
fn keyless_joins_broadcast_a_one_row_side() {
    let db = Database::new();
    let ints = |v: Vec<i64>| Relation::new(vec![("x".into(), Column::from_i64(v))]).unwrap();
    db.register("one", ints(vec![7]));
    db.register("none", ints(vec![]));
    db.register("three", ints(vec![1, 2, 3]));
    db.register("many", ints((0..100).collect()));
    let pairs = |l: &[i64], r: &[i64]| -> Vec<Vec<Value>> {
        l.iter()
            .flat_map(|&x| r.iter().map(move |&y| vec![Value::Int(x), Value::Int(y)]))
            .collect()
    };
    let many: Vec<i64> = (0..100).collect();
    for (sql, want) in [
        ("SELECT one.x, many.x FROM one, many", pairs(&[7], &many)),
        ("SELECT many.x, one.x FROM many, one", pairs(&many, &[7])),
        ("SELECT one.x, o.x FROM one, one o", pairs(&[7], &[7])),
        ("SELECT none.x, many.x FROM none, many", pairs(&[], &many)),
        ("SELECT one.x, none.x FROM one, none", pairs(&[7], &[])),
        (
            "SELECT three.x, many.x FROM three, many",
            pairs(&[1, 2, 3], &many),
        ),
    ] {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let got = rows_of(&db.execute_sql(sql, &config(profile, 1)).unwrap());
            assert_eq!(got, want, "{sql} under {profile:?}");
        }
    }
}
