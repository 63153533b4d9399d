//! Property tests for the statistics subsystem: zone-map scan pruning must be
//! **result-identical** to unpruned scans across dtypes, data distributions
//! and NULL patterns, and incrementally-maintained statistics (multi-batch
//! loads through `Database::append`) must equal a from-scratch computation —
//! zone for zone across storage-chunk boundaries.

use proptest::prelude::*;
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::stats::{TableStats, ZONE_ROWS};
use pytond_sqldb::{Database, EngineConfig};

mod common;
use common::key_column;

fn table_of(k: Column) -> Relation {
    let n = k.len();
    Relation::new(vec![
        ("k".into(), k),
        ("v".into(), Column::from_i64((0..n as i64).collect())),
    ])
    .unwrap()
}

/// Predicate SQL for the generated key column. Bool columns get their own
/// (smaller) predicate menu.
fn predicate(dtype: u8, pred_kind: u8, a: i64, b: i64) -> String {
    if dtype == 3 {
        return match pred_kind % 4 {
            0 => "k = TRUE".into(),
            1 => "k = FALSE".into(),
            2 => "k IS NULL".into(),
            _ => "k IS NOT NULL".into(),
        };
    }
    let (lo, hi) = (a.min(b), a.max(b));
    let lit = |x: i64| {
        if dtype == 1 {
            format!("{x}.5")
        } else {
            x.to_string()
        }
    };
    match pred_kind % 7 {
        0 => format!("k >= {}", lit(a)),
        1 => format!("k < {}", lit(a)),
        2 => format!("k = {}", lit(a)),
        3 => format!("k BETWEEN {} AND {}", lit(lo), lit(hi)),
        4 => format!("k IN ({}, {}, {})", lit(a), lit(b), lit(a + 7)),
        5 => "k IS NULL".into(),
        _ => format!("k IS NOT NULL AND k > {}", lit(a)),
    }
}

fn run_both(db: &Database, sql: &str) -> (Relation, Relation, u64) {
    let on = EngineConfig::default();
    let off = EngineConfig {
        zone_prune: false,
        ..EngineConfig::default()
    };
    let (pruned, trace) = db.execute_sql_traced(sql, &on).unwrap();
    let (full, t_off) = db.execute_sql_traced(sql, &off).unwrap();
    assert_eq!(t_off.metrics.morsels_pruned, 0);
    (pruned, full, trace.metrics.morsels_pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruned and unpruned scans agree bit-for-bit on every dtype, NULL
    /// pattern, distribution and predicate shape.
    #[test]
    fn pruning_is_result_identical(
        n in 1usize..12_000,
        domain in 1i64..500,
        clustered in 0u8..2,
        null_every in 0usize..6,
        dtype in 0u8..4,
        pred_kind in 0u8..8,
        a in -50i64..550,
        b in -50i64..550,
    ) {
        let db = Database::new();
        db.register(
            "t",
            table_of(key_column(dtype, n, domain, clustered == 1, null_every)),
        );
        let sql = format!("SELECT k, v FROM t WHERE {}", predicate(dtype, pred_kind, a, b));
        let (pruned, full, _) = run_both(&db, &sql);
        prop_assert!(
            pruned.approx_eq(&full, 0.0),
            "pruned scan diverged for {sql}: {:?}",
            pruned.diff(&full, 0.0)
        );
    }

    /// Clustered data + selective range ⇒ morsels actually get pruned (the
    /// counters are live, not decorative).
    #[test]
    fn clustered_selective_scans_prune(
        n in 9_000usize..20_000,
        frac in 1i64..10,
    ) {
        let db = Database::new();
        db.register("t", table_of(key_column(0, n, 1_000_000, true, 0)));
        let sql = format!("SELECT v FROM t WHERE k < {}", 1_000_000 * frac / 100);
        let (pruned, full, pruned_zones) = run_both(&db, &sql);
        prop_assert!(pruned.approx_eq(&full, 0.0));
        prop_assert!(pruned_zones > 0, "no zones pruned for {sql}");
    }

    /// A date range written with string literals — the form sqlgen emits —
    /// prunes a date-sorted table like the typed form does: the binder
    /// types the strings once, so the zone tests compare dates to dates.
    #[test]
    fn string_date_ranges_prune_sorted_tables(
        n in 9_000usize..20_000,
        frac in 1i64..10,
    ) {
        let db = Database::new();
        db.register("t", table_of(key_column(2, n, 10_000, true, 0)));
        let (lo, hi) = (10_000 * frac / 100, 10_000 * (frac + 1) / 100);
        let day = |d: i64| pytond_common::date::format(d as i32);
        for pred in [
            format!("k >= '{}' AND k < '{}'", day(lo), day(hi)),
            format!("k BETWEEN '{}' AND '{}'", day(lo), day(hi)),
            format!("'{}' > k", day(lo)),
        ] {
            let sql = format!("SELECT v FROM t WHERE {pred}");
            let plan = db.explain_sql(&sql).unwrap();
            prop_assert!(plan.contains("Date(") && !plan.contains("Str("), "{plan}");
            let (pruned, full, pruned_zones) = run_both(&db, &sql);
            prop_assert!(pruned.approx_eq(&full, 0.0));
            prop_assert!(pruned.num_rows() > 0, "empty result for {sql}");
            prop_assert!(pruned_zones > 0, "no zones pruned for {sql}");
        }
    }

    /// Loading one relation in several batches yields the same statistics
    /// (and the same pruned query results) as loading it in one shot.
    #[test]
    fn batched_loads_match_single_load(
        n in 2usize..10_000,
        cut_a in 1usize..9_999,
        cut_b in 1usize..9_999,
        dtype in 0u8..4,
        null_every in 0usize..6,
        probe in 0i64..700,
    ) {
        let col = key_column(dtype, n, 700, false, null_every);
        let rel = table_of(col);
        let (c1, c2) = (cut_a % n, cut_b % n);
        let (c1, c2) = (c1.min(c2).max(1), c1.max(c2).max(1));

        let whole = Database::new();
        whole.register("t", rel.clone());
        let batched = Database::new();
        batched.register("t", slice_rel(&rel, 0, c1));
        if c2 > c1 {
            batched.append("t", &slice_rel(&rel, c1, c2)).unwrap();
        }
        batched.append("t", &slice_rel(&rel, c1.max(c2), n)).unwrap();

        let (ta, tb) = (whole.table("t").unwrap(), batched.table("t").unwrap());
        assert_same_stats(ta.stats.as_ref().unwrap(), tb.stats.as_ref().unwrap(), "batched");
        let sql = if dtype == 3 {
            "SELECT v FROM t WHERE k = TRUE".to_string()
        } else {
            format!("SELECT v FROM t WHERE k >= {probe}")
        };
        let ra = whole.execute_sql(&sql, &EngineConfig::default()).unwrap();
        let rb = batched.execute_sql(&sql, &EngineConfig::default()).unwrap();
        prop_assert!(ra.approx_eq(&rb, 0.0));
    }
}

/// Row count, and per column null count, global bounds, zone maps (zone for
/// zone) and distinct estimate, equal.
fn assert_same_stats(bulk: &TableStats, got: &TableStats, context: &str) {
    assert_eq!(bulk.row_count, got.row_count, "{context}: row count");
    for (i, (a, b)) in bulk.columns.iter().zip(&got.columns).enumerate() {
        assert_eq!(a.null_count, b.null_count, "{context}: column {i} nulls");
        assert_eq!(a.min, b.min, "{context}: column {i} min");
        assert_eq!(a.max, b.max, "{context}: column {i} max");
        assert_eq!(a.zones, b.zones, "{context}: column {i} zones");
        assert_eq!(
            a.distinct_estimate(),
            b.distinct_estimate(),
            "{context}: column {i} distinct estimate"
        );
    }
}

/// `n` rows from `start` of a table with an int key, a float holding NaNs,
/// a date, and a string column whose vocabulary grows with the row number
/// (so later appends bring strings earlier rows never had); every column
/// has NULLs.
fn chunk_rows(start: usize, n: usize) -> Relation {
    let (mut k, mut f, mut d, mut s) = (
        Column::new(DType::Int),
        Column::new(DType::Float),
        Column::new(DType::Date),
        Column::new(DType::Str),
    );
    for i in start..start + n {
        let null = |every: usize| i % every == every - 1;
        let key = ((i as i64).wrapping_mul(7_919)).rem_euclid(1_000);
        let cells = [
            (&mut k, 13, Value::Int(key)),
            (&mut d, 23, Value::Date(key as i32 * 3)),
            (
                &mut s,
                17,
                Value::Str(format!("s{}", (i * 31) % (50 + i / 100))),
            ),
        ];
        for (col, every, v) in cells {
            if null(every) {
                col.push_null();
            } else {
                col.push(v).unwrap();
            }
        }
        let x = if i % 97 == 5 {
            f64::NAN
        } else {
            i as f64 * 0.37 - 900.0
        };
        if null(19) {
            f.push_null()
        } else {
            f.push(Value::Float(x)).unwrap()
        }
    }
    Relation::new(vec![
        ("k".into(), k),
        ("f".into(), f),
        ("d".into(), d),
        ("s".into(), s),
    ])
    .unwrap()
}

/// Appends across storage-chunk boundaries: base tables of k·Z − 1, k·Z and
/// k·Z + 1 rows (Z = `ZONE_ROWS`, dictionary-encoded and plain) take appends
/// of 0, 1, Z − 1, Z, Z + 1 and 3Z + 5 rows in sequence. After each, the
/// statistics equal a bulk load of the same rows zone for zone, every chunk
/// but the last holds whole zones, and pruned scans agree with the bulk
/// load.
#[test]
fn chunked_appends_keep_bulk_statistics() {
    const Z: usize = ZONE_ROWS;
    for base in [2 * Z - 1, 2 * Z, 2 * Z + 1] {
        for encode in [true, false] {
            let register = |db: &Database, rel: Relation| match encode {
                true => db.register("t", rel),
                false => db.register_plain("t", rel),
            };
            let db = Database::new();
            register(&db, chunk_rows(0, base));
            let mut n = base;
            for k in [0, 1, Z - 1, Z, Z + 1, 3 * Z + 5] {
                db.append("t", &chunk_rows(n, k)).unwrap();
                n += k;
                let context = format!("base {base} encode {encode} +{k}");
                let bulk = Database::new();
                register(&bulk, chunk_rows(0, n));
                let (want, got) = (bulk.table("t").unwrap(), db.table("t").unwrap());
                assert_same_stats(
                    want.stats.as_ref().unwrap(),
                    got.stats.as_ref().unwrap(),
                    &context,
                );
                let chunks = &got.chunks;
                let closed = &chunks[..chunks.len() - 1];
                assert!(closed.iter().all(|c| c.rows.len() % Z == 0), "{context}");
                for sql in [
                    "SELECT k, f, s FROM t WHERE k < 40",
                    "SELECT s, COUNT(*) AS n FROM t WHERE s = 's7' GROUP BY s",
                    "SELECT d FROM t WHERE d IS NULL",
                ] {
                    let cfg = EngineConfig::default();
                    let a = bulk.execute_sql(sql, &cfg).unwrap();
                    let b = db.execute_sql(sql, &cfg).unwrap();
                    // `total_cmp` cell by cell: the float column holds NaNs.
                    let cells = |r: &Relation| -> Vec<Vec<Value>> {
                        let cols = 0..r.num_cols();
                        cols.map(|c| r.column_at(c).iter_values().collect())
                            .collect()
                    };
                    let (ca, cb) = (cells(&a), cells(&b));
                    let same = ca.len() == cb.len()
                        && ca.iter().zip(&cb).all(|(x, y)| {
                            x.len() == y.len()
                                && x.iter().zip(y).all(|(u, v)| u.total_cmp(v).is_eq())
                        });
                    assert!(same, "{context}: {sql}");
                }
            }
        }
    }
}

/// Rows `[start, end)` of a relation as a new relation.
fn slice_rel(rel: &Relation, start: usize, end: usize) -> Relation {
    Relation::new(
        rel.columns()
            .iter()
            .map(|(n, c)| (n.clone(), c.slice(start, end)))
            .collect(),
    )
    .unwrap()
}

/// Float NaN payloads: never satisfy range predicates, never widen zone
/// bounds, and pruned/unpruned row *counts* agree (COUNT avoids NaN-equality
/// comparison noise in the harness itself).
#[test]
fn nan_floats_do_not_break_pruning() {
    let n = 10_000usize;
    let mut col = Column::new(DType::Float);
    for i in 0..n {
        if i % 97 == 0 {
            col.push(Value::Float(f64::NAN)).unwrap();
        } else {
            col.push(Value::Float(i as f64)).unwrap();
        }
    }
    let db = Database::new();
    db.register("t", table_of(col));
    for sql in [
        "SELECT COUNT(*) AS c FROM t WHERE k < 100.0",
        "SELECT COUNT(*) AS c FROM t WHERE k >= 9900.0",
        "SELECT COUNT(*) AS c FROM t WHERE k = 500.0",
    ] {
        let (pruned, full, _) = {
            let on = EngineConfig::default();
            let off = EngineConfig {
                zone_prune: false,
                ..EngineConfig::default()
            };
            (
                db.execute_sql(sql, &on).unwrap(),
                db.execute_sql(sql, &off).unwrap(),
                (),
            )
        };
        assert!(pruned.approx_eq(&full, 0.0), "{sql}");
    }
}

/// No TPC-H plan compares a date column against a string: every date
/// constant sqlgen emits as `'1994-01-01'` is typed at bind time, so
/// EXPLAIN shows `Date(..)` literals and no `Str(..)` that parses as a date.
#[test]
fn tpch_plans_carry_no_string_date_literals() {
    use pytond::{Backend, OptLevel, Pytond};
    let data = pytond_tpch::generate(0.001);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    let mut typed = 0;
    for q in pytond_tpch::all_queries() {
        let prepared = py
            .prepare(q.source, &Backend::hyper_sim(1), OptLevel::O4)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let plan = prepared.explain();
        for lit in plan.split("Str(\"").skip(1) {
            let text = lit.split('"').next().unwrap_or("");
            assert!(
                pytond_common::date::parse(text).is_none(),
                "{}: string date literal '{text}' survived binding:\n{plan}",
                q.name
            );
        }
        typed += plan.matches("Date(").count();
    }
    // Q1/Q3/Q4/Q5/Q6/... all filter on dates: the literals are there, typed.
    assert!(typed >= 20, "only {typed} typed date literals across TPC-H");
}
