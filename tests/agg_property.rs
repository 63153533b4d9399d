//! The columnar aggregation state against a row-at-a-time `Value` fold.
//!
//! For every aggregate × argument (dtype, expression shape) × NULL pattern ×
//! DISTINCT × input size (empty included) × scalar/grouped, the engine's
//! result must equal the obvious fold written here over `Value`s — a
//! reference that shares nothing with `sqldb::agg` — and must be bit-identical
//! at morsel sizes 1 / 4096 / n, at 1 / 2 / 7 threads, fused and
//! materializing. Float data are multiples of 1/4 of small magnitude, so
//! every sum is exact and no fold order can hide behind rounding.

use pytond_repro::common::{Column, DType, Error, Relation, Value};
use pytond_repro::sqldb::{Database, EngineConfig, Profile};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Nulls {
    None,
    Some,
    All,
}

/// `t(g, gs, i, f, f2, d, s, b, keep)`: two group keys (nullable int, string)
/// and one argument column per dtype, NULLs placed by `nulls`; `keep` drives
/// a filter so the fused profile has a pipeline to run.
fn table(rows: usize, nulls: Nulls) -> Relation {
    let null_at = |r: usize, salt: usize| match nulls {
        Nulls::None => false,
        Nulls::Some => (r * 7 + salt) % 5 == 0,
        Nulls::All => true,
    };
    let mut cols: Vec<(String, Column)> = Vec::new();
    let mut put = |name: &str, dtype: DType, salt: usize, f: &dyn Fn(usize) -> Value| {
        let mut c = Column::new(dtype);
        for r in 0..rows {
            if null_at(r, salt) {
                c.push_null();
            } else {
                c.push(f(r)).unwrap();
            }
        }
        cols.push((name.to_string(), c));
    };
    put("g", DType::Int, 1, &|r| Value::Int((r % 7) as i64 - 3));
    put("i", DType::Int, 2, &|r| {
        Value::Int((r as i64 * 37) % 101 - 50)
    });
    put("f", DType::Float, 3, &|r| {
        Value::Float(((r * 13) % 64) as f64 / 4.0 - 8.0)
    });
    put("f2", DType::Float, 4, &|r| {
        Value::Float(((r * 29) % 32) as f64 / 4.0)
    });
    put("d", DType::Date, 5, &|r| {
        Value::Date(9000 + ((r * 11) % 400) as i32)
    });
    put("s", DType::Str, 6, &|r| {
        Value::Str(format!("k{:02}", (r * 17) % 23))
    });
    // Never NULL: the second group key, a boolean argument, the filter.
    cols.push((
        "gs".into(),
        Column::from_str_vec((0..rows).map(|r| format!("s{}", r % 3)).collect()),
    ));
    cols.push((
        "b".into(),
        Column::from_bool((0..rows).map(|r| r % 3 == 0).collect()),
    ));
    cols.push((
        "keep".into(),
        Column::from_i64((0..rows).map(|r| (r % 4) as i64).collect()),
    ));
    Relation::new(cols).unwrap()
}

/// Reads the named column of the row being folded.
type Cell<'a> = &'a dyn Fn(&str) -> Value;

/// One argument: its SQL text, how to compute it from a row, and which
/// aggregates apply to its dtype.
struct Arg {
    sql: &'static str,
    eval: fn(Cell<'_>) -> Value,
    summable: bool,
}

fn num(v: &Value) -> Option<f64> {
    v.as_f64()
}

const ARGS: &[Arg] = &[
    Arg {
        sql: "i",
        eval: |c| c("i"),
        summable: true,
    },
    Arg {
        sql: "f",
        eval: |c| c("f"),
        summable: true,
    },
    Arg {
        sql: "d",
        eval: |c| c("d"),
        summable: false,
    },
    Arg {
        sql: "s",
        eval: |c| c("s"),
        summable: false,
    },
    Arg {
        sql: "b",
        eval: |c| c("b"),
        summable: false,
    },
    // Float ∘ float over bare columns: folded straight from the input slices
    // when neither has NULLs, evaluated per morsel otherwise.
    Arg {
        sql: "f * f2",
        eval: |c| match (num(&c("f")), num(&c("f2"))) {
            (Some(a), Some(b)) => Value::Float(a * b),
            _ => Value::Null,
        },
        summable: true,
    },
    Arg {
        sql: "f2 - f",
        eval: |c| match (num(&c("f2")), num(&c("f"))) {
            (Some(a), Some(b)) => Value::Float(a - b),
            _ => Value::Null,
        },
        summable: true,
    },
    // Mixed and literal operands go through the general kernels.
    Arg {
        sql: "i * f",
        eval: |c| match (c("i"), num(&c("f"))) {
            (Value::Int(a), Some(b)) => Value::Float(a as f64 * b),
            _ => Value::Null,
        },
        summable: true,
    },
    Arg {
        sql: "i + 1",
        eval: |c| match c("i") {
            Value::Int(a) => Value::Int(a + 1),
            _ => Value::Null,
        },
        summable: true,
    },
];

/// Aggregates every argument takes, then the two only numeric ones take.
const ANY: usize = 5;

/// The aggregates over argument `x`, as SQL, in [`fold`]'s output order.
fn agg_sql(arg: &Arg) -> Vec<String> {
    let x = arg.sql;
    let mut out = vec![
        "COUNT(*)".to_string(),
        format!("COUNT({x})"),
        format!("MIN({x})"),
        format!("MAX({x})"),
        format!("COUNT(DISTINCT {x})"),
    ];
    if arg.summable {
        out.push(format!("SUM({x})"));
        out.push(format!("AVG({x})"));
    }
    out
}

/// Row-at-a-time fold of the same aggregates over the non-NULL values `xs`
/// of one group (`rows` = the group's size).
fn fold(arg: &Arg, rows: usize, xs: &[Value]) -> Vec<Value> {
    let ext = |want: std::cmp::Ordering| {
        let mut best: Option<&Value> = None;
        for x in xs {
            if best.map_or(true, |b| x.sql_cmp(b) == Some(want)) {
                best = Some(x);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    let mut distinct: Vec<&Value> = Vec::new();
    for x in xs {
        // SQL equality: `-0.0` (which `0 * f` produces) is the value `0.0`.
        if !distinct
            .iter()
            .any(|d| d.sql_cmp(x) == Some(std::cmp::Ordering::Equal))
        {
            distinct.push(x);
        }
    }
    let mut out = vec![
        Value::Int(rows as i64),
        Value::Int(xs.len() as i64),
        ext(std::cmp::Ordering::Less),
        ext(std::cmp::Ordering::Greater),
        Value::Int(distinct.len() as i64),
    ];
    if arg.summable {
        let all_int = xs.iter().all(|x| matches!(x, Value::Int(_)));
        let total: f64 = xs.iter().map(|x| x.as_f64().unwrap()).sum();
        out.push(match xs.len() {
            0 => Value::Null,
            _ if all_int => Value::Int(xs.iter().map(|x| x.as_i64().unwrap()).sum()),
            _ => Value::Float(total),
        });
        out.push(match xs.len() {
            0 => Value::Null,
            n => Value::Float(total / n as f64),
        });
    }
    out
}

/// The reference result: group rows (first-occurrence order; `key = None`
/// is scalar aggregation, which yields one row even over no input) and fold.
fn reference(rel: &Relation, arg: &Arg, key: Option<&str>, from: usize) -> Vec<Vec<Value>> {
    let mut groups: Vec<(Value, usize, Vec<Value>)> = Vec::new();
    if key.is_none() {
        groups.push((Value::Null, 0, Vec::new()));
    }
    for r in 0..rel.num_rows() {
        let cell = |name: &str| rel.get(r, name).unwrap();
        if cell("keep") == Value::Int(0) {
            continue;
        }
        let k = key.map_or(Value::Null, &cell);
        let at = match groups.iter().position(|(g, ..)| g.total_cmp(&k).is_eq()) {
            Some(at) => at,
            None => {
                groups.push((k, 0, Vec::new()));
                groups.len() - 1
            }
        };
        groups[at].1 += 1;
        let x = (arg.eval)(&cell);
        if !x.is_null() {
            groups[at].2.push(x);
        }
    }
    groups
        .into_iter()
        .map(|(k, rows, xs)| {
            let mut row = if key.is_some() { vec![k] } else { Vec::new() };
            row.extend(fold(arg, rows, &xs).split_off(from));
            row
        })
        .collect()
}

fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
    (0..rel.num_rows())
        .map(|r| {
            (0..rel.num_cols())
                .map(|c| rel.column_at(c).get(r))
                .collect()
        })
        .collect()
}

/// Exact equality: `total_cmp` distinguishes every float bit pattern the
/// engine can produce here, and NULL equals only NULL.
fn assert_same(what: &str, want: &[Vec<Value>], got: &[Vec<Value>]) {
    assert_eq!(
        want.len(),
        got.len(),
        "{what}: row count\n{want:?}\n{got:?}"
    );
    for (r, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.len(), g.len(), "{what}: column count");
        for (c, (w, g)) in w.iter().zip(g).enumerate() {
            assert!(
                w.total_cmp(g).is_eq(),
                "{what}: cell ({r}, {c}): want {w:?}, got {g:?}"
            );
        }
    }
}

#[test]
fn columnar_aggregation_equals_the_value_fold_under_every_grid() {
    for rows in [0usize, 1, 700] {
        for nulls in [Nulls::None, Nulls::Some, Nulls::All] {
            let rel = table(rows, nulls);
            let db = Database::new();
            db.register("t", rel.clone());
            // Every aggregate of an argument in one query; then, for numeric
            // arguments, the sums alone — an argument only sums consume takes
            // the no-materialization path when it is `float ∘ float`.
            let cases = ARGS
                .iter()
                .map(|a| (a, 0))
                .chain(ARGS.iter().filter(|a| a.summable).map(|a| (a, ANY)));
            for (arg, from) in cases {
                for key in [None, Some("g"), Some("gs")] {
                    let select = agg_sql(arg).split_off(from).join(", ");
                    let sql = match key {
                        None => format!("SELECT {select} FROM t WHERE keep > 0"),
                        Some(k) => {
                            format!("SELECT {k}, {select} FROM t WHERE keep > 0 GROUP BY {k}")
                        }
                    };
                    let want = reference(&rel, arg, key, from);
                    for profile in [Profile::Vectorized, Profile::Fused] {
                        for morsel in [1, 4096, rows.max(1)] {
                            for threads in [1, 2, 7] {
                                let config = EngineConfig {
                                    profile,
                                    threads,
                                    morsel,
                                    ..EngineConfig::default()
                                };
                                let got = db.execute_sql(&sql, &config).unwrap_or_else(|e| {
                                    panic!("{sql} [{rows} rows, {nulls:?}, {config:?}]: {e}")
                                });
                                let what = format!(
                                    "{sql} [{rows} rows, {nulls:?}, {profile:?}, morsel {morsel}, {threads}t]"
                                );
                                assert_same(&what, &want, &rows_of(&got));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `t(k, v)` with v = 10, 10, 20 for k = 1 and v = 5 for k = 2.
fn kv_db() -> Database {
    let db = Database::new();
    let kv = Relation::new(vec![
        ("k".into(), Column::from_i64(vec![1, 1, 1, 2])),
        ("v".into(), Column::from_i64(vec![10, 10, 20, 5])),
    ]);
    db.register("t", kv.unwrap());
    db
}

/// An aggregate over DISTINCT values the accumulators cannot compute is
/// refused at bind, not answered with NULL for every group.
fn assert_distinct_refused(func: &str) {
    let sql = format!("SELECT k, {func}(DISTINCT v) AS x FROM t GROUP BY k");
    let err = kv_db().prepare(&sql, Profile::Vectorized).unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{func}: {err}");
    assert!(err.to_string().contains(func), "{func}: {err}");
}

#[test]
fn sum_distinct_is_refused() {
    assert_distinct_refused("SUM");
}

#[test]
fn avg_distinct_is_refused() {
    assert_distinct_refused("AVG");
}

#[test]
fn min_distinct_is_refused() {
    assert_distinct_refused("MIN");
}

#[test]
fn max_distinct_is_refused() {
    assert_distinct_refused("MAX");
}

/// `COUNT(DISTINCT …)` still counts, and `SELECT DISTINCT` — a key-only
/// aggregate — keeps one row per distinct input row in first-occurrence
/// order, with a filter above it pushed through it into the scan.
#[test]
fn count_distinct_and_select_distinct_still_answer() {
    let db = kv_db();
    let cfg = EngineConfig::default();
    let sql = "SELECT k, COUNT(DISTINCT v) AS x FROM t GROUP BY k";
    let counts = db.execute_sql(sql, &cfg).unwrap();
    assert_eq!(counts.column("x").unwrap().as_int(), [2, 1]);
    let rows = db.execute_sql("SELECT DISTINCT k, v FROM t", &cfg).unwrap();
    assert_eq!(rows.column("k").unwrap().as_int(), [1, 1, 2]);
    assert_eq!(rows.column("v").unwrap().as_int(), [10, 20, 5]);
    assert!(db
        .explain_sql("SELECT DISTINCT k, v FROM t")
        .unwrap()
        .contains("Aggregate [2 groups, 0 aggs]"));
    let above = "SELECT k, v FROM (SELECT DISTINCT k, v FROM t) d WHERE v > 5";
    let plan = db.explain_sql(above).unwrap();
    assert!(plan.contains("Scan t [2 cols] where"), "{plan}");
    let rows = db.execute_sql(above, &cfg).unwrap();
    assert_eq!(rows.column("v").unwrap().as_int(), [10, 20]);
}
