//! Property tests for the typed vectorized kernels and the fixed-width key
//! packing: every typed fast path must stay **bit-identical** to the
//! row-at-a-time `Value`-based reference evaluator across dtypes, null masks
//! and selection vectors (including f64 NaN / `-0.0`), and fixed-width key
//! packing must partition rows exactly like the byte-encoded fallback
//! (including the NULL-vs-zero edge the folded validity bit exists for).
//!
//! Literal operands get the same treatment: every (operator × column dtype ×
//! literal dtype × literal side) column-vs-scalar kernel must equal the
//! reference evaluator over the literal broadcast to a column; bind-time
//! literal typing (date strings, int-vs-float) must leave `Value::sql_cmp`
//! semantics untouched through comparisons, `IN` and `BETWEEN`; and the
//! execution-scoped dictionary predicate tables must produce the same rows
//! at every morsel size, thread count and profile as plain strings do —
//! one table per predicate per execution, never one per morsel.

use proptest::prelude::*;
use pytond_common::hash::{encode_value, sql_key_encodings, FixedKeySpec, KeyArena, KeyWidth};
use pytond_common::{date, Column, DType, Relation, Value};
use pytond_sqldb::ast::BinOp;
use pytond_sqldb::exec::planned_key_width;
use pytond_sqldb::expr::{eval_bin, reference, BExpr, LikePattern};
use pytond_sqldb::table::Batch;
use pytond_sqldb::{Database, EngineConfig, Profile};

mod common;
use common::cols_bit_identical;

/// Builds an Int column; selector 0 → NULL.
fn int_col(rows: &[(u8, i64)]) -> Column {
    let mut c = Column::new(DType::Int);
    for (sel, v) in rows {
        if *sel == 0 {
            c.push_null();
        } else {
            c.push(Value::Int(*v)).unwrap();
        }
    }
    c
}

/// Builds a Float column; selector 0 → NULL, 1 → NaN, 2 → -0.0, 3 → 0.0.
fn float_col(rows: &[(u8, f64)]) -> Column {
    let mut c = Column::new(DType::Float);
    for (sel, v) in rows {
        match sel {
            0 => c.push_null(),
            1 => c.push(Value::Float(f64::NAN)).unwrap(),
            2 => c.push(Value::Float(-0.0)).unwrap(),
            3 => c.push(Value::Float(0.0)).unwrap(),
            _ => c.push(Value::Float(*v)).unwrap(),
        }
    }
    c
}

/// Builds a Date column; selector 0 → NULL.
fn date_col(rows: &[(u8, i64)]) -> Column {
    let mut c = Column::new(DType::Date);
    for (sel, v) in rows {
        if *sel == 0 {
            c.push_null();
        } else {
            c.push(Value::Date((*v % 50_000) as i32)).unwrap();
        }
    }
    c
}

/// Builds a Str column from a small alphabet; selector 0 → NULL.
fn str_col(rows: &[(u8, i64)]) -> Column {
    let mut c = Column::new(DType::Str);
    for (sel, v) in rows {
        if *sel == 0 {
            c.push_null();
        } else {
            c.push(Value::Str(format!("s{}", v.rem_euclid(12))))
                .unwrap();
        }
    }
    c
}

const ARITH: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
const CMP: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

type Evaluated = pytond_common::Result<Column>;

/// Kernel and reference must agree: both fail, or both yield bit-identical
/// columns.
fn same_outcome(what: &str, fast: Evaluated, slow: Evaluated) -> Result<(), String> {
    match (fast, slow) {
        (Ok(f), Ok(s)) if cols_bit_identical(&f, &s) => Ok(()),
        (Ok(f), Ok(s)) => Err(format!("{what} diverged: {f:?} vs {s:?}")),
        (Err(_), Err(_)) => Ok(()),
        (f, s) => Err(format!("{what} error mismatch: {f:?} vs {s:?}")),
    }
}

fn assert_matches_reference(ops: &[BinOp], l: &Column, r: &Column) -> Result<(), String> {
    for &op in ops {
        same_outcome(
            &format!("{op:?}"),
            eval_bin(op, l, r),
            reference::eval_bin(op, l, r),
        )?;
    }
    Ok(())
}

/// Builds a Bool column; selector 0 → NULL.
fn bool_col(rows: &[(u8, i64)]) -> Column {
    let mut c = Column::new(DType::Bool);
    for (sel, v) in rows {
        if *sel == 0 {
            c.push_null();
        } else {
            c.push(Value::Bool(v % 2 == 0)).unwrap();
        }
    }
    c
}

/// Every column dtype (strings both plain and dictionary-encoded) over one
/// row recipe.
fn all_cols(rows: &[(u8, i64, u8, f64)]) -> Vec<Column> {
    let i: Vec<(u8, i64)> = rows.iter().map(|r| (r.0, r.1)).collect();
    let f: Vec<(u8, f64)> = rows.iter().map(|r| (r.2, r.3)).collect();
    vec![
        int_col(&i),
        float_col(&f),
        date_col(&i),
        bool_col(&i),
        str_col(&i),
        str_col(&i).encode_str(),
    ]
}

/// A non-null literal broadcast to `n` rows — what the scalar kernels must
/// be indistinguishable from.
fn lit_col(v: &Value, n: usize) -> Column {
    let mut c = Column::with_capacity(v.dtype().expect("non-null literal"), n);
    for _ in 0..n {
        c.push(v.clone()).unwrap();
    }
    c
}

/// `col op lit` and `lit op col` through [`BExpr::eval`] (the scalar
/// kernels) against the reference evaluator over the broadcast literal.
fn assert_scalar_matches_reference(ops: &[BinOp], col: &Column, lit: &Value) -> Result<(), String> {
    let batch = Batch::from_columns(vec![col.clone()]);
    let litc = lit_col(lit, col.len());
    for &op in ops {
        for lit_left in [false, true] {
            let (l, r) = (BExpr::Col(0), BExpr::Lit(lit.clone()));
            let (l, r) = if lit_left { (r, l) } else { (l, r) };
            let e = BExpr::Bin {
                op,
                l: Box::new(l),
                r: Box::new(r),
            };
            let slow = if lit_left {
                reference::eval_bin(op, &litc, col)
            } else {
                reference::eval_bin(op, col, &litc)
            };
            same_outcome(
                &format!("{e} over {:?}", col.dtype()),
                e.eval(&batch, None),
                slow,
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arithmetic kernels over every numeric column pair, with nulls and
    /// float specials mixed in.
    #[test]
    fn arith_kernels_match_reference(
        rows in prop::collection::vec(
            (0u8..6, -1000i64..1000, 0u8..8, -1e6f64..1e6), 0..80),
    ) {
        let li: Vec<(u8, i64)> = rows.iter().map(|r| (r.0, r.1)).collect();
        let lf: Vec<(u8, f64)> = rows.iter().map(|r| (r.2, r.3)).collect();
        let ri: Vec<(u8, i64)> = rows.iter().map(|r| (r.2, r.1.wrapping_mul(3) % 500)).collect();
        let rf: Vec<(u8, f64)> = rows.iter().map(|r| (r.0, r.3 * 0.5 - 17.0)).collect();
        let (a, b) = (int_col(&li), int_col(&ri));
        let (x, y) = (float_col(&lf), float_col(&rf));
        let (d, e) = (date_col(&li), date_col(&ri));
        prop_assert!(assert_matches_reference(&ARITH, &a, &b).is_ok());
        prop_assert!(assert_matches_reference(&ARITH, &x, &y).is_ok());
        prop_assert!(assert_matches_reference(&ARITH, &a, &y).is_ok());
        prop_assert!(assert_matches_reference(&ARITH, &x, &b).is_ok());
        // Date ± Int, Date - Date, and the widening fallbacks.
        prop_assert!(assert_matches_reference(&ARITH, &d, &b).is_ok());
        prop_assert!(assert_matches_reference(&ARITH, &d, &e).is_ok());
        prop_assert!(assert_matches_reference(&ARITH, &a, &e).is_ok());
    }

    /// Comparison kernels over every typed pair, NULL collapsing to false.
    #[test]
    fn cmp_kernels_match_reference(
        rows in prop::collection::vec(
            (0u8..6, -50i64..50, 0u8..8, -100.0f64..100.0), 0..80),
    ) {
        let li: Vec<(u8, i64)> = rows.iter().map(|r| (r.0, r.1)).collect();
        let lf: Vec<(u8, f64)> = rows.iter().map(|r| (r.2, r.3)).collect();
        let ri: Vec<(u8, i64)> = rows.iter().map(|r| (r.2, -r.1)).collect();
        let rf: Vec<(u8, f64)> = rows.iter().map(|r| (r.0, r.3.floor())).collect();
        let (a, b) = (int_col(&li), int_col(&ri));
        let (x, y) = (float_col(&lf), float_col(&rf));
        let (d, e) = (date_col(&li), date_col(&ri));
        let (s, t) = (str_col(&li), str_col(&ri));
        prop_assert!(assert_matches_reference(&CMP, &a, &b).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &x, &y).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &a, &y).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &x, &b).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &d, &e).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &a, &e).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &d, &b).is_ok());
        prop_assert!(assert_matches_reference(&CMP, &s, &t).is_ok());
    }

    /// Concat: string-string fast path and the Display fallback.
    #[test]
    fn concat_kernel_matches_reference(
        rows in prop::collection::vec((0u8..4, -50i64..50), 0..60),
    ) {
        let s = str_col(&rows);
        let t = str_col(&rows.iter().map(|r| (r.1.unsigned_abs() as u8 % 3, r.1 + 1)).collect::<Vec<_>>());
        let i = int_col(&rows);
        prop_assert!(assert_matches_reference(&[BinOp::Concat], &s, &t).is_ok());
        prop_assert!(assert_matches_reference(&[BinOp::Concat], &s, &i).is_ok());
        prop_assert!(assert_matches_reference(&[BinOp::Concat], &i, &s).is_ok());
    }

    /// IN-list typed fast paths agree with row-wise `sql_cmp` semantics.
    #[test]
    fn in_list_matches_rowwise_semantics(
        rows in prop::collection::vec((0u8..4, -20i64..20), 1..60),
        cands in prop::collection::vec(-20i64..20, 0..6),
        negated in 0u8..2,
    ) {
        let negated = negated == 1;
        let floats: Vec<(u8, f64)> = rows.iter().map(|r| (r.0 * 2, r.1 as f64 * 0.5)).collect();
        let date_strs = |i: usize, v: i64| {
            // Parsable and unparsable date strings: the row-wise fallback.
            if i % 2 == 0 { Value::Str(date::format(v as i32)) } else { Value::Str(format!("s{v}")) }
        };
        let cols = [
            (int_col(&rows), 0),
            (date_col(&rows), 0),
            (str_col(&rows), 0),
            (str_col(&rows).encode_str(), 0),
            (float_col(&floats), 0),
            (date_col(&rows), 1),
        ];
        for (col, variant) in cols {
            let list: Vec<Value> = match (col.dtype(), variant) {
                (DType::Int, _) => cands.iter().map(|&v| Value::Int(v)).collect(),
                // Mixed Int/Date candidates exercise the i64 unification.
                (DType::Date, 0) => cands.iter().enumerate().map(|(i, &v)| {
                    if i % 2 == 0 { Value::Date(v as i32) } else { Value::Int(v) }
                }).collect(),
                (DType::Date, _) => cands.iter().enumerate().map(|(i, &v)| date_strs(i, v)).collect(),
                // Int-vs-Float candidates against a float column.
                (DType::Float, _) => cands.iter().enumerate().map(|(i, &v)| {
                    if i % 2 == 0 { Value::Int(v) } else { Value::Float(v as f64 * 0.5) }
                }).collect(),
                _ => cands.iter().map(|&v| Value::Str(format!("s{}", v.rem_euclid(12)))).collect(),
            };
            let batch = Batch::from_columns(vec![col.clone()]);
            let e = BExpr::InList {
                e: Box::new(BExpr::Col(0)),
                list: list.clone(),
                negated,
            };
            let got = e.eval_mask(&batch, None).unwrap();
            let want: Vec<bool> = (0..col.len())
                .map(|i| {
                    let v = col.get(i);
                    if v.is_null() {
                        return false;
                    }
                    list.iter().any(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Equal))
                        != negated
                })
                .collect();
            prop_assert!(got == want, "IN-list diverged: {got:?} vs {want:?}");
        }
    }

    /// Comparison kernels with a literal operand: every column dtype ×
    /// literal dtype × side, NULL rows and NaN on both sides, `Ne` included,
    /// Int-vs-Float literals, parsable and unparsable date strings.
    #[test]
    fn scalar_cmp_kernels_match_reference(
        rows in prop::collection::vec(
            (0u8..6, -50i64..50, 0u8..8, -100.0f64..100.0), 1..80),
        k in -50i64..50,
        x in -100.0f64..100.0,
    ) {
        let lits = [
            Value::Int(k),
            Value::Float(x),
            Value::Float(k as f64),
            Value::Float(f64::NAN),
            Value::Date(k as i32),
            Value::Bool(k % 2 == 0),
            Value::Str(format!("s{}", k.rem_euclid(12))),
            Value::Str(date::format(k as i32)),
            Value::Str("1994-13-45".into()),
        ];
        for col in all_cols(&rows) {
            for lit in &lits {
                let checked = assert_scalar_matches_reference(&CMP, &col, lit);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }
        }
    }

    /// Arithmetic kernels with a literal operand on either side, over every
    /// numeric-like column and literal (strings error identically and are
    /// pinned by the engine's unit tests).
    #[test]
    fn scalar_arith_kernels_match_reference(
        rows in prop::collection::vec(
            (0u8..6, -1000i64..1000, 0u8..8, -1e6f64..1e6), 1..80),
        k in -40i64..40,
        x in -1e3f64..1e3,
    ) {
        let lits = [
            Value::Int(k),
            Value::Int(0),
            Value::Float(x),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Date(k as i32),
            Value::Bool(k % 2 == 0),
        ];
        for col in all_cols(&rows).into_iter().take(4) {
            for lit in &lits {
                let checked = assert_scalar_matches_reference(&ARITH, &col, lit);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }
        }
    }

    /// Concatenation with a literal operand: string, dictionary and
    /// `Display`-formatted columns, literal on either side.
    #[test]
    fn scalar_concat_matches_reference(
        rows in prop::collection::vec((0u8..4, -50i64..50, 0u8..8, -9.0f64..9.0), 1..40),
        k in -50i64..50,
    ) {
        let lits = [
            Value::Str(format!("<{k}>")),
            Value::Int(k),
            Value::Float(k as f64 * 0.5),
            Value::Date(k as i32),
        ];
        for col in all_cols(&rows) {
            for lit in &lits {
                let checked = assert_scalar_matches_reference(&[BinOp::Concat], &col, lit);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }
        }
    }

    /// Bind-time literal typing is invisible: comparisons, `IN` and
    /// `BETWEEN` written with string dates / integer constants select exactly
    /// the rows `Value::sql_cmp` selects with the literals as written, under
    /// both executors. The string predicates — `LIKE`, string `IN`, literal
    /// comparisons — run over the same strings stored dictionary-encoded and
    /// plain, against the row-at-a-time meaning.
    #[test]
    fn typed_literals_keep_sql_cmp_semantics(
        rows in prop::collection::vec((0u8..5, 0i64..120, 0u8..8, -3.0f64..9.0), 1..60),
        a in 0i64..120,
        b in 0i64..120,
    ) {
        let d = date_col(&rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>());
        let f = float_col(&rows.iter().map(|r| (r.2, r.3)).collect::<Vec<_>>());
        let mut s = Column::new(DType::Str);
        for r in &rows {
            match r.2 {
                0 => s.push_null(),
                _ => s.push(Value::Str(format!("k{:03}", r.1))).unwrap(),
            }
        }
        let n = rows.len();
        let rel = Relation::new(vec![
            ("d".into(), d.clone()),
            ("f".into(), f.clone()),
            ("s".into(), s.clone()),
            ("v".into(), Column::from_i64((0..n as i64).collect())),
        ]).unwrap();
        let (encoded, plain) = (Database::new(), Database::new());
        encoded.register("t", rel.clone());
        plain.register_plain("t", rel);
        let day = |x: i64| Value::Str(date::format(x as i32));
        let junk = || Value::Str("soon".into());
        let key = |x: i64| Value::Str(format!("k{x:03}"));
        let (lo, hi) = (a.min(b), a.max(b));
        let preds = [
            Pred::Cmp("d", BinOp::Ge, day(a), false),
            Pred::Cmp("d", BinOp::Lt, day(a), true),
            Pred::Cmp("d", BinOp::Ne, day(a), false),
            Pred::Cmp("d", BinOp::Ne, junk(), false),
            Pred::Cmp("d", BinOp::Eq, junk(), true),
            Pred::Between("d", day(lo), day(hi), false),
            Pred::Between("d", day(lo), day(hi), true),
            Pred::Between("d", day(lo), junk(), false),
            Pred::In("d", vec![day(a), junk(), day(b)], false),
            Pred::In("d", vec![day(a), day(b)], true),
            Pred::Cmp("f", BinOp::Gt, Value::Int(a % 9), false),
            Pred::Cmp("f", BinOp::Le, Value::Int(a % 9), true),
            Pred::Cmp("f", BinOp::Ne, Value::Int(0), false),
            Pred::Between("f", Value::Int(lo % 9 - 3), Value::Int(hi % 9), false),
            Pred::In("f", vec![Value::Int(0), Value::Float(2.5), Value::Int(a % 9)], false),
            Pred::In("f", vec![Value::Int(0), Value::Int(b % 9)], true),
            Pred::Like("s", format!("k{}%", a / 100), false),
            Pred::Like("s", format!("%{}", b % 10), true),
            Pred::Like("s", format!("k_{}%", a % 10), false),
            Pred::Like("s", "%1%".into(), false),
            Pred::In("s", vec![key(a), key(b), Value::Str("nope".into())], false),
            Pred::In("s", vec![key(a), key(b)], true),
            Pred::Cmp("s", BinOp::Ge, key(a), false),
            Pred::Cmp("s", BinOp::Lt, key(b), true),
            Pred::Cmp("s", BinOp::Eq, key(a), false),
            Pred::Cmp("s", BinOp::Ne, key(b), false),
        ];
        for p in &preds {
            let col = match p.column() {
                "d" => &d,
                "f" => &f,
                _ => &s,
            };
            let want: Vec<i64> = (0..n).filter(|&i| p.holds(&col.get(i))).map(|i| i as i64).collect();
            let sql = format!("SELECT v FROM t WHERE {}", p.sql());
            for (db, what) in [(&encoded, "encoded"), (&plain, "plain")] {
                for profile in [Profile::Vectorized, Profile::Fused] {
                    let cfg = EngineConfig { profile, threads: 1, ..EngineConfig::default() };
                    let got = db.execute_sql(&sql, &cfg).unwrap();
                    prop_assert!(
                        got.column("v").unwrap().as_int() == want.as_slice(),
                        "{sql} under {profile:?} ({what}): {:?} vs {want:?}", got.column("v").unwrap()
                    );
                }
            }
        }
    }

    /// Evaluating under a selection vector equals full evaluation + gather.
    #[test]
    fn selection_vector_matches_gather(
        rows in prop::collection::vec((0u8..6, -100i64..100, 0u8..8, -1e3f64..1e3), 1..60),
        picks in prop::collection::vec(0usize..1000, 0..40),
    ) {
        let li: Vec<(u8, i64)> = rows.iter().map(|r| (r.0, r.1)).collect();
        let lf: Vec<(u8, f64)> = rows.iter().map(|r| (r.2, r.3)).collect();
        let batch = Batch::from_columns(vec![int_col(&li), float_col(&lf)]);
        let sel: Vec<usize> = picks.iter().map(|p| p % rows.len()).collect();
        let expr = BExpr::Bin {
            op: BinOp::Mul,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Bin {
                op: BinOp::Add,
                l: Box::new(BExpr::Col(1)),
                r: Box::new(BExpr::Lit(Value::Float(1.5))),
            }),
        };
        let full = expr.eval(&batch, None).unwrap();
        let restricted = expr.eval(&batch, Some(&sel)).unwrap();
        prop_assert!(cols_bit_identical(&restricted, &full.gather(&sel)));
    }

    /// Fixed-width key packing partitions rows exactly like byte encoding —
    /// NULL forms its own group and never collides with 0 (the folded
    /// validity bit), across 1- and 2-column int/date/bool keys.
    #[test]
    fn key_packing_partitions_like_byte_encoding(
        rows in prop::collection::vec((0u8..3, -4i64..4, 0u8..3, 0i64..3), 1..80),
    ) {
        let a = int_col(&rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>());
        let d = date_col(&rows.iter().map(|r| (r.2, r.3)).collect::<Vec<_>>());
        let n = rows.len();
        for cols in [vec![&a], vec![&a, &d], vec![&d]] {
            let spec = FixedKeySpec::plan(&[&cols], true).unwrap();
            let packed_groups: Vec<Vec<usize>> = match spec.width() {
                KeyWidth::U64 => partition(&spec.pack_u64(&cols).0),
                KeyWidth::U128 => partition(&spec.pack_u128(&cols).0),
            };
            // Byte-encoded reference partition.
            let byte_keys: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let mut buf = Vec::new();
                    for c in &cols {
                        encode_value(&mut buf, &c.get(i));
                    }
                    buf
                })
                .collect();
            let byte_groups = partition(&byte_keys);
            prop_assert!(
                packed_groups == byte_groups,
                "partitions diverged: {packed_groups:?} vs {byte_groups:?}"
            );
        }
    }

    /// The executor's layout decision: all-int/date keys take the packed fast
    /// path, strings and floats fall back.
    #[test]
    fn layout_hook_classifies_keys(
        rows in prop::collection::vec((1u8..3, -5i64..5), 1..20),
    ) {
        let i = int_col(&rows);
        let d = date_col(&rows);
        let s = str_col(&rows);
        prop_assert!(planned_key_width(&[&[&i]], true).is_some());
        prop_assert!(planned_key_width(&[&[&i, &d]], true).is_some());
        prop_assert!(planned_key_width(&[&[&i], &[&d]], false).is_some());
        prop_assert!(planned_key_width(&[&[&s]], true).is_none());
        prop_assert!(planned_key_width(&[&[&i, &s]], true).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ORDER BY` compares typed slices (ranks, for dictionary codes); the
    /// order must be `Value::total_cmp`'s per key — NULL first, NaN above
    /// every number, `-0.0` below `0.0` — reversed for `DESC`, ties broken on
    /// original position: over every dtype pair, duplicates everywhere,
    /// plain and dictionary-encoded strings, serial and chunk-sorted.
    #[test]
    fn order_by_matches_value_comparator(
        rows in prop::collection::vec((0u8..6, -4i64..4, 0u8..8, -2.0f64..2.0), 0..260),
        k1 in 0usize..5,
        k2 in 0usize..5,
        dirs in 0u8..4,
    ) {
        let keys = all_cols(&rows);
        let n = rows.len();
        let rel = || {
            let mut cols: Vec<(String, Column)> = keys[..5]
                .iter()
                .enumerate()
                .map(|(i, c)| (format!("c{i}"), c.clone()))
                .collect();
            cols.push(("pos".into(), Column::from_i64((0..n as i64).collect())));
            Relation::new(cols).unwrap()
        };
        let (asc1, asc2) = (dirs & 1 == 0, dirs & 2 == 0);
        let dir = |asc: bool| if asc { "" } else { " DESC" };
        let mut want: Vec<usize> = (0..n).collect();
        want.sort_by(|&a, &b| {
            let by = |k: usize, asc: bool| {
                let ord = keys[k].get(a).total_cmp(&keys[k].get(b));
                if asc { ord } else { ord.reverse() }
            };
            by(k1, asc1).then(by(k2, asc2)).then(a.cmp(&b))
        });
        let sql = format!("SELECT pos FROM t ORDER BY c{k1}{}, c{k2}{}", dir(asc1), dir(asc2));
        let (encoded, plain) = (Database::new(), Database::new());
        encoded.register("t", rel());
        plain.register_plain("t", rel());
        for (db, what) in [(&encoded, "encoded"), (&plain, "plain")] {
            for threads in [1usize, 2, 7] {
                let cfg = EngineConfig { morsel: 16, ..EngineConfig::new(Profile::Vectorized, threads) };
                let got = db.execute_sql(&sql, &cfg).unwrap();
                let got: Vec<usize> = got.column_at(0).as_int().iter().map(|&p| p as usize).collect();
                prop_assert!(got == want, "{sql} ({what}, {threads}t): {got:?} vs {want:?}");
            }
        }
    }
}

/// Already-ordered input is found by one linear pass and comes back as it
/// went in; the reverse order still sorts.
#[test]
fn order_by_over_sorted_input_is_the_identity() {
    let n = 5_000i64;
    let db = Database::new();
    db.register(
        "t",
        Relation::new(vec![
            ("id".into(), Column::from_i64((0..n).collect())),
            (
                "g".into(),
                Column::from_i64((0..n).map(|i| i / 100).collect()),
            ),
        ])
        .unwrap(),
    );
    for threads in [1usize, 2, 7] {
        let cfg = EngineConfig {
            morsel: 256,
            ..EngineConfig::new(Profile::Vectorized, threads)
        };
        for (sql, want) in [
            ("SELECT id FROM t ORDER BY id", (0..n).collect::<Vec<i64>>()),
            ("SELECT id FROM t ORDER BY g, id", (0..n).collect()),
            ("SELECT id FROM t ORDER BY g", (0..n).collect()),
            ("SELECT id FROM t ORDER BY id DESC", (0..n).rev().collect()),
        ] {
            let got = db.execute_sql(sql, &cfg).unwrap();
            assert_eq!(got.column_at(0).as_int(), &want[..], "{sql} @{threads}t");
        }
    }
}

/// SQL key equality must not depend on which layout gets chosen: beyond
/// 2^53, distinct i64 keys collapse under f64 widening, so both the packed
/// path and the SQL byte fallback must compare int keys exactly.
#[test]
fn big_int_keys_consistent_across_layouts() {
    let big = 9_007_199_254_740_992i64; // 2^53: big+1 == big as f64
    let col = Column::from_i64(vec![big, big + 1]);
    let cols = [&col];
    // Packed path: exact.
    let spec = FixedKeySpec::plan(&[&cols], true).unwrap();
    let (keys, _) = spec.pack_u64(&cols);
    assert_ne!(keys[0], keys[1]);
    // SQL byte fallback (as if a string key column forced it): also exact.
    let enc = sql_key_encodings(&[&cols]);
    let arena = KeyArena::encode(&cols, &enc, false);
    assert_ne!(arena.key(0), arena.key(1));
}

/// Groups row indices by key value, ordered by first appearance.
fn partition<K: std::hash::Hash + Eq + Clone>(keys: &[K]) -> Vec<Vec<usize>> {
    let mut order: Vec<K> = Vec::new();
    let mut map: std::collections::HashMap<K, Vec<usize>> = std::collections::HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        let e = map.entry(k.clone()).or_default();
        if e.is_empty() {
            order.push(k.clone());
        }
        e.push(i);
    }
    order.into_iter().map(|k| map.remove(&k).unwrap()).collect()
}

/// A predicate written in SQL with untyped literals, plus its row-at-a-time
/// meaning under `Value::sql_cmp` — the semantics bind-time literal typing
/// must preserve.
enum Pred {
    /// `col op lit`, or `lit op col` when the flag is set.
    Cmp(&'static str, BinOp, Value, bool),
    /// `col [NOT] BETWEEN lo AND hi`.
    Between(&'static str, Value, Value, bool),
    /// `col [NOT] IN (list)`.
    In(&'static str, Vec<Value>, bool),
    /// `col [NOT] LIKE 'pattern'`.
    Like(&'static str, String, bool),
}

/// SQL `LIKE` by backtracking over characters: `%` matches any run, `_`
/// exactly one character.
fn like(p: &[char], s: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|i| like(rest, &s[i..])),
        Some(('_', rest)) => !s.is_empty() && like(rest, &s[1..]),
        Some((c, rest)) => s.first() == Some(c) && like(rest, &s[1..]),
    }
}

/// The LIKE alphabet: two ASCII letters, a two-byte and a three-byte
/// character, and the two wildcards (literal characters in strings).
const LIKE_SYMBOLS: [char; 6] = ['a', 'b', 'é', '日', '%', '_'];

fn like_text(symbols: &[u8]) -> String {
    symbols.iter().map(|&i| LIKE_SYMBOLS[i as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `LikePattern` kernel (equality, anchored substrings, two-pointer
    /// wildcard) ≡ the backtracking reference, per string and through the
    /// `LIKE` / `NOT LIKE` mask over a plain and a dictionary-encoded column
    /// (NULL rows are `false` either way).
    #[test]
    fn like_kernels_match_backtracking_reference(
        pat in prop::collection::vec(0u8..6, 0..9),
        rows in prop::collection::vec((0u8..5, prop::collection::vec(0u8..6, 0..13)), 1..24),
        negated in 0u8..2,
    ) {
        let pattern = like_text(&pat);
        let compiled = LikePattern::compile(&pattern);
        let p: Vec<char> = pattern.chars().collect();
        let mut col = Column::new(DType::Str);
        let mut want = Vec::new();
        for (null, text) in &rows {
            let text = like_text(text);
            let s: Vec<char> = text.chars().collect();
            prop_assert!(
                compiled.matches(&text) == like(&p, &s),
                "{text:?} LIKE {pattern:?}"
            );
            if *null == 0 {
                col.push_null();
                want.push(false);
            } else {
                want.push(like(&p, &s) != (negated == 1));
                col.push(Value::Str(text)).unwrap();
            }
        }
        let expr = BExpr::Like {
            e: Box::new(BExpr::Col(0)),
            pattern: compiled,
            negated: negated == 1,
        };
        for c in [col.clone(), col.encode_str()] {
            let got = expr.eval_mask(&Batch::from_columns(vec![c]), None).unwrap();
            prop_assert!(got == want, "LIKE {pattern:?}: {got:?} vs {want:?}");
        }
    }
}

fn sql_lit(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

impl Pred {
    fn column(&self) -> &'static str {
        match self {
            Pred::Cmp(c, ..) | Pred::Between(c, ..) | Pred::In(c, ..) | Pred::Like(c, ..) => c,
        }
    }

    fn sql(&self) -> String {
        let sym = |op: &BinOp| match op {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            _ => ">=",
        };
        match self {
            Pred::Cmp(c, op, v, false) => format!("{c} {} {}", sym(op), sql_lit(v)),
            Pred::Cmp(c, op, v, true) => format!("{} {} {c}", sql_lit(v), sym(op)),
            Pred::Between(c, lo, hi, neg) => format!(
                "{c} {}BETWEEN {} AND {}",
                if *neg { "NOT " } else { "" },
                sql_lit(lo),
                sql_lit(hi)
            ),
            Pred::In(c, list, neg) => format!(
                "{c} {}IN ({})",
                if *neg { "NOT " } else { "" },
                list.iter().map(sql_lit).collect::<Vec<_>>().join(", ")
            ),
            Pred::Like(c, pat, neg) => {
                format!("{c} {}LIKE '{pat}'", if *neg { "NOT " } else { "" })
            }
        }
    }

    fn holds(&self, x: &Value) -> bool {
        use std::cmp::Ordering::*;
        let cmp = |op: &BinOp, l: &Value, r: &Value| {
            l.sql_cmp(r).is_some_and(|o| match op {
                BinOp::Eq => o == Equal,
                BinOp::Ne => o != Equal,
                BinOp::Lt => o == Less,
                BinOp::Le => o != Greater,
                BinOp::Gt => o == Greater,
                _ => o != Less,
            })
        };
        match self {
            Pred::Cmp(_, op, v, false) => cmp(op, x, v),
            Pred::Cmp(_, op, v, true) => cmp(op, v, x),
            // NOT over a two-valued predicate: NULL rows flip to true, as
            // in the engine (comparisons collapse NULL to false).
            Pred::Between(_, lo, hi, neg) => {
                (cmp(&BinOp::Ge, x, lo) && cmp(&BinOp::Le, x, hi)) != *neg
            }
            Pred::In(_, list, neg) => {
                !x.is_null() && list.iter().any(|v| x.sql_cmp(v) == Some(Equal)) != *neg
            }
            // NULL rows fail LIKE and NOT LIKE alike.
            Pred::Like(_, pat, neg) => match x {
                Value::Str(s) => {
                    let (p, s): (Vec<char>, Vec<char>) =
                        (pat.chars().collect(), s.chars().collect());
                    like(&p, &s) != *neg
                }
                _ => false,
            },
        }
    }
}

/// A dictionary larger than the morsel: the same rows come back at morsel
/// sizes 1 / 4096 / n, threads 1 / 2 / 7, fused and materializing, encoded
/// and plain — and each dictionary predicate builds exactly one table per
/// execution, however many morsels evaluate it.
#[test]
fn dictionary_tables_span_morsels() {
    let n = 9_000usize;
    let distinct = 6_000usize; // > ZONE_ROWS: no morsel sees the whole dictionary
    let mut s = Column::new(DType::Str);
    for i in 0..n {
        if i % 11 == 0 {
            s.push_null();
        } else {
            let k = i.wrapping_mul(2_654_435_761) % distinct;
            s.push(Value::Str(format!("key-{k:05}"))).unwrap();
        }
    }
    let rel = Relation::new(vec![
        ("s".into(), s),
        ("v".into(), Column::from_i64((0..n as i64).collect())),
    ])
    .unwrap();
    let (encoded, plain) = (Database::new(), Database::new());
    encoded.register("t", rel.clone());
    plain.register_plain("t", rel);
    let predicates = [
        ("s LIKE '%7'", 1),
        ("s NOT LIKE 'key-00%'", 1),
        ("s >= 'key-03000'", 1),
        ("'key-01000' > s", 1),
        ("s IN ('key-00001', 'key-04242', 'nope')", 1),
        ("s NOT IN ('key-00001', 'key-04242')", 1),
        ("s LIKE '%1' OR s = 'key-00002'", 2),
    ];
    for (pred, tables) in predicates {
        let sql = format!("SELECT v FROM t WHERE {pred}");
        let oracle_cfg = EngineConfig {
            profile: Profile::Vectorized,
            threads: 1,
            ..EngineConfig::default()
        };
        let want = plain.execute_sql(&sql, &oracle_cfg).unwrap();
        for morsel in [1, 4096, n] {
            for threads in [1, 2, 7] {
                for profile in [Profile::Fused, Profile::Vectorized] {
                    let cfg = EngineConfig {
                        profile,
                        threads,
                        morsel,
                        ..EngineConfig::default()
                    };
                    let (got, trace) = encoded.execute_sql_traced(&sql, &cfg).unwrap();
                    let what = format!("{pred} / {profile:?} / morsel {morsel} / {threads}t");
                    assert_eq!(
                        got.column("v").unwrap().as_int(),
                        want.column("v").unwrap().as_int(),
                        "{what}"
                    );
                    assert_eq!(trace.metrics.dict_pred_tables, tables, "{what}");
                }
            }
        }
    }
}

/// TPC-H Q13 at SF 0.01: `o_comment NOT LIKE '%special%requests%'` runs
/// over a 15 K-row scan in four zone morsels against a dictionary larger
/// than any of them, and builds exactly one table — not one per morsel.
#[test]
fn q13_builds_one_dictionary_table() {
    use pytond::{Backend, OptLevel, Pytond};
    let data = pytond_tpch::generate(0.01);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    let q = pytond_tpch::query(13);
    for profile in [Profile::Fused, Profile::Vectorized] {
        for threads in [1, 2] {
            let backend = Backend {
                profile,
                threads,
                timeout_ms: None,
                mem_budget_mb: None,
            };
            let prepared = py.prepare(q.source, &backend, OptLevel::O4).unwrap();
            let cfg = EngineConfig {
                profile,
                threads,
                ..EngineConfig::default()
            };
            let (_, trace) = py
                .database()
                .execute_prepared_traced(&prepared, &cfg)
                .unwrap();
            assert!(trace.metrics.morsels_scanned >= 4, "{}", trace.summary());
            assert_eq!(
                trace.metrics.dict_pred_tables,
                1,
                "{profile:?}@{threads}t: {}",
                trace.summary()
            );
        }
    }
}
