//! Helpers shared by the integration-test binaries. Each binary compiles
//! this module and uses a subset of it.
#![allow(dead_code)]

use pytond_common::{pool, Column, DType, Relation, Value};
use pytond_sqldb::Database;

/// The thread counts every case runs at; index 0 is the serial reference.
pub(crate) fn thread_counts() -> Vec<usize> {
    vec![1, 2, 7, pool::hardware_threads().max(2)]
}

/// Exact equality, NaN-aware and sign-of-zero-aware: every cell must agree
/// under `Value::total_cmp` (floats compare by total order, so `-0.0` vs
/// `0.0` or differing NaN handling fail the test — "bit-identical").
pub(crate) fn assert_bit_identical(name: &str, reference: &Relation, candidate: &Relation) {
    assert_eq!(
        reference.num_cols(),
        candidate.num_cols(),
        "{name}: column count"
    );
    assert_eq!(
        reference.num_rows(),
        candidate.num_rows(),
        "{name}: row count"
    );
    for ci in 0..reference.num_cols() {
        let a = reference.column_at(ci);
        let b = candidate.column_at(ci);
        for i in 0..a.len() {
            let (va, vb) = (a.get(i), b.get(i));
            assert!(
                va.total_cmp(&vb) == std::cmp::Ordering::Equal,
                "{name}: cell ({i}, {}) differs: {va:?} vs {vb:?}",
                reference.name_at(ci)
            );
        }
    }
}

/// Deterministic value stream: clustered (sorted, tight zone bounds) or
/// shuffled (wide zone bounds) over `[0, domain)`.
pub(crate) fn key_value(i: usize, n: usize, domain: i64, clustered: bool) -> i64 {
    if clustered {
        (i as i64) * domain / (n as i64).max(1)
    } else {
        ((i as i64).wrapping_mul(2_654_435_761)).rem_euclid(domain)
    }
}

/// Builds the key column for one dtype selector, with every
/// `null_every + 3`-rd row NULL when `null_every > 0`.
pub(crate) fn key_column(
    dtype: u8,
    n: usize,
    domain: i64,
    clustered: bool,
    null_every: usize,
) -> Column {
    let dt = match dtype {
        0 => DType::Int,
        1 => DType::Float,
        2 => DType::Date,
        _ => DType::Bool,
    };
    let mut col = Column::new(dt);
    for i in 0..n {
        if null_every > 0 && i % (null_every + 3) == 0 {
            col.push_null();
            continue;
        }
        let v = key_value(i, n, domain, clustered);
        let val = match dt {
            DType::Int => Value::Int(v),
            DType::Float => Value::Float(v as f64 + 0.25),
            DType::Date => Value::Date(v as i32),
            DType::Bool => Value::Bool(v % 2 == 0),
            DType::Str => unreachable!(),
        };
        col.push(val).unwrap();
    }
    col
}

/// A corpus table: generated key column + float measure whose per-group sums
/// are rounding-sensitive (so any merge-order drift shows in the low bits).
pub(crate) fn corpus_db(
    dtype: u8,
    n: usize,
    domain: i64,
    clustered: bool,
    null_every: usize,
) -> Database {
    let k = key_column(dtype, n, domain, clustered, null_every);
    let f: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.618_033_988_749).fract() * 1e6 + 0.1)
        .collect();
    let db = Database::new();
    db.register(
        "t",
        Relation::new(vec![
            ("k".into(), k),
            ("f".into(), Column::from_f64(f)),
            ("v".into(), Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap(),
    );
    db
}

/// Two tables whose join keys are NULL on every third / fourth row — the
/// case where partitioned builds must drop NULL keys exactly like the
/// serial build, for every join kind. The live keys are dense (`i % 500`,
/// `i % 700`), so join indexes over them build direct-addressed.
pub(crate) fn null_heavy_db(n: usize) -> Database {
    null_heavy_db_scaled(n, 1)
}

/// [`null_heavy_db`] with every live key multiplied by `scale`: at 7919
/// the keys span far more than 4× the rows, so join indexes hash (and
/// partition, when large enough and given workers).
pub(crate) fn null_heavy_db_scaled(n: usize, scale: i64) -> Database {
    let mut l_key = Column::new(DType::Int);
    let mut r_key = Column::new(DType::Int);
    for i in 0..n {
        if i % 3 == 0 {
            l_key.push_null();
        } else {
            l_key.push(Value::Int((i % 500) as i64 * scale)).unwrap();
        }
    }
    for i in 0..n / 2 {
        if i % 4 == 0 {
            r_key.push_null();
        } else {
            r_key.push(Value::Int((i % 700) as i64 * scale)).unwrap();
        }
    }
    let db = Database::new();
    db.register(
        "l",
        Relation::new(vec![
            ("k".into(), l_key),
            ("a".into(), Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap(),
    );
    db.register(
        "r",
        Relation::new(vec![
            ("k".into(), r_key),
            (
                "b".into(),
                Column::from_f64((0..n / 2).map(|i| i as f64 * 0.3).collect()),
            ),
        ])
        .unwrap(),
    );
    db.register(
        "empty",
        Relation::new(vec![("k".into(), Column::from_i64(vec![]))]).unwrap(),
    );
    db
}

/// Bit-identical column comparison on every **valid** row (placeholder data
/// under null rows is unspecified in both evaluators). Floats compare by bit
/// pattern, with all NaNs considered one value.
pub(crate) fn cols_bit_identical(a: &Column, b: &Column) -> bool {
    if a.dtype() != b.dtype() || a.len() != b.len() {
        return false;
    }
    (0..a.len()).all(|i| match (a.is_valid(i), b.is_valid(i)) {
        (false, false) => true,
        (true, true) => match (a.get(i), b.get(i)) {
            (Value::Float(x), Value::Float(y)) => {
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
            }
            (x, y) => x == y,
        },
        _ => false,
    })
}

/// The first difference between `a` and `b` under `Value::total_cmp` (column
/// count, row count, then cell by cell), or `None` when bit-identical.
pub(crate) fn diff_cells(name: &str, a: &Relation, b: &Relation) -> Option<String> {
    if a.num_cols() != b.num_cols() {
        return Some(format!(
            "{name}: column count {} vs {}",
            a.num_cols(),
            b.num_cols()
        ));
    }
    if a.num_rows() != b.num_rows() {
        return Some(format!(
            "{name}: row count {} vs {}",
            a.num_rows(),
            b.num_rows()
        ));
    }
    for ci in 0..a.num_cols() {
        let (ca, cb) = (a.column_at(ci), b.column_at(ci));
        for i in 0..ca.len() {
            let (va, vb) = (ca.get(i), cb.get(i));
            if va.total_cmp(&vb) != std::cmp::Ordering::Equal {
                return Some(format!(
                    "{name}: cell ({i}, {}) differs: {va:?} vs {vb:?}",
                    a.name_at(ci)
                ));
            }
        }
    }
    None
}
