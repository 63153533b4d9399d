//! `df1.merge(df2, how, on)` — the Pandas join, including the implicit
//! `_x`/`_y` renaming rules described in Section III-C of the paper.

use crate::dataframe::DataFrame;
use crate::series::Series;
use pytond_common::hash::{FixedKeySpec, FxHashMap, KeyArena, KeyWidth};
use pytond_common::{Column, Error, Result};
use std::hash::Hash;

/// Join kinds accepted by the `how` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinHow {
    /// Matching rows only (the Pandas default).
    Inner,
    /// All left rows; unmatched right columns become null.
    Left,
    /// All right rows; unmatched left columns become null.
    Right,
    /// Union of left and right matches.
    Outer,
    /// Cartesian product (`how='cross'`; no keys).
    Cross,
}

impl JoinHow {
    /// Parses the Pandas spelling.
    pub fn parse(name: &str) -> Result<JoinHow> {
        match name {
            "inner" => Ok(JoinHow::Inner),
            "left" => Ok(JoinHow::Left),
            "right" => Ok(JoinHow::Right),
            "outer" | "full" => Ok(JoinHow::Outer),
            "cross" => Ok(JoinHow::Cross),
            other => Err(Error::Data(format!("unknown join type '{other}'"))),
        }
    }
}

/// Hash join with Pandas output-column semantics:
///
/// * when `left_on == right_on` for a key pair, the key appears **once**
///   under its original name;
/// * any other column name shared by both inputs is suffixed (`_x` for the
///   left, `_y` for the right — or the caller's `suffixes`).
pub fn merge(
    left: &DataFrame,
    right: &DataFrame,
    how: JoinHow,
    left_on: &[&str],
    right_on: &[&str],
    suffixes: (&str, &str),
) -> Result<DataFrame> {
    if how == JoinHow::Cross {
        return cross_join(left, right, suffixes);
    }
    if left_on.len() != right_on.len() || left_on.is_empty() {
        return Err(Error::Data("merge requires matching key lists".into()));
    }
    for k in left_on {
        left.col(k)?;
    }
    for k in right_on {
        right.col(k)?;
    }

    // Same key encoding as the SQL engine (the fairness rule): fixed-width
    // keys pack into machine words, anything else arena-encodes into borrowed
    // byte slices — either way, build and probe never clone a key. The hash
    // table itself is this crate's own ([`build_table`]), so the baseline
    // stays a reference independent of the engine's join index. NULL keys
    // never match (SQL/Pandas semantics). Pandas equality is type-sensitive
    // (Int never equals Date), so the packed path — whose slot unification
    // would equate them — only applies when each key position carries the
    // same dtype on both sides; the byte encoding stays raw (type-tagged).
    let left_keys: Vec<&Series> = left_on.iter().map(|k| left.col(k).unwrap()).collect();
    let right_keys: Vec<&Series> = right_on.iter().map(|k| right.col(k).unwrap()).collect();
    let lcols: Vec<&Column> = left_keys.iter().map(|s| &s.col).collect();
    let rcols: Vec<&Column> = right_keys.iter().map(|s| &s.col).collect();
    let same_dtypes = lcols
        .iter()
        .zip(&rcols)
        .all(|(l, r)| l.dtype() == r.dtype());
    let plan = if same_dtypes {
        FixedKeySpec::plan(&[&lcols, &rcols], false)
    } else {
        None
    };
    let (left_idx, right_idx) = match plan {
        Some(spec) if spec.width() == KeyWidth::U64 => probe_indices(
            &opt_keys(spec.pack_u64(&lcols)),
            &opt_keys(spec.pack_u64(&rcols)),
            how,
        ),
        Some(spec) => probe_indices(
            &opt_keys(spec.pack_u128(&lcols)),
            &opt_keys(spec.pack_u128(&rcols)),
            how,
        ),
        None => {
            let la = KeyArena::encode_raw(&lcols, true);
            let ra = KeyArena::encode_raw(&rcols, true);
            probe_indices(&arena_keys(&la), &arena_keys(&ra), how)
        }
    };

    assemble(
        left, right, &left_idx, &right_idx, left_on, right_on, suffixes,
    )
}

/// An arena's per-row keys (`None` = NULL-containing key).
fn arena_keys(arena: &KeyArena) -> Vec<Option<&[u8]>> {
    (0..arena.len()).map(|i| arena.key(i)).collect()
}

/// Turns `(keys, skip)` from a fixed-width pack into per-row optional keys
/// (`None` = NULL-containing key, never matches).
fn opt_keys<K>((keys, skip): (Vec<K>, Option<Vec<bool>>)) -> Vec<Option<K>> {
    match skip {
        None => keys.into_iter().map(Some).collect(),
        Some(s) => keys
            .into_iter()
            .zip(s)
            .map(|(k, null)| (!null).then_some(k))
            .collect(),
    }
}

/// The build side: key → its rows in ascending order. `None` keys are never
/// inserted.
fn build_table<K: Hash + Eq + Copy>(keys: &[Option<K>]) -> FxHashMap<K, Vec<u32>> {
    let mut table: FxHashMap<K, Vec<u32>> = FxHashMap::default();
    for (i, k) in keys.iter().enumerate() {
        if let Some(k) = k {
            table.entry(*k).or_default().push(i as u32);
        }
    }
    table
}

/// Hash build (right) + ordered probe (left) over precomputed per-row keys;
/// `None` keys never match.
#[allow(clippy::type_complexity)]
fn probe_indices<K: Hash + Eq + Copy>(
    lkeys: &[Option<K>],
    rkeys: &[Option<K>],
    how: JoinHow,
) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let table = build_table(rkeys);
    let keep_unmatched_left = matches!(how, JoinHow::Left | JoinHow::Outer);
    let mut left_idx: Vec<Option<usize>> = Vec::new();
    let mut right_idx: Vec<Option<usize>> = Vec::new();
    let mut right_matched = vec![false; rkeys.len()];
    for (i, k) in lkeys.iter().enumerate() {
        match k.as_ref().and_then(|k| table.get(k)) {
            Some(rows) => {
                for &r in rows {
                    left_idx.push(Some(i));
                    right_idx.push(Some(r as usize));
                    right_matched[r as usize] = true;
                }
            }
            None => {
                if keep_unmatched_left {
                    left_idx.push(Some(i));
                    right_idx.push(None);
                }
            }
        }
    }
    // RIGHT/OUTER tail: unmatched right rows, in right-row order.
    if matches!(how, JoinHow::Right | JoinHow::Outer) {
        for (r, _) in right_matched.iter().enumerate().filter(|(_, m)| !**m) {
            left_idx.push(None);
            right_idx.push(Some(r));
        }
    }
    (left_idx, right_idx)
}

fn cross_join(left: &DataFrame, right: &DataFrame, suffixes: (&str, &str)) -> Result<DataFrame> {
    let mut left_idx = Vec::with_capacity(left.num_rows() * right.num_rows());
    let mut right_idx = Vec::with_capacity(left.num_rows() * right.num_rows());
    for i in 0..left.num_rows() {
        for j in 0..right.num_rows() {
            left_idx.push(Some(i));
            right_idx.push(Some(j));
        }
    }
    assemble(left, right, &left_idx, &right_idx, &[], &[], suffixes)
}

fn assemble(
    left: &DataFrame,
    right: &DataFrame,
    left_idx: &[Option<usize>],
    right_idx: &[Option<usize>],
    left_on: &[&str],
    right_on: &[&str],
    suffixes: (&str, &str),
) -> Result<DataFrame> {
    // Key pairs with identical names are merged into a single output column.
    let merged_keys: Vec<&str> = left_on
        .iter()
        .zip(right_on)
        .filter(|(l, r)| l == r)
        .map(|(l, _)| *l)
        .collect();
    let mut out = DataFrame::new();
    for s in left.series() {
        let name = if merged_keys.contains(&s.name.as_str()) {
            s.name.clone()
        } else if right.col(&s.name).is_ok() {
            format!("{}{}", s.name, suffixes.0)
        } else {
            s.name.clone()
        };
        let mut col = s.col.gather_opt(left_idx);
        // For merged key columns, fill left-nulls (right-only rows) from the right.
        if merged_keys.contains(&s.name.as_str()) {
            let rk = right.col(&s.name)?;
            for (pos, (li, ri)) in left_idx.iter().zip(right_idx).enumerate() {
                if li.is_none() {
                    if let Some(r) = ri {
                        // rebuild affected cell: gather produced null there
                        let mut vals: Vec<pytond_common::Value> =
                            (0..col.len()).map(|i| col.get(i)).collect();
                        vals[pos] = rk.get(*r);
                        col = pytond_common::Column::from_values(&vals)?;
                    }
                }
            }
        }
        out.insert(Series::new(name, col))?;
    }
    for s in right.series() {
        if merged_keys.contains(&s.name.as_str()) {
            continue;
        }
        let name = if left.col(&s.name).is_ok() {
            format!("{}{}", s.name, suffixes.1)
        } else {
            s.name.clone()
        };
        out.insert(Series::new(name, s.col.gather_opt(right_idx)))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::{Column, Value};

    fn left() -> DataFrame {
        DataFrame::from_cols(vec![
            ("id", Column::from_i64(vec![1, 2, 3])),
            ("v", Column::from_strs(&["a", "b", "c"])),
        ])
        .unwrap()
    }

    fn right() -> DataFrame {
        DataFrame::from_cols(vec![
            ("id", Column::from_i64(vec![2, 3, 4])),
            ("w", Column::from_i64(vec![20, 30, 40])),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_on_shared_name_keeps_one_key() {
        let j = merge(
            &left(),
            &right(),
            JoinHow::Inner,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.columns(), vec!["id", "v", "w"]);
        assert_eq!(j.col("id").unwrap().col.as_int(), &[2, 3]);
        assert_eq!(j.col("w").unwrap().col.as_int(), &[20, 30]);
    }

    #[test]
    fn left_join_fills_nulls() {
        let j = merge(
            &left(),
            &right(),
            JoinHow::Left,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.num_rows(), 3);
        assert_eq!(j.col("w").unwrap().get(0), Value::Null);
        assert_eq!(j.col("w").unwrap().get(1), Value::Int(20));
    }

    #[test]
    fn right_join_mirrors() {
        let j = merge(
            &left(),
            &right(),
            JoinHow::Right,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.num_rows(), 3);
        // unmatched right row id=4 appears with null v but key filled
        let ids: Vec<Value> = (0..3).map(|i| j.col("id").unwrap().get(i)).collect();
        assert!(ids.contains(&Value::Int(4)));
        let pos = ids.iter().position(|v| *v == Value::Int(4)).unwrap();
        assert_eq!(j.col("v").unwrap().get(pos), Value::Null);
    }

    #[test]
    fn outer_join_is_union() {
        let j = merge(
            &left(),
            &right(),
            JoinHow::Outer,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.num_rows(), 4);
    }

    #[test]
    fn overlapping_non_key_columns_get_suffixes() {
        // Paper example: df1 [a,b,c] merge df2 [a,c,d] on a → [a, b, c_x, c_y, d]
        let df1 = DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![1])),
            ("b", Column::from_i64(vec![2])),
            ("c", Column::from_i64(vec![3])),
        ])
        .unwrap();
        let df2 = DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![1])),
            ("c", Column::from_i64(vec![30])),
            ("d", Column::from_i64(vec![4])),
        ])
        .unwrap();
        let j = merge(&df1, &df2, JoinHow::Inner, &["a"], &["a"], ("_x", "_y")).unwrap();
        assert_eq!(j.columns(), vec!["a", "b", "c_x", "c_y", "d"]);
    }

    #[test]
    fn different_key_names_keep_both() {
        let df1 = DataFrame::from_cols(vec![("a", Column::from_i64(vec![1, 2]))]).unwrap();
        let df2 = DataFrame::from_cols(vec![("x", Column::from_i64(vec![2, 3]))]).unwrap();
        let j = merge(&df1, &df2, JoinHow::Inner, &["a"], &["x"], ("_x", "_y")).unwrap();
        assert_eq!(j.columns(), vec!["a", "x"]);
        assert_eq!(j.num_rows(), 1);
    }

    #[test]
    fn cross_join_sizes() {
        let j = merge(&left(), &right(), JoinHow::Cross, &[], &[], ("_x", "_y")).unwrap();
        assert_eq!(j.num_rows(), 9);
        assert_eq!(j.columns(), vec!["id_x", "v", "id_y", "w"]);
    }

    #[test]
    fn duplicate_right_keys_multiply() {
        let df2 = DataFrame::from_cols(vec![
            ("id", Column::from_i64(vec![2, 2])),
            ("w", Column::from_i64(vec![1, 2])),
        ])
        .unwrap();
        let j = merge(
            &left(),
            &df2,
            JoinHow::Inner,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(j.col("w").unwrap().col.as_int(), &[1, 2]);
    }

    #[test]
    fn cross_dtype_keys_never_match() {
        // Pandas equality is type-sensitive: Int 5 must not match Date 5
        // (the packed fast path is bypassed for mixed-dtype key positions).
        let df1 = DataFrame::from_cols(vec![("k", Column::from_i64(vec![5, 6]))]).unwrap();
        let df2 = DataFrame::from_cols(vec![("k", Column::from_dates(vec![5, 7]))]).unwrap();
        let j = merge(&df1, &df2, JoinHow::Inner, &["k"], &["k"], ("_x", "_y")).unwrap();
        assert_eq!(j.num_rows(), 0);
        // Same-dtype joins still match (and take the packed path).
        let df3 = DataFrame::from_cols(vec![("k", Column::from_i64(vec![5, 9]))]).unwrap();
        let j2 = merge(&df1, &df3, JoinHow::Inner, &["k"], &["k"], ("_x", "_y")).unwrap();
        assert_eq!(j2.num_rows(), 1);
    }

    #[test]
    fn null_keys_never_match() {
        let mut idc = Column::new(pytond_common::DType::Int);
        idc.push(Value::Int(1)).unwrap();
        idc.push_null();
        let df1 = DataFrame::from_cols(vec![("id", idc)]).unwrap();
        let j = merge(
            &df1,
            &right(),
            JoinHow::Left,
            &["id"],
            &["id"],
            ("_x", "_y"),
        )
        .unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(j.col("w").unwrap().get(1), Value::Null);
    }
}
