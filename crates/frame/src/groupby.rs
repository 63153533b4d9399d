//! Hash group-by with named aggregations (`df.groupby(by).agg(...)`).

use crate::dataframe::DataFrame;
use crate::series::Series;
use pytond_common::hash::{FixedKeySpec, FxHashMap, KeyArena, KeyWidth};
use pytond_common::{Column, Error, Result, Value};
use std::hash::Hash;

/// Aggregate functions available to `agg`, `aggregate` and `pivot_table`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of non-null values (0 for empty, like Pandas' sum).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Count of non-null values.
    Count,
    /// Count of distinct non-null values.
    NUnique,
}

impl AggOp {
    /// Parses the Pandas spelling (`'sum'`, `'mean'`, ...).
    pub fn parse(name: &str) -> Result<AggOp> {
        match name {
            "sum" => Ok(AggOp::Sum),
            "min" => Ok(AggOp::Min),
            "max" => Ok(AggOp::Max),
            "mean" | "avg" => Ok(AggOp::Mean),
            "count" | "size" => Ok(AggOp::Count),
            "nunique" => Ok(AggOp::NUnique),
            other => Err(Error::Data(format!("unknown aggregate '{other}'"))),
        }
    }

    /// Applies the aggregate to a whole series.
    pub fn apply_series(self, s: &Series) -> Value {
        match self {
            AggOp::Sum => s.sum(),
            AggOp::Min => s.min(),
            AggOp::Max => s.max(),
            AggOp::Mean => s.mean(),
            AggOp::Count => Value::Int(s.count()),
            AggOp::NUnique => Value::Int(s.nunique()),
        }
    }
}

/// The pending group-by: key columns plus the grouped row indices.
pub struct GroupBy<'a> {
    df: &'a DataFrame,
    by: Vec<String>,
    /// One entry per group: (first row index, all row indices).
    groups: Vec<(usize, Vec<usize>)>,
}

impl<'a> GroupBy<'a> {
    /// Hashes the key columns and collects row indices per group,
    /// first-appearance order (Pandas `sort=False` semantics; callers sort
    /// explicitly when needed).
    ///
    /// Shares the engine's key machinery — the fairness rule that keeps the
    /// baseline comparable: fixed-width keys pack into `u64`/`u128` words,
    /// anything else arena-encodes. The byte encoding is **not** normalized
    /// (Pandas equality is type-sensitive, unlike SQL's `1 = 1.0`).
    pub fn new(df: &'a DataFrame, by: &[&str]) -> Result<GroupBy<'a>> {
        let keys: Vec<&Series> = by.iter().map(|k| df.col(k)).collect::<Result<Vec<_>>>()?;
        let cols: Vec<&Column> = keys.iter().map(|s| &s.col).collect();
        let groups = if cols.is_empty() {
            // Degenerate `groupby([])`: every row lands in one group.
            if df.num_rows() == 0 {
                Vec::new()
            } else {
                vec![(0, (0..df.num_rows()).collect())]
            }
        } else {
            match FixedKeySpec::plan(&[&cols], true) {
                Some(spec) if spec.width() == KeyWidth::U64 => group_rows(&spec.pack_u64(&cols).0),
                Some(spec) => group_rows(&spec.pack_u128(&cols).0),
                None => {
                    let arena = KeyArena::encode_raw(&cols, false);
                    group_rows(&arena.dense_keys())
                }
            }
        };
        Ok(GroupBy {
            df,
            by: by.iter().map(|s| s.to_string()).collect(),
            groups,
        })
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Named aggregation: each `(input column, op, output name)` triple
    /// produces one output column after the group keys.
    pub fn agg(&self, specs: &[(&str, AggOp, &str)]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        // Key columns first.
        for key in &self.by {
            let src = self.df.col(key)?;
            let firsts: Vec<usize> = self.groups.iter().map(|(f, _)| *f).collect();
            out.insert(Series::new(key.clone(), src.col.gather(&firsts)))?;
        }
        for (input, op, output) in specs {
            let src = self.df.col(input)?;
            let vals: Vec<Value> = self
                .groups
                .iter()
                .map(|(_, rows)| op.apply_series(&Series::new("", src.col.gather(rows))))
                .collect();
            out.insert(Series::new(*output, Column::from_values(&vals)?))?;
        }
        Ok(out)
    }

    /// `groupby(by).size()` — group cardinalities.
    pub fn size(&self, output: &str) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for key in &self.by {
            let src = self.df.col(key)?;
            let firsts: Vec<usize> = self.groups.iter().map(|(f, _)| *f).collect();
            out.insert(Series::new(key.clone(), src.col.gather(&firsts)))?;
        }
        let sizes: Vec<i64> = self.groups.iter().map(|(_, r)| r.len() as i64).collect();
        out.insert(Series::new(output, Column::from_i64(sizes)))?;
        Ok(out)
    }

    /// Applies `op` to every non-key column, keeping its name — the
    /// `df.groupby(col).sum()` form of Table V.
    pub fn agg_all(&self, op: AggOp) -> Result<DataFrame> {
        let specs: Vec<(String, AggOp, String)> = self
            .df
            .columns()
            .iter()
            .filter(|c| !self.by.iter().any(|k| k == *c))
            .map(|c| (c.to_string(), op, c.to_string()))
            .collect();
        let borrowed: Vec<(&str, AggOp, &str)> = specs
            .iter()
            .map(|(i, o, n)| (i.as_str(), *o, n.as_str()))
            .collect();
        self.agg(&borrowed)
    }
}

/// Buckets row indices by key in first-appearance order; every row list
/// is ascending.
fn group_rows<K: Hash + Eq + Copy>(keys: &[K]) -> Vec<(usize, Vec<usize>)> {
    let mut map: FxHashMap<K, usize> = FxHashMap::default();
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        match map.get(k) {
            Some(&g) => groups[g].1.push(i),
            None => {
                map.insert(*k, groups.len());
                groups.push((i, vec![i]));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::from_cols(vec![
            ("k", Column::from_strs(&["a", "b", "a", "b", "a"])),
            ("v", Column::from_i64(vec![1, 2, 3, 4, 5])),
            ("w", Column::from_f64(vec![1.0, 1.0, 2.0, 2.0, 3.0])),
        ])
        .unwrap()
    }

    #[test]
    fn sum_per_group_in_first_appearance_order() {
        let d = df();
        let g = d.groupby(&["k"]).unwrap();
        assert_eq!(g.num_groups(), 2);
        let r = g.agg(&[("v", AggOp::Sum, "total")]).unwrap();
        assert_eq!(
            r.col("k").unwrap().col.as_str_col(),
            &["a".to_string(), "b".into()]
        );
        assert_eq!(r.col("total").unwrap().col.as_int(), &[9, 6]);
    }

    #[test]
    fn multiple_aggregates_and_ops() {
        let d = df();
        let g = d.groupby(&["k"]).unwrap();
        let r = g
            .agg(&[
                ("v", AggOp::Min, "lo"),
                ("v", AggOp::Max, "hi"),
                ("v", AggOp::Mean, "avg"),
                ("w", AggOp::NUnique, "uw"),
            ])
            .unwrap();
        assert_eq!(r.col("lo").unwrap().col.as_int(), &[1, 2]);
        assert_eq!(r.col("hi").unwrap().col.as_int(), &[5, 4]);
        assert_eq!(r.col("avg").unwrap().col.as_float(), &[3.0, 3.0]);
        assert_eq!(r.col("uw").unwrap().col.as_int(), &[3, 2]);
    }

    #[test]
    fn multi_key_grouping() {
        let d = DataFrame::from_cols(vec![
            ("k1", Column::from_i64(vec![1, 1, 2, 1])),
            ("k2", Column::from_strs(&["x", "y", "x", "x"])),
            ("v", Column::from_i64(vec![10, 20, 30, 40])),
        ])
        .unwrap();
        let g = d.groupby(&["k1", "k2"]).unwrap();
        let r = g.agg(&[("v", AggOp::Sum, "s")]).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.col("s").unwrap().col.as_int(), &[50, 20, 30]);
    }

    #[test]
    fn size_counts_rows() {
        let d = df();
        let r = d.groupby(&["k"]).unwrap().size("n").unwrap();
        assert_eq!(r.col("n").unwrap().col.as_int(), &[3, 2]);
    }

    #[test]
    fn agg_all_applies_to_non_keys() {
        let d = df();
        let r = d.groupby(&["k"]).unwrap().agg_all(AggOp::Sum).unwrap();
        assert_eq!(r.columns(), vec!["k", "v", "w"]);
        assert_eq!(r.col("w").unwrap().col.as_float(), &[6.0, 3.0]);
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggOp::parse("sum").unwrap(), AggOp::Sum);
        assert_eq!(AggOp::parse("mean").unwrap(), AggOp::Mean);
        assert!(AggOp::parse("median").is_err());
    }
}
