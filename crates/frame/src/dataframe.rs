//! The `DataFrame`: Pandas' primary data structure (paper, Section II-A).

use crate::groupby::{AggOp, GroupBy};
use crate::join::{merge, JoinHow};
use crate::pivot::pivot_table;
use crate::series::Series;
use pytond_common::{Column, Error, Relation, Result, Value};

/// A 2-dimensional, column-major, eagerly-evaluated table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    cols: Vec<Series>,
}

impl DataFrame {
    /// Empty frame.
    pub fn new() -> DataFrame {
        DataFrame::default()
    }

    /// Builds from `(name, column)` pairs.
    pub fn from_cols(cols: Vec<(&str, Column)>) -> Result<DataFrame> {
        let mut df = DataFrame::new();
        for (name, col) in cols {
            df.insert(Series::new(name, col))?;
        }
        Ok(df)
    }

    /// Builds from a [`Relation`].
    pub fn from_relation(rel: &Relation) -> DataFrame {
        DataFrame {
            cols: rel
                .columns()
                .iter()
                .map(|(n, c)| Series::new(n.clone(), c.clone()))
                .collect(),
        }
    }

    /// Converts into a [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::new(
            self.cols
                .iter()
                .map(|s| (s.name.clone(), s.col.clone()))
                .collect(),
        )
        .expect("DataFrame invariants imply a valid relation")
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.cols.first().map_or(0, |s| s.len())
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Column labels in order.
    pub fn columns(&self) -> Vec<&str> {
        self.cols.iter().map(|s| s.name.as_str()).collect()
    }

    /// All series in order.
    pub fn series(&self) -> &[Series] {
        &self.cols
    }

    /// Column selection `df[col]` / `df.col`.
    pub fn col(&self, name: &str) -> Result<&Series> {
        self.cols
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| Error::Data(format!("no column '{name}'")))
    }

    /// Adds or replaces a column (`df[name] = series`). Pandas' implicit-join
    /// semantics for frames of equal length: assignment is positional.
    pub fn insert(&mut self, series: Series) -> Result<()> {
        if !self.cols.is_empty() && series.len() != self.num_rows() && self.num_cols() > 0 {
            return Err(Error::Data(format!(
                "column '{}' has {} rows, frame has {}",
                series.name,
                series.len(),
                self.num_rows()
            )));
        }
        if let Some(existing) = self.cols.iter_mut().find(|s| s.name == series.name) {
            *existing = series;
        } else {
            self.cols.push(series);
        }
        Ok(())
    }

    /// `df[[c1, c2, ...]]` — projection.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for n in names {
            out.insert(self.col(n)?.clone())?;
        }
        Ok(out)
    }

    /// `df.drop(columns=[...])`.
    pub fn drop(&self, names: &[&str]) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .filter(|s| !names.contains(&s.name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// `df.rename(columns={from: to})`.
    pub fn rename(&self, mapping: &[(&str, &str)]) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|s| {
                    let name = mapping
                        .iter()
                        .find(|(f, _)| *f == s.name)
                        .map(|(_, t)| t.to_string())
                        .unwrap_or_else(|| s.name.clone());
                    Series::new(name, s.col.clone())
                })
                .collect(),
        }
    }

    /// `df[mask]` — row filtering; copies every surviving row.
    pub fn filter(&self, mask: &Series) -> Result<DataFrame> {
        let m = match &mask.col {
            Column::Bool(d, _) => d,
            _ => return Err(Error::Data("filter mask must be boolean".into())),
        };
        if m.len() != self.num_rows() {
            return Err(Error::Data("mask length mismatch".into()));
        }
        Ok(DataFrame {
            cols: self
                .cols
                .iter()
                .map(|s| Series::new(s.name.clone(), s.col.filter(m)))
                .collect(),
        })
    }

    /// Row gather by index.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        DataFrame {
            cols: self
                .cols
                .iter()
                .map(|s| Series::new(s.name.clone(), s.col.gather(indices)))
                .collect(),
        }
    }

    /// `df.head(n)`.
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..n.min(self.num_rows())).collect();
        self.take(&indices)
    }

    /// `df.sort_values(by, ascending)` — stable multi-key sort.
    pub fn sort_values(&self, by: &[(&str, bool)]) -> Result<DataFrame> {
        for (k, _) in by {
            self.col(k)?;
        }
        let mut idx: Vec<usize> = (0..self.num_rows()).collect();
        let keys: Vec<(&Series, bool)> = by
            .iter()
            .map(|(k, asc)| (self.col(k).unwrap(), *asc))
            .collect();
        idx.sort_by(|&a, &b| {
            for (s, asc) in &keys {
                let ord = s.get(a).total_cmp(&s.get(b));
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(self.take(&idx))
    }

    /// `df.drop_duplicates()` over all columns, keeping first occurrences.
    pub fn drop_duplicates(&self) -> DataFrame {
        let cols: Vec<&pytond_common::Column> = self.cols.iter().map(|s| &s.col).collect();
        self.take(&pytond_common::hash::distinct_rows(&cols))
    }

    /// `df.merge(other, how, left_on, right_on, suffixes)` — see
    /// [`crate::join::merge`] for the implicit `_x`/`_y` renaming rules.
    pub fn merge(
        &self,
        other: &DataFrame,
        how: JoinHow,
        left_on: &[&str],
        right_on: &[&str],
    ) -> Result<DataFrame> {
        merge(self, other, how, left_on, right_on, ("_x", "_y"))
    }

    /// `df.groupby(by)` — returns a lazy group-by handle.
    pub fn groupby<'a>(&'a self, by: &[&str]) -> Result<GroupBy<'a>> {
        GroupBy::new(self, by)
    }

    /// `df.pivot_table(index, columns, values, aggfunc)`.
    pub fn pivot_table(
        &self,
        index: &str,
        columns: &str,
        values: &str,
        func: AggOp,
    ) -> Result<DataFrame> {
        pivot_table(self, index, columns, values, func)
    }

    /// `df.aggregate(func)` applied to every column, producing one row.
    pub fn aggregate(&self, func: AggOp) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for s in &self.cols {
            let v = func.apply_series(s);
            out.insert(Series::new(s.name.clone(), Column::from_values(&[v])?))?;
        }
        Ok(out)
    }

    /// Row-wise apply producing a new series (Pandas `df.apply(f, axis=1)`).
    pub fn apply_rows(
        &self,
        name: &str,
        f: impl Fn(&dyn Fn(&str) -> Value) -> Value,
    ) -> Result<Series> {
        let mut vals = Vec::with_capacity(self.num_rows());
        for i in 0..self.num_rows() {
            let getter = |col: &str| self.col(col).map(|s| s.get(i)).unwrap_or(Value::Null);
            vals.push(f(&getter));
        }
        Ok(Series::new(name, Column::from_values(&vals)?))
    }

    /// `df.col.value_counts()` — frequency table sorted descending.
    pub fn value_counts(&self, col: &str) -> Result<DataFrame> {
        let g = self.groupby(&[col])?;
        let counted = g.agg(&[(col, AggOp::Count, "count")])?;
        counted.sort_values(&[("count", false)])
    }
}

impl std::fmt::Display for DataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_relation().to_table_string(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![3, 1, 2, 1])),
            ("b", Column::from_strs(&["x", "y", "z", "w"])),
            ("c", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
        ])
        .unwrap()
    }

    #[test]
    fn selection_and_projection() {
        let d = df();
        assert_eq!(d.col("a").unwrap().get(0), Value::Int(3));
        let p = d.select(&["c", "a"]).unwrap();
        assert_eq!(p.columns(), vec!["c", "a"]);
        assert!(d.select(&["zz"]).is_err());
    }

    #[test]
    fn filtering() {
        let d = df();
        let mask = d.col("a").unwrap().ge_val(&Value::Int(2));
        let f = d.filter(&mask).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(
            f.col("b").unwrap().col.as_str_col(),
            &["x".to_string(), "z".into()]
        );
    }

    #[test]
    fn head_and_sort() {
        let d = df();
        let s = d.sort_values(&[("a", true), ("b", false)]).unwrap();
        assert_eq!(s.col("a").unwrap().col.as_int(), &[1, 1, 2, 3]);
        // ties on a=1 broken by b descending: y before w
        assert_eq!(s.col("b").unwrap().get(0), Value::Str("y".into()));
        assert_eq!(s.head(2).num_rows(), 2);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut d = df();
        d.insert(Series::new("a", Column::from_i64(vec![9, 9, 9, 9])))
            .unwrap();
        assert_eq!(d.num_cols(), 3);
        assert_eq!(d.col("a").unwrap().get(0), Value::Int(9));
        assert!(d
            .insert(Series::new("oops", Column::from_i64(vec![1])))
            .is_err());
    }

    #[test]
    fn drop_and_rename() {
        let d = df().drop(&["b"]);
        assert_eq!(d.columns(), vec!["a", "c"]);
        let r = d.rename(&[("a", "alpha")]);
        assert_eq!(r.columns(), vec!["alpha", "c"]);
    }

    #[test]
    fn drop_duplicates_keeps_first() {
        let d = DataFrame::from_cols(vec![
            ("a", Column::from_i64(vec![1, 2, 1])),
            ("b", Column::from_i64(vec![5, 6, 5])),
        ])
        .unwrap();
        let u = d.drop_duplicates();
        assert_eq!(u.num_rows(), 2);
        assert_eq!(u.col("a").unwrap().col.as_int(), &[1, 2]);
    }

    #[test]
    fn aggregate_all_columns() {
        let d = df().select(&["a", "c"]).unwrap();
        let agg = d.aggregate(AggOp::Sum).unwrap();
        assert_eq!(agg.num_rows(), 1);
        assert_eq!(agg.col("a").unwrap().get(0), Value::Int(7));
        assert_eq!(agg.col("c").unwrap().get(0), Value::Float(10.0));
    }

    #[test]
    fn apply_rows_computes_per_row() {
        let d = df();
        let s = d
            .apply_rows("sum_ac", |get| {
                let a = get("a").as_f64().unwrap();
                let c = get("c").as_f64().unwrap();
                Value::Float(a + c)
            })
            .unwrap();
        assert_eq!(s.col.as_float(), &[4.0, 3.0, 5.0, 5.0]);
    }

    #[test]
    fn value_counts_sorted_desc() {
        let d = df();
        let vc = d.value_counts("a").unwrap();
        assert_eq!(vc.col("count").unwrap().get(0), Value::Int(2));
    }

    #[test]
    fn relation_round_trip() {
        let d = df();
        let r = d.to_relation();
        let d2 = DataFrame::from_relation(&r);
        assert_eq!(d, d2);
    }
}
