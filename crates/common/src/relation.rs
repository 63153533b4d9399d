//! Named-column relations: the result-set type shared by the engine, the
//! DataFrame baseline, and the differential test harness.

use crate::column::{Column, DType};
use crate::error::{Error, Result};
use crate::value::Value;
use std::fmt;

/// An ordered collection of named columns of equal length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    cols: Vec<(String, Column)>,
}

impl Relation {
    /// Creates an empty relation with no columns.
    pub fn empty() -> Relation {
        Relation { cols: Vec::new() }
    }

    /// Builds a relation from `(name, column)` pairs, validating that all
    /// columns have the same length and names are unique.
    pub fn new(cols: Vec<(String, Column)>) -> Result<Relation> {
        if let Some((_, first)) = cols.first() {
            let n = first.len();
            for (name, c) in &cols {
                if c.len() != n {
                    return Err(Error::Data(format!(
                        "column '{name}' has {} rows, expected {n}",
                        c.len()
                    )));
                }
            }
        }
        for i in 0..cols.len() {
            for j in (i + 1)..cols.len() {
                if cols[i].0 == cols[j].0 {
                    return Err(Error::Data(format!("duplicate column '{}'", cols[i].0)));
                }
            }
        }
        Ok(Relation { cols })
    }

    /// Number of rows (0 when there are no columns).
    pub fn num_rows(&self) -> usize {
        self.cols.first().map_or(0, |(_, c)| c.len())
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Estimated heap footprint in bytes (sum of [`Column::heap_bytes`]
    /// over all columns). Used by the per-query memory budget to charge
    /// materialized intermediates.
    pub fn heap_bytes(&self) -> u64 {
        self.cols.iter().map(|(_, c)| c.heap_bytes()).sum()
    }

    /// Column names in schema order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// `(name, dtype)` pairs in schema order.
    pub fn schema(&self) -> Vec<(String, DType)> {
        self.cols
            .iter()
            .map(|(n, c)| (n.clone(), c.dtype()))
            .collect()
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// The `i`-th column.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.cols[i].1
    }

    /// The `i`-th column name.
    pub fn name_at(&self, i: usize) -> &str {
        &self.cols[i].0
    }

    /// All `(name, column)` pairs.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.cols
    }

    /// Reads a single cell.
    pub fn get(&self, row: usize, col: &str) -> Option<Value> {
        self.column(col).map(|c| c.get(row))
    }

    /// Returns one row as scalars, in schema order.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|(_, c)| c.get(i)).collect()
    }

    /// Canonical form for order-insensitive comparison: rows sorted by the
    /// total order of their values, column order preserved.
    pub fn canonicalized(&self) -> Relation {
        let n = self.num_rows();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            for (_, c) in &self.cols {
                let ord = c.get(a).total_cmp(&c.get(b));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Relation {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(&idx)))
                .collect(),
        }
    }

    /// Approximate equality for differential testing: same shape, same values
    /// within `tol` for floats, exact otherwise. Column *names* are not
    /// compared (the compiled path and the interpreted path may label columns
    /// differently); column order and content are.
    pub fn approx_eq(&self, other: &Relation, tol: f64) -> bool {
        self.diff(other, tol).is_none()
    }

    /// Like [`Relation::approx_eq`] but explains the first difference found.
    pub fn diff(&self, other: &Relation, tol: f64) -> Option<String> {
        if self.num_cols() != other.num_cols() {
            return Some(format!(
                "column count {} vs {}",
                self.num_cols(),
                other.num_cols()
            ));
        }
        if self.num_rows() != other.num_rows() {
            return Some(format!(
                "row count {} vs {}",
                self.num_rows(),
                other.num_rows()
            ));
        }
        for ci in 0..self.num_cols() {
            let a = self.column_at(ci);
            let b = other.column_at(ci);
            for i in 0..a.len() {
                let va = a.get(i);
                let vb = b.get(i);
                if !value_approx_eq(&va, &vb, tol) {
                    return Some(format!(
                        "cell ({i}, {}): {va:?} vs {vb:?}",
                        self.name_at(ci)
                    ));
                }
            }
        }
        None
    }

    /// Renders the relation as an aligned ASCII table (used by examples).
    pub fn to_table_string(&self, max_rows: usize) -> String {
        let mut widths: Vec<usize> = self.cols.iter().map(|(n, _)| n.len()).collect();
        let nrows = self.num_rows().min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(nrows);
        for i in 0..nrows {
            let row: Vec<String> = self
                .cols
                .iter()
                .map(|(_, c)| c.get(i).to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .cols
            .iter()
            .zip(&widths)
            .map(|((n, _), w)| format!("{n:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        if self.num_rows() > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.num_rows()));
        }
        out
    }
}

/// Scalar approximate equality used by [`Relation::diff`]: numerics compare
/// as f64 within `tol` (relative for large magnitudes), everything else exact.
pub fn value_approx_eq(a: &Value, b: &Value, tol: f64) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let scale = x.abs().max(y.abs()).max(1.0);
                (x - y).abs() <= tol * scale
            }
            _ => false,
        },
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_string(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::new(vec![
            ("a".into(), Column::from_i64(vec![3, 1, 2])),
            ("b".into(), Column::from_strs(&["x", "y", "z"])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let r = Relation::new(vec![
            ("a".into(), Column::from_i64(vec![1])),
            ("b".into(), Column::from_i64(vec![1, 2])),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn construction_rejects_duplicates() {
        let r = Relation::new(vec![
            ("a".into(), Column::from_i64(vec![1])),
            ("a".into(), Column::from_i64(vec![2])),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn canonicalize_sorts_rows() {
        let c = sample().canonicalized();
        assert_eq!(c.column("a").unwrap().as_int(), &[1, 2, 3]);
        assert_eq!(c.column("b").unwrap().as_str_col()[0], "y");
    }

    #[test]
    fn approx_eq_tolerates_float_noise() {
        let a = Relation::new(vec![("x".into(), Column::from_f64(vec![1.0]))]).unwrap();
        let b = Relation::new(vec![("y".into(), Column::from_f64(vec![1.0 + 1e-12]))]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        let c = Relation::new(vec![("y".into(), Column::from_f64(vec![1.1]))]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    fn approx_eq_mixes_int_and_float() {
        let a = Relation::new(vec![("x".into(), Column::from_i64(vec![2]))]).unwrap();
        let b = Relation::new(vec![("x".into(), Column::from_f64(vec![2.0]))]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn diff_reports_location() {
        let a = sample();
        let mut b = sample();
        b = Relation::new(
            b.columns()
                .iter()
                .map(|(n, c)| {
                    if n == "a" {
                        (n.clone(), Column::from_i64(vec![3, 1, 99]))
                    } else {
                        (n.clone(), c.clone())
                    }
                })
                .collect(),
        )
        .unwrap();
        let d = a.diff(&b, 1e-9).unwrap();
        assert!(d.contains("(2, a)"), "{d}");
    }

    #[test]
    fn table_rendering_truncates() {
        let r = Relation::new(vec![(
            "n".into(),
            Column::from_i64((0..50).collect::<Vec<i64>>()),
        )])
        .unwrap();
        let s = r.to_table_string(5);
        assert!(s.contains("50 rows total"));
    }
}
