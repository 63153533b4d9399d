//! Columnar storage: schemas, shared-ownership batches, stored tables.

use pytond_common::{Column, DType, Error, Relation, Result, Value};
use std::sync::Arc;

/// One output/input field: optional table qualifier, name, type.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Table alias the field came from (for qualified resolution).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DType,
}

impl Field {
    /// Unqualified field.
    pub fn new(name: impl Into<String>, dtype: DType) -> Field {
        Field {
            qualifier: None,
            name: name.into(),
            dtype,
        }
    }

    /// Qualified field.
    pub fn qualified(q: impl Into<String>, name: impl Into<String>, dtype: DType) -> Field {
        Field {
            qualifier: Some(q.into()),
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// The fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Resolves a possibly-qualified name to a field index.
    ///
    /// Unqualified names must be unambiguous; qualified names match both
    /// qualifier and name. Returns `Err` on ambiguity or absence.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name.eq_ignore_ascii_case(name)
                    && qualifier.map_or(true, |q| {
                        f.qualifier
                            .as_deref()
                            .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                    })
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(Error::Plan(format!(
                "column '{}{}' not found",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
            _ => Err(Error::Plan(format!(
                "column '{}{}' is ambiguous",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
        }
    }

    /// Concatenation (for join outputs).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Schema with every field re-qualified under one alias.
    pub fn requalify(&self, alias: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field::qualified(alias, f.name.clone(), f.dtype))
                .collect(),
        }
    }
}

/// A materialized batch: shared-ownership columns of equal length.
///
/// Cloning a batch is O(#columns); scans hand out the stored table's columns
/// without copying data.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Columns, `Arc`-shared.
    pub cols: Vec<Arc<Column>>,
}

impl Batch {
    /// Builds from owned columns.
    pub fn from_columns(cols: Vec<Column>) -> Batch {
        Batch {
            cols: cols.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Row-gathers every column.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|c| Arc::new(c.gather(indices)))
                .collect(),
        }
    }

    /// Like [`Batch::gather`] with optional (null-producing) indices.
    pub fn gather_opt(&self, indices: &[Option<usize>]) -> Batch {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|c| Arc::new(c.gather_opt(indices)))
                .collect(),
        }
    }

    /// Concatenates batches row-wise (schemas must match).
    pub fn concat_rows(batches: &[Batch]) -> Result<Batch> {
        let Some(first) = batches.first() else {
            return Ok(Batch::default());
        };
        let ncols = first.num_cols();
        let mut out: Vec<Column> = (0..ncols)
            .map(|i| Column::with_capacity(first.cols[i].dtype(), 0))
            .collect();
        for b in batches {
            if b.num_cols() != ncols {
                return Err(Error::Exec("batch column-count mismatch".into()));
            }
            for (o, c) in out.iter_mut().zip(&b.cols) {
                o.append(c)?;
            }
        }
        Ok(Batch::from_columns(out))
    }

    /// Number of dictionary-encoded columns in the batch (the columns
    /// [`Batch::to_relation`] will decode).
    pub fn dict_cols(&self) -> usize {
        self.cols
            .iter()
            .filter(|c| matches!(***c, Column::DictStr { .. }))
            .count()
    }

    /// Converts to a named relation using `schema` for names.
    ///
    /// This is the engine's **decode boundary**: dictionary-encoded string
    /// columns materialize back to plain `Vec<String>` here, and nowhere
    /// earlier — everything upstream stays in code space.
    pub fn to_relation(&self, schema: &Schema) -> Relation {
        let mut used: Vec<String> = Vec::new();
        let cols = self
            .cols
            .iter()
            .zip(&schema.fields)
            .map(|(c, f)| {
                // Disambiguate duplicate output names (e.g. join of same-named cols).
                let mut name = f.name.clone();
                let mut k = 1;
                while used.contains(&name) {
                    name = format!("{}_{k}", f.name);
                    k += 1;
                }
                used.push(name.clone());
                (name, c.decode_str())
            })
            .collect();
        Relation::new(cols).expect("engine batches are rectangular")
    }
}

/// A stored table: schema + batch + optional statistics.
#[derive(Debug, Clone)]
pub struct StoredTable {
    /// Schema (unqualified field names).
    pub schema: Schema,
    /// The data.
    pub batch: Batch,
    /// Column statistics and zone maps. Present on registered base tables;
    /// `None` on CTE temporaries (not worth a stats pass per query).
    pub stats: Option<crate::stats::TableStats>,
}

impl StoredTable {
    /// Builds from a relation, computing full column statistics.
    pub fn from_relation(rel: &Relation) -> StoredTable {
        StoredTable::from_relation_encoded(rel, false)
    }

    /// Like [`StoredTable::from_relation`]; with `encode` set, string
    /// columns are dictionary-encoded on the way in (the stored dtype stays
    /// `Str` — encoding is a representation, not a schema change).
    pub fn from_relation_encoded(rel: &Relation, encode: bool) -> StoredTable {
        let schema = Schema::new(
            rel.columns()
                .iter()
                .map(|(n, c)| Field::new(n.clone(), c.dtype()))
                .collect(),
        );
        let batch = Batch::from_columns(
            rel.columns()
                .iter()
                .map(|(_, c)| if encode { c.encode_str() } else { c.clone() })
                .collect(),
        );
        let stats = Some(crate::stats::TableStats::compute(&batch.cols));
        StoredTable {
            schema,
            batch,
            stats,
        }
    }

    /// Appends the rows of `rel` (same column names and dtypes, in order),
    /// updating statistics incrementally.
    pub fn append_relation(&mut self, rel: &Relation) -> Result<()> {
        if rel.columns().len() != self.batch.num_cols() {
            return Err(Error::Data(format!(
                "append: expected {} columns, got {}",
                self.batch.num_cols(),
                rel.columns().len()
            )));
        }
        // Validate every column before mutating anything: a mid-append error
        // must not leave the table with unequal column lengths.
        for ((name, col), field) in rel.columns().iter().zip(&self.schema.fields) {
            if !field.name.eq_ignore_ascii_case(name) || field.dtype != col.dtype() {
                return Err(Error::Data(format!(
                    "append: column '{name}' ({}) does not match stored '{}' ({})",
                    col.dtype(),
                    field.name,
                    field.dtype
                )));
            }
        }
        // Stored columns are shared with the published snapshot, so an
        // append always copies; `grown` builds the copy in one size-classed
        // allocation instead of an exact-length clone plus a reallocation.
        for ((_, col), stored) in rel.columns().iter().zip(&mut self.batch.cols) {
            *stored = Arc::new(stored.grown(col)?);
        }
        if let Some(stats) = &mut self.stats {
            stats.extend(&self.batch.cols);
        }
        Ok(())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }
}

/// Builds a single-value batch (used for scalar subquery results).
pub fn scalar_batch(v: Value) -> Result<Batch> {
    Ok(Batch::from_columns(vec![Column::from_values(&[v])?]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("t", "a", DType::Int),
            Field::qualified("t", "b", DType::Str),
            Field::qualified("s", "a", DType::Int),
        ])
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let s = schema();
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("s"), "a").unwrap(), 2);
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert!(s.resolve(None, "a").is_err()); // ambiguous
        assert!(s.resolve(Some("t"), "zz").is_err());
    }

    #[test]
    fn resolve_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.resolve(Some("T"), "A").unwrap(), 0);
    }

    #[test]
    fn batch_gather_and_concat() {
        let b = Batch::from_columns(vec![
            Column::from_i64(vec![1, 2, 3]),
            Column::from_strs(&["x", "y", "z"]),
        ]);
        let g = b.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.cols[0].get(0), Value::Int(3));
        let c = Batch::concat_rows(&[b.clone(), g]).unwrap();
        assert_eq!(c.num_rows(), 5);
    }

    #[test]
    fn relation_conversion_disambiguates_names() {
        let b = Batch::from_columns(vec![Column::from_i64(vec![1]), Column::from_i64(vec![2])]);
        let s = Schema::new(vec![
            Field::qualified("t", "a", DType::Int),
            Field::qualified("s", "a", DType::Int),
        ]);
        let rel = b.to_relation(&s);
        assert_eq!(rel.names(), vec!["a", "a_1"]);
    }
}
