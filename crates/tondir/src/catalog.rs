//! Schema and constraint metadata — PyTond's "contextual information".
//!
//! The paper's Section III-A describes two sources of context: the DBMS
//! catalog (schemas, uniqueness/PK constraints, cardinalities) and `@pytond`
//! decorator arguments. Both funnel into this [`Catalog`], which the
//! translator uses for type inference and the optimizer uses for
//! group-aggregate and self-join elimination.

use pytond_common::{DType, Error, Result};
use std::collections::BTreeMap;

/// Schema of one base table plus the constraints the optimizer can exploit.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// `(column, type)` pairs in schema order.
    pub cols: Vec<(String, DType)>,
    /// Column sets known to be unique (primary key first, by convention).
    pub unique: Vec<Vec<String>>,
    /// Columns known to hold no NULL. Uniqueness alone does not imply it: a
    /// declared key may hold a NULL row.
    pub not_null: Vec<String>,
    /// Estimated/exact row count when known.
    pub row_count: Option<u64>,
}

impl TableSchema {
    /// Creates a schema with no constraints.
    pub fn new(name: impl Into<String>, cols: Vec<(String, DType)>) -> TableSchema {
        TableSchema {
            name: name.into(),
            cols,
            unique: Vec::new(),
            not_null: Vec::new(),
            row_count: None,
        }
    }

    /// Adds a uniqueness constraint over `cols` (builder style).
    pub fn with_unique(mut self, cols: &[&str]) -> TableSchema {
        self.unique
            .push(cols.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Declares `cols` free of NULLs (builder style).
    pub fn with_not_null(mut self, cols: &[&str]) -> TableSchema {
        self.not_null.extend(cols.iter().map(|c| c.to_string()));
        self
    }

    /// Sets the row count (builder style).
    pub fn with_rows(mut self, n: u64) -> TableSchema {
        self.row_count = Some(n);
        self
    }

    /// Column names in order.
    pub fn col_names(&self) -> Vec<&str> {
        self.cols.iter().map(|(c, _)| c.as_str()).collect()
    }

    /// Looks up a column's type.
    pub fn col_type(&self, name: &str) -> Option<DType> {
        self.cols.iter().find(|(c, _)| c == name).map(|(_, t)| *t)
    }

    /// Position of a column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(c, _)| c == name)
    }

    /// `true` when the given column set contains a unique key (a superset of
    /// any declared unique set is itself unique).
    pub fn is_unique_key(&self, cols: &[&str]) -> bool {
        self.unique
            .iter()
            .any(|key| key.iter().all(|k| cols.contains(&k.as_str())))
    }
}

/// The catalog: all base-table schemas visible to the compiler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers (or replaces) a table schema.
    pub fn add(&mut self, schema: TableSchema) {
        self.tables.insert(schema.name.clone(), schema);
    }

    /// Builder-style [`Catalog::add`].
    pub fn with(mut self, schema: TableSchema) -> Catalog {
        self.add(schema);
        self
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(name)
    }

    /// Like [`Catalog::table`] but returns a catalog error.
    pub fn expect_table(&self, name: &str) -> Result<&TableSchema> {
        self.table(name)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))
    }

    /// Iterates all schemas in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "orders",
            vec![
                ("o_orderkey".into(), DType::Int),
                ("o_custkey".into(), DType::Int),
                ("o_totalprice".into(), DType::Float),
            ],
        )
        .with_unique(&["o_orderkey"])
        .with_rows(1500)
    }

    #[test]
    fn lookup_paths() {
        let s = schema();
        assert_eq!(s.col_type("o_custkey"), Some(DType::Int));
        assert_eq!(s.col_index("o_totalprice"), Some(2));
        assert_eq!(s.col_type("nope"), None);
        assert_eq!(s.row_count, Some(1500));
    }

    #[test]
    fn unique_key_supersets_count() {
        let s = schema();
        assert!(s.is_unique_key(&["o_orderkey"]));
        assert!(s.is_unique_key(&["o_orderkey", "o_custkey"]));
        assert!(!s.is_unique_key(&["o_custkey"]));
    }

    #[test]
    fn catalog_registration() {
        let cat = Catalog::new().with(schema());
        assert!(cat.table("orders").is_some());
        assert!(cat.expect_table("lineitem").is_err());
        assert_eq!(cat.len(), 1);
    }
}
