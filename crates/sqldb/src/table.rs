//! Columnar storage: schemas, shared-ownership batches, stored tables.
//!
//! A [`StoredTable`] is a list of immutable [`Chunk`]s: registered as one,
//! grown by [`StoredTable::appended`] in O(batch + zone), every chunk but
//! the last whole zones — so scans and zone maps see a bulk load's grid.
//! Every scan reads the chunks; a read that needs a table's rows contiguous
//! concatenates them itself ([`Batch::concat_rows`]), and holds the copy no
//! longer than the read.

use crate::stats::{TableStats, ZONE_ROWS};
use pytond_common::{Column, DType, Error, Relation, Result};
use std::ops::Range;
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
        Batch::from_arcs(cols.into_iter().map(Arc::new))
    }

    fn from_arcs(cols: impl Iterator<Item = Arc<Column>>) -> Batch {
        let cols = cols.collect();
        Batch { cols }
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
        let cols = self.cols.iter().map(|c| Arc::new(c.gather(indices)));
        Batch::from_arcs(cols)
    }

    /// Like [`Batch::gather`] with optional (null-producing) indices.
    pub fn gather_opt(&self, indices: &[Option<usize>]) -> Batch {
        let cols = self.cols.iter().map(|c| Arc::new(c.gather_opt(indices)));
        Batch::from_arcs(cols)
    }

    /// Concatenates the rows of chunks (schemas must match) into one batch:
    /// the one concatenation of storage chunks, for reads that need a
    /// table's rows contiguous. Encoded columns stay encoded, in the newest
    /// version of their dictionary lineage, codes unchanged.
    pub fn concat_rows(parts: &[Chunk]) -> Result<Batch> {
        let first = parts.first().map_or(&[][..], |c| &c.batch.cols[..]);
        if parts.iter().any(|c| c.batch.num_cols() != first.len()) {
            return Err(Error::Exec("batch column-count mismatch".into()));
        }
        let total = parts.iter().map(|c| c.rows.len()).sum();
        let mut out: Vec<Column> = first.iter().map(|c| c.slice(0, 0)).collect();
        for (i, col) in out.iter_mut().enumerate() {
            col.reserve(total);
            for c in parts {
                col.append_range(&c.batch.cols[i], c.rows.clone())?;
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

/// One immutable piece of a stored table: rows `rows` of a shared batch
/// (which may hold more rows past them, re-held by a later chunk).
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The columns, shared by every table version holding the chunk.
    pub batch: Arc<Batch>,
    /// The chunk's rows of `batch`.
    pub rows: Range<usize>,
}

impl Chunk {
    /// Every row of `batch`.
    pub fn whole(batch: Batch) -> Chunk {
        let rows = 0..batch.num_rows();
        let batch = Arc::new(batch);
        Chunk { batch, rows }
    }

    /// The same rows of the columns at `projection` (all when `None`).
    pub fn project(&self, projection: Option<&[usize]>) -> Chunk {
        let batch = match projection {
            None => self.batch.clone(),
            Some(cols) => Arc::new(Batch {
                cols: cols.iter().map(|&i| self.batch.cols[i].clone()).collect(),
            }),
        };
        let rows = self.rows.clone();
        Chunk { batch, rows }
    }
}

/// A stored table: schema + immutable chunks + optional statistics.
#[derive(Debug, Clone)]
pub struct StoredTable {
    /// Schema (unqualified field names).
    pub schema: Schema,
    /// The rows, in order: at least one chunk (an empty table's carries its
    /// columns' representation), every chunk but the last a whole number of
    /// [`ZONE_ROWS`] zones on a registered table.
    pub chunks: Vec<Chunk>,
    /// Column statistics and zone maps. Present on registered base tables;
    /// `None` on CTE temporaries (not worth a stats pass per query) and on
    /// view-maintenance overlays.
    pub stats: Option<TableStats>,
}

impl StoredTable {
    /// Builds one chunk from a relation, computing full column statistics;
    /// with `encode` set, string columns are dictionary-encoded on the way
    /// in (the stored dtype stays `Str` — encoding is a representation, not
    /// a schema change). A column that arrives encoded is stored in a
    /// dictionary lineage of its own, which appends then grow in place.
    pub fn from_relation_encoded(rel: &Relation, encode: bool) -> StoredTable {
        let cols = rel.columns().iter();
        let fields = cols.clone().map(|(n, c)| Field::new(n.clone(), c.dtype()));
        let stored = |c: &Column| if encode { c.encode_str() } else { c.clone() };
        let batch = Batch::from_columns(cols.map(|(_, c)| stored(c).into_own_lineage()).collect());
        StoredTable {
            schema: Schema::new(fields.collect()),
            stats: Some(TableStats::compute(&batch.cols)),
            chunks: vec![Chunk::whole(batch)],
        }
    }

    /// The next version of this table: its rows followed by those of `rel`
    /// (same column names and dtypes, in order). Every chunk up to the last
    /// zone boundary is shared; the open zone's rows (fewer than
    /// [`ZONE_ROWS`]) and the batch are copied into one new last chunk,
    /// growing the table's dictionary lineages in place, and the statistics
    /// absorb that chunk.
    pub fn appended(&self, rel: &Relation) -> Result<StoredTable> {
        if rel.columns().len() != self.schema.len() {
            return Err(Error::Data(format!(
                "append: expected {} columns, got {}",
                self.schema.len(),
                rel.columns().len()
            )));
        }
        // Validate every column before building anything.
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
        if rel.num_rows() == 0 {
            return Ok(self.clone());
        }
        // The last chunk starts on a zone boundary, so its rows past the
        // last boundary are the table's final `rows % ZONE_ROWS`: the open
        // zone. The rows before it stay, as a shared chunk of their own.
        let mut chunks = self.chunks.clone();
        let mut last = chunks.pop().expect("a stored table keeps a chunk");
        let end = last.rows.end;
        last.rows.end -= self.num_rows() % ZONE_ROWS;
        let mut cols = Vec::with_capacity(rel.columns().len());
        for (old, (_, new)) in last.batch.cols.iter().zip(rel.columns()) {
            let mut col = old.slice(last.rows.end, end);
            col.reserve(new.len());
            col.append_in_lineage(new)?;
            cols.push(col);
        }
        if !last.rows.is_empty() {
            chunks.push(last);
        }
        let tail = Chunk::whole(Batch::from_columns(cols));
        let mut stats = self.stats.clone();
        if let Some(stats) = &mut stats {
            stats.extend(&tail.batch.cols);
        }
        chunks.push(tail);
        Ok(StoredTable {
            schema: self.schema.clone(),
            chunks,
            stats,
        })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.chunks.iter().map(|c| c.rows.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::Value;

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
        let c = Batch::concat_rows(&[Chunk::whole(b.clone()), Chunk::whole(g)]).unwrap();
        assert_eq!(c.num_rows(), 5);
    }

    /// Concatenated chunks of an encoded table stay encoded, in the newest
    /// version of the dictionary lineage, with their codes unchanged.
    #[test]
    fn concat_rows_keeps_dictionary_codes() {
        let rel = |s: &[&str]| Relation::new(vec![("s".into(), Column::from_strs(s))]).unwrap();
        let t0 = StoredTable::from_relation_encoded(&rel(&["a", "b", "a"]), true);
        let t1 = t0.appended(&rel(&["c", "a"])).unwrap();
        let t2 = t1.appended(&rel(&["b", "d"])).unwrap();
        // Rows 0..5 under the version [a b c], rows 5..7 under [a b c d].
        let older = t1.chunks[0].clone();
        let newer = Chunk {
            rows: 5..7,
            ..t2.chunks[0].clone()
        };
        assert_eq!(older.batch.cols[0].dict_parts().unwrap().1.len(), 3);
        let all = Batch::concat_rows(&[older, newer]).unwrap();
        let (codes, dict, _) = all.cols[0].dict_parts().expect("stays encoded");
        assert_eq!(codes, [0, 1, 0, 2, 0, 1, 3]);
        assert!(dict.strs().eq(["a", "b", "c", "d"]));
    }

    /// Two tables registered from one encoded relation grow dictionary
    /// lineages of their own: rows of both concatenated decode as put in.
    #[test]
    fn tables_from_one_encoded_relation_grow_apart() {
        let rel = |s: &[&str]| Relation::new(vec![("s".into(), Column::from_strs(s))]).unwrap();
        let encoded = Relation::new(vec![(
            "s".into(),
            rel(&["a", "b"]).columns()[0].1.encode_str(),
        )]);
        let encoded = encoded.unwrap();
        let a = StoredTable::from_relation_encoded(&encoded, true);
        let b = StoredTable::from_relation_encoded(&encoded, false);
        let (a, b) = (
            a.appended(&rel(&["x"])).unwrap(),
            b.appended(&rel(&["y"])).unwrap(),
        );
        let lineage = |t: &StoredTable| t.chunks[0].batch.cols[0].dict_parts().unwrap().1.lineage();
        assert_ne!(lineage(&a), lineage(&b));
        let both = Batch::concat_rows(&[a.chunks[0].clone(), b.chunks[0].clone()]).unwrap();
        let strs = both.cols[0].decode_str();
        assert_eq!(strs.as_str_col(), ["a", "b", "x", "a", "b", "y"]);
    }

    /// Rows `[lo, lo + n)` of a two-column table (an int and a string).
    fn rows(lo: usize, n: usize) -> Relation {
        let ids: Vec<i64> = (lo..lo + n).map(|i| i as i64).collect();
        let words: Vec<String> = (lo..lo + n).map(|i| format!("w{}", i % 5000)).collect();
        Relation::new(vec![
            ("id".into(), Column::from_i64(ids)),
            ("s".into(), Column::from_str_vec(words)),
        ])
        .unwrap()
    }

    /// An append shares every closed chunk with the version before it and
    /// copies at most the open zone plus the batch; every chunk but the
    /// last holds whole zones; the rows read back are the rows put in.
    #[test]
    fn appends_share_closed_chunks_and_copy_one_zone() {
        let z = ZONE_ROWS;
        let mut t = StoredTable::from_relation_encoded(&rows(0, 2 * z + 7), true);
        let mut n = 2 * z + 7;
        for k in [0, 1, z - 1, z, z + 1, 3 * z + 5, 100] {
            let next = t.appended(&rows(n, k)).unwrap();
            let old: Vec<&Arc<Batch>> = t.chunks.iter().map(|c| &c.batch).collect();
            let copied: usize = (next.chunks.iter())
                .filter(|c| !old.iter().any(|b| Arc::ptr_eq(b, &c.batch)))
                .map(|c| c.rows.len())
                .sum();
            assert!(copied <= z - 1 + k, "+{k}: {copied} rows copied");
            let closed = &next.chunks[..next.chunks.len() - 1];
            let zoned = |c: &Chunk| c.rows.len() % z == 0 && !c.rows.is_empty();
            assert!(closed.iter().all(zoned), "+{k}");
            for c in closed.iter().take(t.chunks.len() - 1) {
                let shared = old.iter().any(|b| Arc::ptr_eq(b, &c.batch));
                assert!(shared, "+{k}: closed chunk copied");
            }
            n += k;
            assert_eq!(next.num_rows(), n);
            let ids = Batch::concat_rows(&next.chunks).unwrap().cols[0].clone();
            assert_eq!(ids.as_int(), (0..n as i64).collect::<Vec<_>>());
            t = next;
        }
        let strs = Batch::concat_rows(&t.chunks).unwrap().cols[1].decode_str();
        assert_eq!(strs, *rows(0, n).column("s").unwrap());
        let lineage = |c: &Chunk| c.batch.cols[1].dict_parts().unwrap().1.lineage();
        assert!(t.chunks.iter().all(|c| lineage(c) == lineage(&t.chunks[0])));
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
