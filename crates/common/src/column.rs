//! Typed columnar storage with optional validity (null) masks.
//!
//! A [`Column`] is the unit of data everywhere in the reproduction: tables in
//! the SQL engine, series in the DataFrame baseline, and result sets. Storage
//! is a plain `Vec` per type plus an optional `Vec<bool>` validity mask
//! (`None` = all rows valid), which keeps the common null-free path
//! branch-light.

use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::value::Value;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Static column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Days since 1970-01-01.
    Date,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Bool => "bool",
            DType::Str => "str",
            DType::Date => "date",
        };
        write!(f, "{s}")
    }
}

impl DType {
    /// `true` for types that participate in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float)
    }
}

/// Entries per frozen block of a [`Dictionary`]: the unit its versions share.
const DICT_BLOCK: usize = 1024;

/// Issues [`Dictionary`] lineage ids.
static LINEAGES: AtomicU64 = AtomicU64::new(1);

/// A deduplicated, order-preserving string dictionary: code `i` maps to the
/// `i`-th distinct string in first-occurrence order, and codes never move.
///
/// A dictionary is one *version* of an append-only code list, its
/// **lineage**. Growing it yields a longer version whose first codes mean
/// what they meant before, so two versions of one lineage compare codes
/// directly and the longer one decodes both ([`Dictionary::same_lineage`]).
/// Entries live in frozen blocks of 1024 strings, `Arc`-shared by
/// every version holding them, plus a short open block each version owns;
/// the string → code index is likewise a few shared runs (merged
/// geometrically as blocks freeze) plus the open block's. Cloning a version
/// therefore costs O(open block + blocks), and a stored column grows its
/// dictionary by an append's new strings without copying what the snapshots
/// before it hold.
///
/// Only the newest version of a lineage may grow in place
/// ([`Dictionary::intern`]); [`Column::append`] and [`Column::push`] fork a
/// lineage of their own before their first new entry, and a column stored
/// to grow in place starts one ([`Column::into_own_lineage`]), so no two
/// versions sharing a lineage id ever disagree on a code.
#[derive(Debug, Clone)]
pub struct Dictionary {
    lineage: u64,
    /// Frozen entries, exactly `DICT_BLOCK` per block.
    blocks: Vec<Arc<[Arc<str>]>>,
    /// Index runs over the frozen entries, largest (oldest) first.
    runs: Vec<Arc<FxHashMap<Arc<str>, u32>>>,
    /// Entries after the last frozen block.
    open: Vec<Arc<str>>,
    /// Index over `open`.
    open_index: FxHashMap<Arc<str>, u32>,
}

impl Default for Dictionary {
    fn default() -> Dictionary {
        Dictionary::new()
    }
}

impl Dictionary {
    /// An empty dictionary: the first version of a new lineage.
    pub fn new() -> Dictionary {
        Dictionary {
            lineage: LINEAGES.fetch_add(1, Relaxed),
            blocks: Vec::new(),
            runs: Vec::new(),
            open: Vec::new(),
            open_index: FxHashMap::default(),
        }
    }

    /// A new lineage over distinct entries in code order and their index
    /// (`index[s]` is the position of `s` in `strs`).
    fn from_parts(strs: Vec<Arc<str>>, mut index: FxHashMap<Arc<str>, u32>) -> Dictionary {
        let frozen = strs.len() - strs.len() % DICT_BLOCK;
        let mut dict = Dictionary::new();
        dict.blocks = strs[..frozen].chunks(DICT_BLOCK).map(Arc::from).collect();
        dict.open = strs[frozen..].to_vec();
        for s in &dict.open {
            let code = index.remove(s).expect("every entry is indexed");
            dict.open_index.insert(s.clone(), code);
        }
        if !index.is_empty() {
            dict.runs.push(Arc::new(index));
        }
        dict
    }

    /// Whether `other` is a version of the same code list: codes below both
    /// lengths mean the same string in each.
    pub fn same_lineage(&self, other: &Dictionary) -> bool {
        self.lineage == other.lineage
    }

    /// The lineage id (see [`Dictionary::same_lineage`]).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Leaves this version's lineage for a new one with the same entries:
    /// what any holder of a version that may not be its lineage's newest
    /// does before growing it.
    fn fork(&mut self) {
        self.lineage = LINEAGES.fetch_add(1, Relaxed);
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.blocks.len() * DICT_BLOCK + self.open.len()
    }

    /// `true` when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string for `code` (panics when out of range).
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let c = code as usize;
        match self.blocks.get(c / DICT_BLOCK) {
            Some(block) => &block[c % DICT_BLOCK],
            None => &self.open[c - self.blocks.len() * DICT_BLOCK],
        }
    }

    /// The code for `s`, when present.
    #[inline]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        let frozen = self.runs.iter().find_map(|run| run.get(s));
        frozen.or_else(|| self.open_index.get(s)).copied()
    }

    /// The code for `s`, interning it if absent — in this dictionary's own
    /// lineage, so the caller must hold its newest version: one it built,
    /// or a stored column's under the database writer lock. Existing codes
    /// never move.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(c) = self.code_of(s) {
            return c;
        }
        let c = self.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.open.push(s.clone());
        self.open_index.insert(s, c);
        if self.open.len() == DICT_BLOCK {
            self.freeze();
        }
        c
    }

    /// Freezes the full open block into a shared block and index run,
    /// merged with every older run no larger than it (a binary counter:
    /// each entry is re-indexed O(log len) times overall).
    fn freeze(&mut self) {
        self.blocks.push(std::mem::take(&mut self.open).into());
        let mut run = std::mem::take(&mut self.open_index);
        while self
            .runs
            .last()
            .is_some_and(|older| older.len() <= run.len())
        {
            let older = self.runs.pop().expect("checked above");
            let mut older = Arc::try_unwrap(older).unwrap_or_else(|shared| (*shared).clone());
            older.extend(run);
            run = older;
        }
        self.runs.push(Arc::new(run));
    }

    /// All entries in code order.
    pub fn strs(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.len() as u32).map(|c| self.get(c))
    }

    /// Per-code translation table into `target`'s code space; `None` marks
    /// entries absent from `target`.
    pub fn translate_to(&self, target: &Dictionary) -> Vec<Option<u32>> {
        if self.same_lineage(target) {
            let shared = target.len() as u32;
            return (0..self.len() as u32)
                .map(|c| (c < shared).then_some(c))
                .collect();
        }
        self.strs().map(|s| target.code_of(s)).collect()
    }

    /// Estimated heap footprint of the string payload and lookup index.
    pub fn heap_bytes(&self) -> u64 {
        // Two reference counts beside each text, a fat pointer to it from
        // the list and another, plus the code, from the index.
        let payload: u64 = self.strs().map(|s| (16 + s.len()) as u64).sum();
        payload + (16 + 16 + 4) * self.len() as u64
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Dictionary) -> bool {
        self.len() == other.len() && (self.same_lineage(other) || self.strs().eq(other.strs()))
    }
}

/// The code of `s` in `dict`, interning it if absent — into a fork of the
/// lineage when `fork` is set (and then cleared), into the lineage itself
/// otherwise.
fn intern_into(dict: &mut Arc<Dictionary>, s: &str, fork: &mut bool) -> u32 {
    if let Some(c) = dict.code_of(s) {
        return c;
    }
    let d = Arc::make_mut(dict);
    if std::mem::take(fork) {
        d.fork();
    }
    d.intern(s)
}

/// Borrowed view of a [`Column::DictStr`]: `(codes, dict, validity)`.
pub type DictParts<'a> = (&'a [u32], &'a Arc<Dictionary>, Option<&'a [bool]>);

/// A typed column of values with an optional validity mask.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integers. Second field: validity, `None` = all valid.
    Int(Vec<i64>, Option<Vec<bool>>),
    /// Floats.
    Float(Vec<f64>, Option<Vec<bool>>),
    /// Booleans.
    Bool(Vec<bool>, Option<Vec<bool>>),
    /// Strings.
    Str(Vec<String>, Option<Vec<bool>>),
    /// Dictionary-encoded strings: dense `u32` codes into a shared,
    /// order-preserving [`Dictionary`]. Reports [`DType::Str`] — the encoding
    /// is a storage/execution representation, not a logical type. Codes at
    /// invalid rows are placeholders (possibly out of dictionary range);
    /// every consumer checks validity before decoding.
    DictStr {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared code→string dictionary.
        dict: Arc<Dictionary>,
        /// Validity, `None` = all valid.
        valid: Option<Vec<bool>>,
    },
    /// Dates (days since epoch).
    Date(Vec<i32>, Option<Vec<bool>>),
}

macro_rules! per_variant {
    ($self:expr, $data:ident, $valid:ident => $body:expr) => {
        match $self {
            Column::Int($data, $valid) => $body,
            Column::Float($data, $valid) => $body,
            Column::Bool($data, $valid) => $body,
            Column::Str($data, $valid) => $body,
            Column::DictStr {
                codes: $data,
                valid: $valid,
                ..
            } => $body,
            Column::Date($data, $valid) => $body,
        }
    };
}

impl Column {
    /// Creates an empty column of type `dtype`.
    pub fn new(dtype: DType) -> Column {
        Column::with_capacity(dtype, 0)
    }

    /// Creates an empty column of type `dtype` with reserved capacity.
    pub fn with_capacity(dtype: DType, cap: usize) -> Column {
        match dtype {
            DType::Int => Column::Int(Vec::with_capacity(cap), None),
            DType::Float => Column::Float(Vec::with_capacity(cap), None),
            DType::Bool => Column::Bool(Vec::with_capacity(cap), None),
            DType::Str => Column::Str(Vec::with_capacity(cap), None),
            DType::Date => Column::Date(Vec::with_capacity(cap), None),
        }
    }

    /// Reserves capacity for at least `additional` more rows, so bulk
    /// concatenations (e.g. pipeline-sink merges that know the total row
    /// count up front) avoid doubling reallocations.
    pub fn reserve(&mut self, additional: usize) {
        per_variant!(self, data, valid => {
            data.reserve(additional);
            if let Some(v) = valid {
                v.reserve(additional);
            }
        })
    }

    /// Builds a column from scalar values; the dtype is taken from the first
    /// non-null value (default `Float` when all values are null).
    pub fn from_values(values: &[Value]) -> Result<Column> {
        let dtype = values
            .iter()
            .find_map(|v| v.dtype())
            .unwrap_or(DType::Float);
        let mut col = Column::with_capacity(dtype, values.len());
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        per_variant!(self, data, _valid => data.len())
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated heap footprint in bytes: element storage plus string
    /// payloads plus the validity vector. A coarse estimate (capacity slack
    /// and allocator overhead are ignored) used by the per-query memory
    /// budget to charge materialized intermediates; see `docs/RESILIENCE.md`.
    pub fn heap_bytes(&self) -> u64 {
        let elems = match self {
            Column::Int(d, _) => std::mem::size_of_val(d.as_slice()) as u64,
            Column::Float(d, _) => std::mem::size_of_val(d.as_slice()) as u64,
            Column::Bool(d, _) => std::mem::size_of_val(d.as_slice()) as u64,
            // Vec slot capacity (not len) plus each string's own buffer: a
            // `Vec<String>` owns `capacity()` 24-byte slots whether or not
            // they are filled, and every `String` owns its byte buffer.
            Column::Str(d, _) => {
                (std::mem::size_of::<String>() * d.capacity()) as u64
                    + d.iter().map(|s| s.capacity() as u64).sum::<u64>()
            }
            // Codes always count; the shared dictionary payload counts only
            // while this column holds its sole reference — shared dicts were
            // charged when first materialized and must not be re-charged by
            // every view (see `docs/RESILIENCE.md` § memory budget).
            Column::DictStr { codes, dict, .. } => {
                let dict_bytes = if Arc::strong_count(dict) == 1 {
                    dict.heap_bytes()
                } else {
                    0
                };
                4 * codes.capacity() as u64 + dict_bytes
            }
            Column::Date(d, _) => std::mem::size_of_val(d.as_slice()) as u64,
        };
        let valid = per_variant!(self, _data, valid => {
            valid.as_ref().map_or(0, |v| v.len() as u64)
        });
        elems + valid
    }

    /// The column's static type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int(..) => DType::Int,
            Column::Float(..) => DType::Float,
            Column::Bool(..) => DType::Bool,
            Column::Str(..) | Column::DictStr { .. } => DType::Str,
            Column::Date(..) => DType::Date,
        }
    }

    /// `true` when row `i` holds a valid (non-null) value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        per_variant!(self, _data, valid => valid.as_ref().map_or(true, |v| v[i]))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        per_variant!(self, _data, valid => valid
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&b| !b).count()))
    }

    /// Reads row `i` as a scalar [`Value`].
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int(d, _) => Value::Int(d[i]),
            Column::Float(d, _) => Value::Float(d[i]),
            Column::Bool(d, _) => Value::Bool(d[i]),
            Column::Str(d, _) => Value::Str(d[i].clone()),
            Column::DictStr { codes, dict, .. } => Value::Str(dict.get(codes[i]).to_string()),
            Column::Date(d, _) => Value::Date(d[i]),
        }
    }

    /// Appends a scalar. `Null` appends a placeholder and marks the row
    /// invalid. Ints widen to float columns; strings parse into date columns.
    pub fn push(&mut self, v: Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        match (&mut *self, v) {
            (Column::Int(d, val), Value::Int(x)) => push_valid(d, val, x),
            (Column::Float(d, val), Value::Float(x)) => push_valid(d, val, x),
            (Column::Float(d, val), Value::Int(x)) => push_valid(d, val, x as f64),
            (Column::Bool(d, val), Value::Bool(x)) => push_valid(d, val, x),
            (Column::Str(d, val), Value::Str(x)) => push_valid(d, val, x),
            (Column::DictStr { codes, dict, valid }, Value::Str(x)) => {
                let c = intern_into(dict, &x, &mut true);
                push_valid(codes, valid, c)
            }
            (Column::Date(d, val), Value::Date(x)) => push_valid(d, val, x),
            (Column::Date(d, val), Value::Str(x)) => {
                let parsed = crate::date::parse(&x)
                    .ok_or_else(|| Error::Data(format!("cannot parse '{x}' as date")))?;
                push_valid(d, val, parsed)
            }
            (col, v) => Err(Error::Data(format!(
                "type mismatch: cannot push {:?} into {} column",
                v,
                col.dtype()
            ))),
        }
    }

    /// Appends a null row.
    pub fn push_null(&mut self) {
        per_variant!(self, data, valid => {
            let n = data.len();
            data.push(Default::default());
            match valid {
                Some(v) => v.push(false),
                None => {
                    let mut v = vec![true; n];
                    v.push(false);
                    *valid = Some(v);
                }
            }
        })
    }

    /// Returns a new column with the rows at `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> Column {
        fn g<T: Clone + Default>(
            data: &[T],
            valid: &Option<Vec<bool>>,
            idx: &[usize],
        ) -> (Vec<T>, Option<Vec<bool>>) {
            let out: Vec<T> = idx.iter().map(|&i| data[i].clone()).collect();
            let v = valid.as_ref().map(|v| idx.iter().map(|&i| v[i]).collect());
            (out, v)
        }
        match self {
            Column::Int(d, v) => {
                let (d, v) = g(d, v, indices);
                Column::Int(d, v)
            }
            Column::Float(d, v) => {
                let (d, v) = g(d, v, indices);
                Column::Float(d, v)
            }
            Column::Bool(d, v) => {
                let (d, v) = g(d, v, indices);
                Column::Bool(d, v)
            }
            Column::Str(d, v) => {
                let (d, v) = g(d, v, indices);
                Column::Str(d, v)
            }
            Column::DictStr { codes, dict, valid } => {
                let (codes, valid) = g(codes, valid, indices);
                Column::DictStr {
                    codes,
                    dict: dict.clone(),
                    valid,
                }
            }
            Column::Date(d, v) => {
                let (d, v) = g(d, v, indices);
                Column::Date(d, v)
            }
        }
    }

    /// Like [`Column::gather`], but `None` indices produce null rows — used by
    /// outer joins for non-matching sides.
    pub fn gather_opt(&self, indices: &[Option<usize>]) -> Column {
        // Dictionary-encoded columns stay encoded (codes move, the shared
        // dictionary doesn't): outer-join outputs keep riding code space.
        if let Column::DictStr { codes, dict, valid } = self {
            let mut out_codes = Vec::with_capacity(indices.len());
            let mut out_valid = vec![true; indices.len()];
            let mut any_null = false;
            for (k, ix) in indices.iter().enumerate() {
                match ix {
                    Some(i) => {
                        out_codes.push(codes[*i]);
                        if valid.as_ref().is_some_and(|v| !v[*i]) {
                            out_valid[k] = false;
                            any_null = true;
                        }
                    }
                    None => {
                        out_codes.push(0);
                        out_valid[k] = false;
                        any_null = true;
                    }
                }
            }
            return Column::DictStr {
                codes: out_codes,
                dict: dict.clone(),
                valid: any_null.then_some(out_valid),
            };
        }
        let mut out = Column::with_capacity(self.dtype(), indices.len());
        for ix in indices {
            match ix {
                Some(i) => {
                    // push cannot fail: the value comes from this column.
                    out.push(self.get(*i)).expect("same dtype");
                }
                None => out.push_null(),
            }
        }
        out
    }

    /// Keeps the rows where `mask` is `true`.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.gather(&indices)
    }

    /// Returns rows `[start, end)` as a new column.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let end = end.min(self.len());
        let start = start.min(end);
        fn s<T: Clone>(
            data: &[T],
            valid: &Option<Vec<bool>>,
            start: usize,
            end: usize,
        ) -> (Vec<T>, Option<Vec<bool>>) {
            (
                data[start..end].to_vec(),
                valid.as_ref().map(|v| v[start..end].to_vec()),
            )
        }
        match self {
            Column::Int(d, v) => {
                let (d, v) = s(d, v, start, end);
                Column::Int(d, v)
            }
            Column::Float(d, v) => {
                let (d, v) = s(d, v, start, end);
                Column::Float(d, v)
            }
            Column::Bool(d, v) => {
                let (d, v) = s(d, v, start, end);
                Column::Bool(d, v)
            }
            Column::Str(d, v) => {
                let (d, v) = s(d, v, start, end);
                Column::Str(d, v)
            }
            Column::DictStr { codes, dict, valid } => {
                let (codes, valid) = s(codes, valid, start, end);
                Column::DictStr {
                    codes,
                    dict: dict.clone(),
                    valid,
                }
            }
            Column::Date(d, v) => {
                let (d, v) = s(d, v, start, end);
                Column::Date(d, v)
            }
        }
    }

    /// Appends all rows of `other`; types must match. A dictionary-encoded
    /// column that must take strings its dictionary lacks grows a fork of
    /// it (see [`Dictionary`]); another version of its own lineage appends
    /// by code and leaves it holding the longer version.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        self.extend_from(other, 0..other.len(), true)
    }

    /// [`Column::append`] of rows `rows` of `other` only.
    pub fn append_range(&mut self, other: &Column, rows: Range<usize>) -> Result<()> {
        self.extend_from(other, rows, true)
    }

    /// [`Column::append`] growing a dictionary in its own lineage: only for
    /// the newest version of a stored column, under the database writer
    /// lock, so every chunk and snapshot of a table shares one code space.
    pub fn append_in_lineage(&mut self, other: &Column) -> Result<()> {
        self.extend_from(other, 0..other.len(), false)
    }

    fn extend_from(&mut self, other: &Column, rows: Range<usize>, mut fork: bool) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(Error::Data(format!(
                "cannot append {} column to {} column",
                other.dtype(),
                self.dtype()
            )));
        }
        let valid_at = |ov: &Option<Vec<bool>>, i: usize| ov.as_ref().map_or(true, |v| v[i]);
        let (r, mask) = (rows.clone(), |ov| mask_part(ov, &rows));
        match (self, other) {
            (Column::Int(d, v), Column::Int(od, ov)) => extend_typed(d, v, &od[r], mask(ov)),
            (Column::Float(d, v), Column::Float(od, ov)) => extend_typed(d, v, &od[r], mask(ov)),
            (Column::Bool(d, v), Column::Bool(od, ov)) => extend_typed(d, v, &od[r], mask(ov)),
            (Column::Str(d, v), Column::Str(od, ov)) => extend_typed(d, v, &od[r], mask(ov)),
            (Column::Date(d, v), Column::Date(od, ov)) => extend_typed(d, v, &od[r], mask(ov)),
            (
                Column::DictStr { codes, dict, valid },
                Column::DictStr {
                    codes: oc,
                    dict: od,
                    valid: ov,
                },
            ) => {
                if dict.same_lineage(od) {
                    // One code list: codes carry over, and the longer
                    // version decodes both sides' rows.
                    if od.len() > dict.len() {
                        *dict = od.clone();
                    }
                    extend_typed(codes, valid, &oc[r], mask(ov));
                } else {
                    // Remap into this column's dictionary, interning each
                    // entry the rows reference on first use — in row order,
                    // as a bulk encode of the same rows would.
                    let mut remap = vec![u32::MAX; od.len()];
                    let coded = rows.map(|i| {
                        valid_at(ov, i).then(|| {
                            let slot = &mut remap[oc[i] as usize];
                            if *slot == u32::MAX {
                                *slot = intern_into(dict, od.get(oc[i]), &mut fork);
                            }
                            *slot
                        })
                    });
                    extend_rows(codes, valid, coded);
                }
            }
            (Column::DictStr { codes, dict, valid }, Column::Str(od, ov)) => {
                // Plain strings re-encode against the existing dictionary;
                // only a string it does not hold yet grows it.
                let coded =
                    rows.map(|i| valid_at(ov, i).then(|| intern_into(dict, &od[i], &mut fork)));
                extend_rows(codes, valid, coded);
            }
            (
                Column::Str(d, v),
                Column::DictStr {
                    codes: oc,
                    dict: od,
                    valid: ov,
                },
            ) => {
                let decoded = rows.map(|i| valid_at(ov, i).then(|| od.get(oc[i]).to_string()));
                extend_rows(d, v, decoded);
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Casts to `target`, converting row by row (int↔float, anything→str,
    /// str→date, int→bool non-zero).
    pub fn cast(&self, target: DType) -> Result<Column> {
        if self.dtype() == target {
            return Ok(self.clone());
        }
        let mut out = Column::with_capacity(target, self.len());
        for i in 0..self.len() {
            let v = self.get(i);
            let conv = match (&v, target) {
                (Value::Null, _) => Value::Null,
                (Value::Int(x), DType::Float) => Value::Float(*x as f64),
                (Value::Float(x), DType::Int) => Value::Int(*x as i64),
                (Value::Bool(b), DType::Int) => Value::Int(i64::from(*b)),
                (Value::Int(x), DType::Bool) => Value::Bool(*x != 0),
                (Value::Str(s), DType::Date) => Value::Date(
                    crate::date::parse(s)
                        .ok_or_else(|| Error::Data(format!("cannot cast '{s}' to date")))?,
                ),
                (Value::Date(d), DType::Int) => Value::Int(i64::from(*d)),
                (Value::Int(x), DType::Date) => Value::Date(*x as i32),
                (v, DType::Str) => Value::Str(v.to_string()),
                (v, t) => {
                    return Err(Error::Data(format!("cannot cast {v:?} to {t}")));
                }
            };
            out.push(conv)?;
        }
        Ok(out)
    }

    /// Iterates scalar values (clones strings; fine for tests/small paths).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Zero-copy view of integer data, `None` for other dtypes. Together with
    /// [`Column::validity`], this is the accessor the typed kernels dispatch
    /// on: one dtype check per column, then monomorphic loops over the slice.
    #[inline]
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int(d, _) => Some(d),
            _ => None,
        }
    }

    /// Zero-copy view of float data, `None` for other dtypes.
    #[inline]
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float(d, _) => Some(d),
            _ => None,
        }
    }

    /// Zero-copy view of bool data, `None` for other dtypes.
    #[inline]
    pub fn as_bool_slice(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(d, _) => Some(d),
            _ => None,
        }
    }

    /// Zero-copy view of date data (days since epoch), `None` otherwise.
    #[inline]
    pub fn as_date_slice(&self) -> Option<&[i32]> {
        match self {
            Column::Date(d, _) => Some(d),
            _ => None,
        }
    }

    /// Zero-copy view of string data, `None` for other dtypes.
    #[inline]
    pub fn as_str_slice(&self) -> Option<&[String]> {
        match self {
            Column::Str(d, _) => Some(d),
            _ => None,
        }
    }

    /// Direct access to integer data (panics on wrong type) — fast paths.
    pub fn as_int(&self) -> &[i64] {
        match self {
            Column::Int(d, _) => d,
            _ => panic!("not an int column"),
        }
    }

    /// Direct access to float data (panics on wrong type).
    pub fn as_float(&self) -> &[f64] {
        match self {
            Column::Float(d, _) => d,
            _ => panic!("not a float column"),
        }
    }

    /// Direct access to bool data (panics on wrong type).
    pub fn as_bool(&self) -> &[bool] {
        match self {
            Column::Bool(d, _) => d,
            _ => panic!("not a bool column"),
        }
    }

    /// Direct access to string data (panics on wrong type).
    pub fn as_str_col(&self) -> &[String] {
        match self {
            Column::Str(d, _) => d,
            _ => panic!("not a str column"),
        }
    }

    /// Direct access to date data (panics on wrong type).
    pub fn as_date(&self) -> &[i32] {
        match self {
            Column::Date(d, _) => d,
            _ => panic!("not a date column"),
        }
    }

    /// The validity mask if any row is null.
    pub fn validity(&self) -> Option<&[bool]> {
        per_variant!(self, _data, valid => valid.as_deref())
    }

    /// Convenience constructor from `i64` data.
    pub fn from_i64(data: Vec<i64>) -> Column {
        Column::Int(data, None)
    }

    /// Convenience constructor from `f64` data.
    pub fn from_f64(data: Vec<f64>) -> Column {
        Column::Float(data, None)
    }

    /// Convenience constructor from bool data.
    pub fn from_bool(data: Vec<bool>) -> Column {
        Column::Bool(data, None)
    }

    /// Convenience constructor from string data.
    pub fn from_str_vec(data: Vec<String>) -> Column {
        Column::Str(data, None)
    }

    /// Convenience constructor from `&str` slices.
    pub fn from_strs(data: &[&str]) -> Column {
        Column::Str(data.iter().map(|s| s.to_string()).collect(), None)
    }

    /// Convenience constructor from day numbers.
    pub fn from_dates(data: Vec<i32>) -> Column {
        Column::Date(data, None)
    }

    /// Dictionary-encoded view: `(codes, dict, validity)` for
    /// [`Column::DictStr`], `None` for every other representation.
    #[inline]
    pub fn dict_parts(&self) -> Option<DictParts<'_>> {
        match self {
            Column::DictStr { codes, dict, valid } => Some((codes, dict, valid.as_deref())),
            _ => None,
        }
    }

    /// Dictionary-encodes a plain string column (dedup on build,
    /// first-occurrence code order). Already-encoded columns and other
    /// dtypes return an unchanged clone.
    pub fn encode_str(&self) -> Column {
        let Column::Str(d, v) = self else {
            return self.clone();
        };
        let mut strs: Vec<Arc<str>> = Vec::new();
        let mut index: FxHashMap<Arc<str>, u32> = FxHashMap::default();
        let codes: Vec<u32> = d
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if !v.as_ref().map_or(true, |v| v[i]) {
                    return 0;
                }
                if let Some(&c) = index.get(s.as_str()) {
                    return c;
                }
                let s: Arc<str> = Arc::from(s.as_str());
                strs.push(s.clone());
                index.insert(s, strs.len() as u32 - 1);
                strs.len() as u32 - 1
            })
            .collect();
        Column::DictStr {
            codes,
            dict: Arc::new(Dictionary::from_parts(strs, index)),
            valid: v.clone(),
        }
    }

    /// The column with its dictionary, if any, leaving for a lineage of its
    /// own (same entries and codes): what a column that will grow in place
    /// ([`Column::append_in_lineage`]) starts as, so no other holder of the
    /// dictionary shares the code list it grows.
    pub fn into_own_lineage(mut self) -> Column {
        if let Column::DictStr { dict, .. } = &mut self {
            Arc::make_mut(dict).fork();
        }
        self
    }

    /// Decodes a dictionary-encoded column back to plain strings (the result
    /// materialization boundary). Other representations return an unchanged
    /// clone.
    pub fn decode_str(&self) -> Column {
        let Column::DictStr { codes, dict, valid } = self else {
            return self.clone();
        };
        let d: Vec<String> = codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if valid.as_ref().map_or(true, |v| v[i]) {
                    dict.get(c).to_string()
                } else {
                    String::new()
                }
            })
            .collect();
        Column::Str(d, valid.clone())
    }

    /// Re-encodes a string-typed column into `dict`'s code space **without
    /// extending it**: rows whose string is absent from `dict` come back
    /// invalid. That sentinel is exactly join no-match semantics (NULL keys
    /// never match), which is what fused probes use it for — the build side's
    /// dictionary defines the code space, and probe rows outside it cannot
    /// have a partner. A column encoded in another version of `dict`'s
    /// lineage is already in that code space and comes back unchanged (a
    /// code past `dict`'s end equals none of `dict`'s codes).
    pub fn project_into_dict(&self, dict: &Arc<Dictionary>) -> Column {
        match self {
            Column::DictStr {
                codes,
                dict: own,
                valid,
            } => {
                if own.same_lineage(dict) {
                    return self.clone();
                }
                let table = own.translate_to(dict);
                let mut out_valid = vec![true; codes.len()];
                let mut any_null = false;
                let out_codes: Vec<u32> = codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let ok = valid.as_ref().map_or(true, |v| v[i]);
                        match ok.then(|| table[c as usize]).flatten() {
                            Some(nc) => nc,
                            None => {
                                out_valid[i] = false;
                                any_null = true;
                                0
                            }
                        }
                    })
                    .collect();
                Column::DictStr {
                    codes: out_codes,
                    dict: dict.clone(),
                    valid: any_null.then_some(out_valid),
                }
            }
            Column::Str(d, v) => {
                let mut out_valid = vec![true; d.len()];
                let mut any_null = false;
                let out_codes: Vec<u32> = d
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let ok = v.as_ref().map_or(true, |vv| vv[i]);
                        match ok.then(|| dict.code_of(s)).flatten() {
                            Some(c) => c,
                            None => {
                                out_valid[i] = false;
                                any_null = true;
                                0
                            }
                        }
                    })
                    .collect();
                Column::DictStr {
                    codes: out_codes,
                    dict: dict.clone(),
                    valid: any_null.then_some(out_valid),
                }
            }
            other => other.clone(),
        }
    }
}

/// The process-wide empty dictionary: zero-row placeholder columns that must
/// share one lineage (key-layout planning compares code spaces) all point
/// here.
pub fn empty_dict() -> Arc<Dictionary> {
    static EMPTY: std::sync::OnceLock<Arc<Dictionary>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Dictionary::new())).clone()
}

/// Rows `rows` of a validity mask.
fn mask_part<'a>(valid: &'a Option<Vec<bool>>, rows: &Range<usize>) -> Option<&'a [bool]> {
    valid.as_ref().map(|v| &v[rows.clone()])
}

/// Typed bulk extend (the push-per-row path boxes every cell as a `Value`;
/// appends on the morsel-merge path are hot). Semantics match push exactly:
/// data at null slots normalizes to the type's default, and a validity mask
/// appears only when the appended rows actually contain a null.
fn extend_typed<T: Clone + Default>(
    d: &mut Vec<T>,
    v: &mut Option<Vec<bool>>,
    od: &[T],
    ov: Option<&[bool]>,
) {
    let Some(o) = ov.filter(|o| o.contains(&false)) else {
        if let Some(v) = v {
            v.resize(v.len() + od.len(), true);
        }
        return d.extend_from_slice(od);
    };
    v.get_or_insert_with(|| vec![true; d.len()])
        .extend_from_slice(o);
    let cells = od
        .iter()
        .zip(o)
        .map(|(x, &ok)| if ok { x.clone() } else { T::default() });
    d.extend(cells);
}

/// Row-at-a-time extend matching push/push_null semantics, for the
/// cross-representation string cases (`None` item = null row).
fn extend_rows<T: Default>(
    d: &mut Vec<T>,
    v: &mut Option<Vec<bool>>,
    it: impl Iterator<Item = Option<T>>,
) {
    for x in it {
        if x.is_none() && v.is_none() {
            *v = Some(vec![true; d.len()]);
        }
        if let Some(v) = v {
            v.push(x.is_some());
        }
        d.push(x.unwrap_or_default());
    }
}

#[inline]
fn push_valid<T>(data: &mut Vec<T>, valid: &mut Option<Vec<bool>>, x: T) -> Result<()> {
    data.push(x);
    if let Some(v) = valid {
        v.push(true);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DType::Float);
        c.push(Value::Int(2)).unwrap();
        c.push(Value::Float(0.5)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut c = Column::new(DType::Int);
        assert!(c.push(Value::Str("x".into())).is_err());
    }

    #[test]
    fn gather_and_filter() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let g = c.gather(&[3, 0]);
        assert_eq!(g.get(0), Value::Int(40));
        assert_eq!(g.get(1), Value::Int(10));
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1), Value::Int(30));
    }

    #[test]
    fn gather_preserves_validity() {
        let mut c = Column::new(DType::Float);
        c.push(Value::Float(1.0)).unwrap();
        c.push_null();
        c.push(Value::Float(3.0)).unwrap();
        let g = c.gather(&[1, 2]);
        assert_eq!(g.get(0), Value::Null);
        assert_eq!(g.get(1), Value::Float(3.0));
    }

    #[test]
    fn gather_opt_produces_nulls() {
        let c = Column::from_strs(&["a", "b"]);
        let g = c.gather_opt(&[Some(1), None, Some(0)]);
        assert_eq!(g.get(0), Value::Str("b".into()));
        assert_eq!(g.get(1), Value::Null);
        assert_eq!(g.get(2), Value::Str("a".into()));
    }

    #[test]
    fn cast_paths() {
        let c = Column::from_i64(vec![1, 2]);
        assert_eq!(c.cast(DType::Float).unwrap().as_float(), &[1.0, 2.0]);
        let s = Column::from_strs(&["1994-01-01"]);
        let d = s.cast(DType::Date).unwrap();
        assert_eq!(
            d.get(0),
            Value::Date(crate::date::parse("1994-01-01").unwrap())
        );
        assert_eq!(c.cast(DType::Str).unwrap().get(0), Value::Str("1".into()));
    }

    #[test]
    fn append_checks_types() {
        let mut a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![2]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.append(&Column::from_f64(vec![1.0])).is_err());
    }

    #[test]
    fn from_values_infers_dtype() {
        let c = Column::from_values(&[Value::Null, Value::Str("x".into())]).unwrap();
        assert_eq!(c.dtype(), DType::Str);
        assert_eq!(c.get(0), Value::Null);
    }

    #[test]
    fn typed_slice_accessors() {
        let c = Column::from_i64(vec![1, 2]);
        assert_eq!(c.as_i64_slice(), Some(&[1i64, 2][..]));
        assert_eq!(c.as_f64_slice(), None);
        let f = Column::from_f64(vec![0.5]);
        assert_eq!(f.as_f64_slice(), Some(&[0.5][..]));
        let d = Column::from_dates(vec![7]);
        assert_eq!(d.as_date_slice(), Some(&[7i32][..]));
        let b = Column::from_bool(vec![true]);
        assert_eq!(b.as_bool_slice(), Some(&[true][..]));
        let s = Column::from_strs(&["x"]);
        assert_eq!(s.as_str_slice().map(|v| v.len()), Some(1));
    }

    #[test]
    fn slice_bounds() {
        let c = Column::from_i64(vec![1, 2, 3]);
        let s = c.slice(1, 10);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Value::Int(2));
    }

    fn dict_of(c: &Column) -> &Arc<Dictionary> {
        c.dict_parts().expect("dictionary-encoded").1
    }

    /// Versions of one lineage share every frozen block and index run; a
    /// clone copies the open block only, and growing the clone leaves the
    /// original's entries and length alone.
    #[test]
    fn dictionary_versions_share_frozen_blocks() {
        let words: Vec<String> = (0..2 * DICT_BLOCK + 300).map(|i| format!("w{i}")).collect();
        let mut dict = Dictionary::new();
        for w in &words {
            dict.intern(w);
        }
        assert_eq!((dict.blocks.len(), dict.open.len()), (2, 300));
        let mut next = dict.clone();
        for i in 0..DICT_BLOCK {
            next.intern(&format!("new{i}"));
        }
        assert!(next.same_lineage(&dict));
        assert_eq!(
            (dict.len(), next.len()),
            (words.len(), words.len() + DICT_BLOCK)
        );
        assert!(dict
            .blocks
            .iter()
            .zip(&next.blocks)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        for (c, w) in words.iter().enumerate() {
            assert_eq!(
                (dict.get(c as u32), next.get(c as u32)),
                (w.as_str(), w.as_str())
            );
            assert_eq!(
                (dict.code_of(w), next.code_of(w)),
                (Some(c as u32), Some(c as u32))
            );
        }
        assert_eq!(dict.code_of("new0"), None);
        assert_eq!(next.code_of("new7"), Some((words.len() + 7) as u32));
        // Index runs merge geometrically: a handful, not one per block.
        assert!(next.runs.len() <= 2, "{} runs", next.runs.len());
        // A bulk encode builds the same code list in one run.
        let bulk = Column::from_str_vec(words.clone()).encode_str();
        assert!(dict_of(&bulk).strs().eq(dict.strs()));
        assert_eq!(dict_of(&bulk).code_of("w1500"), Some(1500));
    }

    /// Only the newest version of a lineage grows in it: `append` and `push`
    /// fork before their first new string, `append_in_lineage` does not,
    /// and a batch of known strings leaves the dictionary `Arc` alone.
    #[test]
    fn appends_grow_a_lineage_or_fork_it() {
        let stored = Column::from_strs(&["a", "b", "a"]).encode_str();
        let lineage = dict_of(&stored).lineage();
        let mut known = stored.clone();
        known.append(&Column::from_strs(&["b", "a"])).unwrap();
        assert!(Arc::ptr_eq(dict_of(&known), dict_of(&stored)));
        let mut local = stored.clone();
        local.append(&Column::from_strs(&["c"])).unwrap();
        assert_ne!(dict_of(&local).lineage(), lineage);
        let mut pushed = stored.clone();
        pushed.push(Value::Str("z".into())).unwrap();
        assert_ne!(dict_of(&pushed).lineage(), lineage);
        let mut grown = stored.clone();
        grown
            .append_in_lineage(&Column::from_strs(&["d", "a"]))
            .unwrap();
        assert_eq!(dict_of(&grown).lineage(), lineage);
        assert_eq!(dict_of(&stored).len(), 2, "the older version grew");
        // Same lineage: codes carry over and the longer version decodes.
        let mut older = stored.clone();
        older.append(&grown).unwrap();
        assert!(Arc::ptr_eq(dict_of(&older), dict_of(&grown)));
        let (codes, _, _) = older.dict_parts().unwrap();
        assert_eq!(codes, [0, 1, 0, 0, 1, 0, 2, 0]);
        assert_eq!(older.get(6), Value::Str("d".into()));
    }

    /// Codes from another lineage remap lazily, in row order: entries no
    /// row references are not interned, and NULL rows intern nothing.
    #[test]
    fn remapped_appends_intern_in_row_order() {
        let mut other = Column::from_strs(&["x", "unused", "y", "q"]).encode_str();
        other = other.gather(&[2, 0, 3]);
        if let Column::DictStr { valid, .. } = &mut other {
            *valid = Some(vec![true, true, false]);
        }
        let mut col = Column::from_strs(&["a"]).encode_str();
        col.append(&other).unwrap();
        let strs: Vec<&str> = dict_of(&col).strs().collect();
        assert_eq!(strs, ["a", "y", "x"]);
        assert_eq!(col.get(3), Value::Null);
    }
}
