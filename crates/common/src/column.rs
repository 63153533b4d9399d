//! Typed columnar storage with optional validity (null) masks.
//!
//! A [`Column`] is the unit of data everywhere in the reproduction: tables in
//! the SQL engine, series in the DataFrame baseline, and result sets. Storage
//! is a plain `Vec` per type plus an optional `Vec<bool>` validity mask
//! (`None` = all rows valid), which keeps the common null-free path
//! branch-light.

use crate::error::{Error, Result};
use crate::value::Value;
use std::fmt;
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

/// A deduplicated, order-preserving string dictionary: code `i` maps to the
/// `i`-th distinct string in first-occurrence order. Shared across columns
/// via `Arc` so gathers, slices and snapshots never copy the string payload.
///
/// Each entry's text is allocated once and shared — between the code-order
/// list and the lookup index, and between a dictionary and its clones. A
/// stored column whose append brings new strings copies its dictionary (the
/// published one is immutable), and that copy is two pointers per entry, not
/// two fresh strings: versions of a table alive at once (a reader on one, a
/// writer building the next) share every string they have in common.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    strs: Vec<Arc<str>>,
    index: crate::hash::FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// `true` when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// The string for `code` (panics when out of range).
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        &self.strs[code as usize]
    }

    /// The code for `s`, when present.
    #[inline]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The code for `s`, interning it if absent. Existing codes never move,
    /// so extending a dictionary keeps every previously issued code valid.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = self.strs.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.strs.push(s.clone());
        self.index.insert(s, c);
        c
    }

    /// All entries in code order.
    pub fn strs(&self) -> impl ExactSizeIterator<Item = &str> {
        self.strs.iter().map(|s| &**s)
    }

    /// Per-code translation table into `target`'s code space; `None` marks
    /// entries absent from `target`.
    pub fn translate_to(&self, target: &Dictionary) -> Vec<Option<u32>> {
        self.strs().map(|s| target.code_of(s)).collect()
    }

    /// Estimated heap footprint of the string payload and lookup index.
    pub fn heap_bytes(&self) -> u64 {
        // Two reference counts beside each text, a fat pointer to it from
        // the list and another, plus the code, from the index.
        let payload: u64 = self.strs().map(|s| (16 + s.len()) as u64).sum();
        payload + (16 + 16 + 4) * self.strs.len() as u64
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Dictionary) -> bool {
        self.strs == other.strs
    }
}

/// Capacity class for a buffer that must hold `need` elements: `need`
/// rounded up to a multiple of one eighth of the enclosing power of two
/// (never more than 25 % above `need`).
fn size_class(need: usize) -> usize {
    match need.next_power_of_two() / 8 {
        0 => need,
        step => need.div_ceil(step) * step,
    }
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
                let c = Arc::make_mut(dict).intern(&x);
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

    /// Appends all rows of `other`; types must match.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(Error::Data(format!(
                "cannot append {} column to {} column",
                other.dtype(),
                self.dtype()
            )));
        }
        // Typed bulk extend (the push-per-row path boxes every cell as a
        // `Value`; appends on the morsel-merge path are hot). Semantics
        // match push exactly: data at null slots normalizes to the type's
        // default, and a validity mask appears only when `other` actually
        // contains a null.
        fn app<T: Clone + Default>(
            d: &mut Vec<T>,
            v: &mut Option<Vec<bool>>,
            od: &[T],
            ov: Option<&[bool]>,
        ) {
            let all_valid = ov.map_or(true, |o| o.iter().all(|&b| b));
            if all_valid {
                if let Some(v) = v {
                    v.resize(v.len() + od.len(), true);
                }
                d.extend(od.iter().cloned());
            } else {
                let o = ov.expect("invalid rows imply a mask");
                if v.is_none() {
                    *v = Some(vec![true; d.len()]);
                }
                v.as_mut().expect("just filled").extend_from_slice(o);
                d.extend(
                    od.iter()
                        .zip(o)
                        .map(|(x, &ok)| if ok { x.clone() } else { T::default() }),
                );
            }
        }
        // Row-at-a-time extend matching push/push_null semantics, for the
        // cross-representation string cases (`None` item = null row).
        fn extend_rows<T: Default>(
            d: &mut Vec<T>,
            v: &mut Option<Vec<bool>>,
            it: impl Iterator<Item = Option<T>>,
        ) {
            for x in it {
                match x {
                    Some(x) => {
                        d.push(x);
                        if let Some(v) = v {
                            v.push(true);
                        }
                    }
                    None => {
                        let n = d.len();
                        d.push(T::default());
                        match v {
                            Some(v) => v.push(false),
                            None => {
                                let mut m = vec![true; n];
                                m.push(false);
                                *v = Some(m);
                            }
                        }
                    }
                }
            }
        }
        match (self, other) {
            (Column::Int(d, v), Column::Int(od, ov)) => app(d, v, od, ov.as_deref()),
            (Column::Float(d, v), Column::Float(od, ov)) => app(d, v, od, ov.as_deref()),
            (Column::Bool(d, v), Column::Bool(od, ov)) => app(d, v, od, ov.as_deref()),
            (Column::Str(d, v), Column::Str(od, ov)) => app(d, v, od, ov.as_deref()),
            (
                Column::DictStr { codes, dict, valid },
                Column::DictStr {
                    codes: oc,
                    dict: od,
                    valid: ov,
                },
            ) => {
                if Arc::ptr_eq(dict, od) {
                    // Same dictionary: codes are directly comparable.
                    app(codes, valid, oc, ov.as_deref());
                } else {
                    // Remap the incoming codes into this column's dictionary,
                    // interning unseen entries (existing codes never move, so
                    // rows already stored keep their meaning).
                    let d = Arc::make_mut(dict);
                    let remap: Vec<u32> = od.strs().map(|s| d.intern(s)).collect();
                    extend_rows(
                        codes,
                        valid,
                        oc.iter().enumerate().map(|(i, &c)| {
                            ov.as_ref()
                                .map_or(true, |v| v[i])
                                .then(|| remap[c as usize])
                        }),
                    );
                }
            }
            (Column::DictStr { codes, dict, valid }, Column::Str(od, ov)) => {
                // Plain strings appended to an encoded column re-encode
                // against the existing dictionary. Only a string it does not
                // hold yet extends it (copying it first if it is shared): a
                // batch of known strings leaves the `Arc` — and every
                // code-space fast path keyed on dictionary identity — alone.
                let coded = od.iter().enumerate().map(|(i, s)| {
                    ov.as_ref().map_or(true, |v| v[i]).then(|| {
                        let known = dict.code_of(s);
                        known.unwrap_or_else(|| Arc::make_mut(dict).intern(s))
                    })
                });
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
                extend_rows(
                    d,
                    v,
                    oc.iter().enumerate().map(|(i, &c)| {
                        ov.as_ref()
                            .map_or(true, |v| v[i])
                            .then(|| od.get(c).to_string())
                    }),
                );
            }
            (Column::Date(d, v), Column::Date(od, ov)) => app(d, v, od, ov.as_deref()),
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Returns `self` followed by the rows of `other` as a fresh column —
    /// the copy-on-append step of a stored table, whose columns are shared
    /// with published snapshots and so can never grow in place.
    ///
    /// Each buffer is allocated **once**, at a capacity rounded up to a size
    /// class (eighth-of-an-octave steps, ≤ 25 % slack), and old and new rows
    /// are copied in. Cloning at the exact length and then extending would
    /// reallocate to a slightly different size on every append; a table that
    /// grows by 0.3 % per append then frees buffers no later copy fits, and
    /// the allocator's holes — not the data — set the process's peak memory.
    /// With size classes, consecutive generations of a column request the
    /// same few sizes and reuse each other's freed buffers exactly.
    pub fn grown(&self, other: &Column) -> Result<Column> {
        let cap = size_class(self.len() + other.len());
        fn sized<T: Clone>(d: &[T], cap: usize) -> Vec<T> {
            let mut v = Vec::with_capacity(cap);
            v.extend_from_slice(d);
            v
        }
        // A mask that `other`'s first NULL would otherwise create at the
        // exact old length (and then reallocate) is created sized up front.
        let mask = |valid: &Option<Vec<bool>>| match valid {
            Some(v) => Some(sized(v, cap)),
            None if other.null_count() > 0 => {
                let mut v = Vec::with_capacity(cap);
                v.resize(self.len(), true);
                Some(v)
            }
            None => None,
        };
        let mut out = match self {
            Column::Int(d, v) => Column::Int(sized(d, cap), mask(v)),
            Column::Float(d, v) => Column::Float(sized(d, cap), mask(v)),
            Column::Bool(d, v) => Column::Bool(sized(d, cap), mask(v)),
            Column::Str(d, v) => Column::Str(sized(d, cap), mask(v)),
            Column::DictStr { codes, dict, valid } => Column::DictStr {
                codes: sized(codes, cap),
                dict: dict.clone(),
                valid: mask(valid),
            },
            Column::Date(d, v) => Column::Date(sized(d, cap), mask(v)),
        };
        out.append(other)?;
        Ok(out)
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
        let mut dict = Dictionary::new();
        let codes: Vec<u32> = d
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if v.as_ref().map_or(true, |v| v[i]) {
                    dict.intern(s)
                } else {
                    0
                }
            })
            .collect();
        Column::DictStr {
            codes,
            dict: Arc::new(dict),
            valid: v.clone(),
        }
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
    /// have a partner.
    pub fn project_into_dict(&self, dict: &Arc<Dictionary>) -> Column {
        match self {
            Column::DictStr {
                codes,
                dict: own,
                valid,
            } => {
                if Arc::ptr_eq(own, dict) {
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
/// share one `Arc` (key-layout planning compares dictionary identity) all
/// point here.
pub fn empty_dict() -> Arc<Dictionary> {
    static EMPTY: std::sync::OnceLock<Arc<Dictionary>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Dictionary::new())).clone()
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
}
