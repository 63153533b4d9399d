//! One named column plus the element-wise operations Pandas exposes on it.
//!
//! Arithmetic, comparison and string kernels allocate a fresh column per
//! call — the deliberate "no fusion" behaviour of the baseline.

use pytond_common::hash::FxHashSet;
use pytond_common::{date, Column, DType, Error, Result, Value};

/// A named column (the Pandas `Series`).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Column label.
    pub name: String,
    /// Backing data.
    pub col: Column,
}

impl Series {
    /// Wraps a column under a name.
    pub fn new(name: impl Into<String>, col: Column) -> Series {
        Series {
            name: name.into(),
            col,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.col.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.col.is_empty()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.col.dtype()
    }

    /// Scalar at `i`.
    pub fn get(&self, i: usize) -> Value {
        self.col.get(i)
    }

    /// Renames, returning `self` for chaining.
    pub fn rename(mut self, name: impl Into<String>) -> Series {
        self.name = name.into();
        self
    }

    // ---------------- arithmetic ----------------

    fn zip_numeric(&self, other: &Series, f: impl Fn(f64, f64) -> f64) -> Result<Series> {
        if self.len() != other.len() {
            return Err(Error::Data(format!(
                "series length mismatch: {} vs {}",
                self.len(),
                other.len()
            )));
        }
        // Int op Int stays Int for +,-,*; the caller handles division.
        let mut out = Column::with_capacity(DType::Float, self.len());
        for i in 0..self.len() {
            let (a, b) = (self.get(i), other.get(i));
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => out.push(Value::Float(f(x, y)))?,
                _ => out.push_null(),
            }
        }
        Ok(Series::new(self.name.clone(), out))
    }

    fn zip_int_preserving(
        &self,
        other: &Series,
        fi: impl Fn(i64, i64) -> i64,
        ff: impl Fn(f64, f64) -> f64,
    ) -> Result<Series> {
        if self.dtype() == DType::Int && other.dtype() == DType::Int {
            if self.len() != other.len() {
                return Err(Error::Data("series length mismatch".into()));
            }
            let mut out = Column::with_capacity(DType::Int, self.len());
            for i in 0..self.len() {
                match (self.get(i).as_i64(), other.get(i).as_i64()) {
                    (Some(x), Some(y)) => out.push(Value::Int(fi(x, y)))?,
                    _ => out.push_null(),
                }
            }
            return Ok(Series::new(self.name.clone(), out));
        }
        self.zip_numeric(other, ff)
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Series) -> Result<Series> {
        self.zip_int_preserving(other, |a, b| a + b, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Series) -> Result<Series> {
        self.zip_int_preserving(other, |a, b| a - b, |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Series) -> Result<Series> {
        self.zip_int_preserving(other, |a, b| a * b, |a, b| a * b)
    }

    /// Element-wise true division (always float, like Python `/`).
    pub fn div(&self, other: &Series) -> Result<Series> {
        self.zip_numeric(other, |a, b| a / b)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, v: f64) -> Result<Series> {
        self.map_numeric(|x| x + v)
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, v: f64) -> Result<Series> {
        self.map_numeric(|x| x * v)
    }

    /// Applies a float function element-wise (preserving nulls).
    pub fn map_numeric(&self, f: impl Fn(f64) -> f64) -> Result<Series> {
        let mut out = Column::with_capacity(
            if self.dtype() == DType::Int {
                DType::Float
            } else {
                self.dtype()
            },
            self.len(),
        );
        for i in 0..self.len() {
            match self.get(i).as_f64() {
                Some(x) => out.push(Value::Float(f(x)))?,
                None => out.push_null(),
            }
        }
        Ok(Series::new(self.name.clone(), out))
    }

    /// Generic element-wise map over scalars (the Pandas `Series.apply`).
    pub fn apply(&self, f: impl Fn(Value) -> Value) -> Result<Series> {
        let vals: Vec<Value> = (0..self.len()).map(|i| f(self.get(i))).collect();
        Ok(Series::new(self.name.clone(), Column::from_values(&vals)?))
    }

    /// Rounds to `digits` decimal places (NumPy `round`).
    pub fn round(&self, digits: i32) -> Result<Series> {
        let scale = 10f64.powi(digits);
        self.map_numeric(move |x| (x * scale).round() / scale)
    }

    // ---------------- comparisons ----------------

    fn compare(
        &self,
        other: impl Fn(usize) -> Value,
        f: impl Fn(std::cmp::Ordering) -> bool,
    ) -> Series {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let v = self.get(i).sql_cmp(&other(i)).map(&f).unwrap_or(false);
            out.push(v);
        }
        Series::new(self.name.clone(), Column::from_bool(out))
    }

    /// Element-wise `==` against a scalar.
    pub fn eq_val(&self, v: &Value) -> Series {
        self.compare(|_| v.clone(), |o| o == std::cmp::Ordering::Equal)
    }

    /// Element-wise `!=` against a scalar (`false` for nulls, like Pandas).
    pub fn ne_val(&self, v: &Value) -> Series {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            out.push(matches!(
                self.get(i).sql_cmp(v),
                Some(o) if o != std::cmp::Ordering::Equal
            ));
        }
        Series::new(self.name.clone(), Column::from_bool(out))
    }

    /// Element-wise `<` against a scalar.
    pub fn lt_val(&self, v: &Value) -> Series {
        self.compare(|_| v.clone(), |o| o == std::cmp::Ordering::Less)
    }

    /// Element-wise `<=` against a scalar.
    pub fn le_val(&self, v: &Value) -> Series {
        self.compare(|_| v.clone(), |o| o != std::cmp::Ordering::Greater)
    }

    /// Element-wise `>` against a scalar.
    pub fn gt_val(&self, v: &Value) -> Series {
        self.compare(|_| v.clone(), |o| o == std::cmp::Ordering::Greater)
    }

    /// Element-wise `>=` against a scalar.
    pub fn ge_val(&self, v: &Value) -> Series {
        self.compare(|_| v.clone(), |o| o != std::cmp::Ordering::Less)
    }

    /// Element-wise `==` against another series.
    pub fn eq_series(&self, other: &Series) -> Series {
        self.compare(|i| other.get(i), |o| o == std::cmp::Ordering::Equal)
    }

    /// Element-wise `<` against another series.
    pub fn lt_series(&self, other: &Series) -> Series {
        self.compare(|i| other.get(i), |o| o == std::cmp::Ordering::Less)
    }

    /// Element-wise `>` against another series.
    pub fn gt_series(&self, other: &Series) -> Series {
        self.compare(|i| other.get(i), |o| o == std::cmp::Ordering::Greater)
    }

    // ---------------- boolean masks ----------------

    /// Boolean AND of two masks.
    pub fn and(&self, other: &Series) -> Result<Series> {
        self.zip_bool(other, |a, b| a && b)
    }

    /// Boolean OR of two masks.
    pub fn or(&self, other: &Series) -> Result<Series> {
        self.zip_bool(other, |a, b| a || b)
    }

    /// Boolean NOT of a mask (`~mask`).
    pub fn not(&self) -> Result<Series> {
        let data = match &self.col {
            Column::Bool(d, _) => d.iter().map(|b| !b).collect(),
            _ => return Err(Error::Data("~ requires a boolean mask".into())),
        };
        Ok(Series::new(self.name.clone(), Column::from_bool(data)))
    }

    fn zip_bool(&self, other: &Series, f: impl Fn(bool, bool) -> bool) -> Result<Series> {
        match (&self.col, &other.col) {
            (Column::Bool(a, _), Column::Bool(b, _)) if a.len() == b.len() => {
                let data = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
                Ok(Series::new(self.name.clone(), Column::from_bool(data)))
            }
            _ => Err(Error::Data("boolean op requires equal-length masks".into())),
        }
    }

    /// Membership test against the values of `other` (Pandas `isin`).
    ///
    /// Same-dtype columns use typed hash sets over raw slices (no encoding,
    /// no per-row allocation); mixed dtypes keep the byte-encoded semantics,
    /// under which values of different types never compare equal.
    pub fn isin(&self, other: &Series) -> Series {
        use pytond_common::hash::canonical_f64_bits;
        let out: Vec<bool> = match (&self.col, &other.col) {
            (Column::Int(d, valid), Column::Int(od, ovalid)) => {
                membership(d, valid, od, ovalid, |&x| x)
            }
            (Column::Date(d, valid), Column::Date(od, ovalid)) => {
                membership(d, valid, od, ovalid, |&x| x)
            }
            (Column::Bool(d, valid), Column::Bool(od, ovalid)) => {
                membership(d, valid, od, ovalid, |&x| x)
            }
            (Column::Float(d, valid), Column::Float(od, ovalid)) => {
                membership(d, valid, od, ovalid, |&x| canonical_f64_bits(x))
            }
            (Column::Str(d, valid), Column::Str(od, ovalid)) => {
                membership(d, valid, od, ovalid, |x| x.as_str())
            }
            _ => {
                // Mixed dtypes: byte-encoded values (tags keep types apart).
                let mut set: FxHashSet<Vec<u8>> = FxHashSet::default();
                let mut buf = Vec::new();
                for i in 0..other.len() {
                    buf.clear();
                    pytond_common::hash::encode_value(&mut buf, &other.get(i));
                    if !set.contains(&buf) {
                        set.insert(buf.clone());
                    }
                }
                (0..self.len())
                    .map(|i| {
                        let v = self.get(i);
                        if v.is_null() {
                            return false;
                        }
                        buf.clear();
                        pytond_common::hash::encode_value(&mut buf, &v);
                        set.contains(buf.as_slice())
                    })
                    .collect()
            }
        };
        Series::new(self.name.clone(), Column::from_bool(out))
    }

    /// Null test (`isna`).
    pub fn isna(&self) -> Series {
        let data = (0..self.len()).map(|i| !self.col.is_valid(i)).collect();
        Series::new(self.name.clone(), Column::from_bool(data))
    }

    /// Replaces nulls with `v` (`fillna`).
    pub fn fillna(&self, v: &Value) -> Result<Series> {
        let mut out = Column::with_capacity(self.dtype(), self.len());
        for i in 0..self.len() {
            let x = self.get(i);
            out.push(if x.is_null() { v.clone() } else { x })?;
        }
        Ok(Series::new(self.name.clone(), out))
    }

    // ---------------- string accessor (`.str`) ----------------

    fn map_str(&self, f: impl Fn(&str) -> bool) -> Result<Series> {
        let data = match &self.col {
            Column::Str(d, valid) => d
                .iter()
                .enumerate()
                .map(|(i, s)| valid.as_ref().map_or(true, |v| v[i]) && f(s))
                .collect(),
            _ => return Err(Error::Data(".str accessor requires strings".into())),
        };
        Ok(Series::new(self.name.clone(), Column::from_bool(data)))
    }

    /// `.str.contains(pat)` (literal substring).
    pub fn str_contains(&self, pat: &str) -> Result<Series> {
        self.map_str(|s| s.contains(pat))
    }

    /// `.str.startswith(pat)`.
    pub fn str_startswith(&self, pat: &str) -> Result<Series> {
        self.map_str(|s| s.starts_with(pat))
    }

    /// `.str.endswith(pat)`.
    pub fn str_endswith(&self, pat: &str) -> Result<Series> {
        self.map_str(|s| s.ends_with(pat))
    }

    /// `.str.slice(start, stop)` by character offsets.
    pub fn str_slice(&self, start: usize, stop: usize) -> Result<Series> {
        let data: Vec<String> = match &self.col {
            Column::Str(d, _) => d
                .iter()
                .map(|s| {
                    s.chars()
                        .skip(start)
                        .take(stop.saturating_sub(start))
                        .collect()
                })
                .collect(),
            _ => return Err(Error::Data(".str accessor requires strings".into())),
        };
        Ok(Series::new(self.name.clone(), Column::from_str_vec(data)))
    }

    // ---------------- datetime accessor (`.dt`) ----------------

    /// `.dt.year`.
    pub fn dt_year(&self) -> Result<Series> {
        let data: Vec<i64> = match &self.col {
            Column::Date(d, _) => d.iter().map(|&x| i64::from(date::year(x))).collect(),
            _ => return Err(Error::Data(".dt accessor requires dates".into())),
        };
        Ok(Series::new(self.name.clone(), Column::from_i64(data)))
    }

    /// `.dt.month`.
    pub fn dt_month(&self) -> Result<Series> {
        let data: Vec<i64> = match &self.col {
            Column::Date(d, _) => d.iter().map(|&x| i64::from(date::month(x))).collect(),
            _ => return Err(Error::Data(".dt accessor requires dates".into())),
        };
        Ok(Series::new(self.name.clone(), Column::from_i64(data)))
    }

    // ---------------- reductions ----------------

    /// Sum (nulls skipped, like Pandas). Integer columns sum to Int.
    pub fn sum(&self) -> Value {
        match &self.col {
            Column::Int(d, None) => Value::Int(d.iter().sum()),
            Column::Float(d, None) => Value::Float(d.iter().sum()),
            _ => {
                let mut acc = 0.0;
                let mut any = false;
                let mut all_int = true;
                for i in 0..self.len() {
                    if let Some(x) = self.get(i).as_f64() {
                        if !matches!(self.get(i), Value::Int(_)) {
                            all_int = false;
                        }
                        acc += x;
                        any = true;
                    }
                }
                if !any {
                    Value::Int(0)
                } else if all_int {
                    Value::Int(acc as i64)
                } else {
                    Value::Float(acc)
                }
            }
        }
    }

    /// Arithmetic mean (nulls skipped); `Null` when empty.
    pub fn mean(&self) -> Value {
        let mut acc = 0.0;
        let mut n = 0usize;
        for i in 0..self.len() {
            if let Some(x) = self.get(i).as_f64() {
                acc += x;
                n += 1;
            }
        }
        if n == 0 {
            Value::Null
        } else {
            Value::Float(acc / n as f64)
        }
    }

    /// Minimum by SQL ordering; `Null` when empty.
    pub fn min(&self) -> Value {
        self.extreme(std::cmp::Ordering::Less)
    }

    /// Maximum; `Null` when empty.
    pub fn max(&self) -> Value {
        self.extreme(std::cmp::Ordering::Greater)
    }

    fn extreme(&self, want: std::cmp::Ordering) -> Value {
        let mut best: Option<Value> = None;
        for i in 0..self.len() {
            let v = self.get(i);
            if v.is_null() {
                continue;
            }
            best = Some(match best {
                None => v,
                Some(b) => {
                    if v.sql_cmp(&b) == Some(want) {
                        v
                    } else {
                        b
                    }
                }
            });
        }
        best.unwrap_or(Value::Null)
    }

    /// Non-null count.
    pub fn count(&self) -> i64 {
        (self.len() - self.col.null_count()) as i64
    }

    /// Number of distinct non-null values (`nunique`), via a typed hash set
    /// over the raw column slice.
    pub fn nunique(&self) -> i64 {
        use pytond_common::hash::canonical_f64_bits;
        let n = match &self.col {
            Column::Int(d, v) => count_distinct(d, v.as_deref(), |&x| x),
            Column::Date(d, v) => count_distinct(d, v.as_deref(), |&x| x),
            Column::Bool(d, v) => count_distinct(d, v.as_deref(), |&x| x),
            Column::Float(d, v) => count_distinct(d, v.as_deref(), |&x| canonical_f64_bits(x)),
            Column::Str(d, v) => count_distinct(d, v.as_deref(), |x: &String| x.as_str()),
            // Dictionary codes are deduplicated, so distinct codes ≡ distinct
            // strings — no decode needed.
            Column::DictStr { codes, valid, .. } => count_distinct(codes, valid.as_deref(), |&x| x),
        };
        n as i64
    }

    /// Distinct values in first-appearance order (`unique`); a null, if any,
    /// is kept once at its first occurrence.
    pub fn unique(&self) -> Series {
        use pytond_common::hash::canonical_f64_bits;
        let keep = match &self.col {
            Column::Int(d, v) => unique_keep(d, v.as_deref(), |&x| x),
            Column::Date(d, v) => unique_keep(d, v.as_deref(), |&x| x),
            Column::Bool(d, v) => unique_keep(d, v.as_deref(), |&x| x),
            Column::Float(d, v) => unique_keep(d, v.as_deref(), |&x| canonical_f64_bits(x)),
            Column::Str(d, v) => unique_keep(d, v.as_deref(), |x: &String| x.as_str()),
            Column::DictStr { codes, valid, .. } => unique_keep(codes, valid.as_deref(), |&x| x),
        };
        Series::new(self.name.clone(), self.col.gather(&keep))
    }

    /// `true` when every value is truthy (NumPy `all` over a mask).
    pub fn all(&self) -> bool {
        match &self.col {
            Column::Bool(d, _) => d.iter().all(|&b| b),
            _ => (0..self.len()).all(|i| self.get(i).as_f64().is_some_and(|x| x != 0.0)),
        }
    }

    /// `true` when any value is truthy.
    pub fn any(&self) -> bool {
        match &self.col {
            Column::Bool(d, _) => d.iter().any(|&b| b),
            _ => (0..self.len()).any(|i| self.get(i).as_f64().is_some_and(|x| x != 0.0)),
        }
    }

    /// Row indices of non-zero/truthy entries (NumPy `nonzero`).
    pub fn nonzero(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| match self.get(i) {
                Value::Bool(b) => b,
                v => v.as_f64().is_some_and(|x| x != 0.0),
            })
            .collect()
    }
}

/// `self ∈ other` over raw slices: builds a typed set from `other`'s valid
/// values, probes `self`'s rows (nulls are never members).
fn membership<'a, T, K: std::hash::Hash + Eq + 'a>(
    data: &'a [T],
    valid: &Option<Vec<bool>>,
    other: &'a [T],
    other_valid: &Option<Vec<bool>>,
    key: impl Fn(&'a T) -> K,
) -> Vec<bool> {
    let set: FxHashSet<K> = other
        .iter()
        .enumerate()
        .filter(|(i, _)| other_valid.as_ref().map_or(true, |v| v[*i]))
        .map(|(_, x)| key(x))
        .collect();
    data.iter()
        .enumerate()
        .map(|(i, x)| valid.as_ref().map_or(true, |v| v[i]) && set.contains(&key(x)))
        .collect()
}

/// Number of distinct valid values in a slice.
fn count_distinct<'a, T, K: std::hash::Hash + Eq + 'a>(
    data: &'a [T],
    valid: Option<&[bool]>,
    key: impl Fn(&'a T) -> K,
) -> usize {
    data.iter()
        .enumerate()
        .filter(|(i, _)| valid.map_or(true, |v| v[*i]))
        .map(|(_, x)| key(x))
        .collect::<FxHashSet<K>>()
        .len()
}

/// First-occurrence indices of distinct values; nulls count as one value.
fn unique_keep<'a, T, K: std::hash::Hash + Eq + 'a>(
    data: &'a [T],
    valid: Option<&[bool]>,
    key: impl Fn(&'a T) -> K,
) -> Vec<usize> {
    let mut set: FxHashSet<K> = FxHashSet::default();
    let mut seen_null = false;
    let mut keep = Vec::new();
    for (i, x) in data.iter().enumerate() {
        if valid.map_or(true, |v| v[i]) {
            if set.insert(key(x)) {
                keep.push(i);
            }
        } else if !seen_null {
            seen_null = true;
            keep.push(i);
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Series {
        Series::new("x", Column::from_i64(v.to_vec()))
    }

    #[test]
    fn arithmetic_preserves_int() {
        let a = ints(&[1, 2]);
        let b = ints(&[10, 20]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.col.as_int(), &[11, 22]);
        let d = a.div(&b).unwrap();
        assert_eq!(d.col.as_float(), &[0.1, 0.1]);
    }

    #[test]
    fn comparisons_produce_masks() {
        let a = ints(&[1, 5, 3]);
        let m = a.gt_val(&Value::Int(2));
        assert_eq!(m.col.as_bool(), &[false, true, true]);
        let m2 = a.eq_series(&ints(&[1, 0, 3]));
        assert_eq!(m2.col.as_bool(), &[true, false, true]);
    }

    #[test]
    fn null_comparisons_are_false() {
        let mut col = Column::new(DType::Int);
        col.push(Value::Int(1)).unwrap();
        col.push_null();
        let s = Series::new("x", col);
        assert_eq!(s.gt_val(&Value::Int(0)).col.as_bool(), &[true, false]);
        assert_eq!(s.ne_val(&Value::Int(1)).col.as_bool(), &[false, false]);
    }

    #[test]
    fn mask_logic() {
        let a = Series::new("m", Column::from_bool(vec![true, false, true]));
        let b = Series::new("m", Column::from_bool(vec![true, true, false]));
        assert_eq!(a.and(&b).unwrap().col.as_bool(), &[true, false, false]);
        assert_eq!(a.or(&b).unwrap().col.as_bool(), &[true, true, true]);
        assert_eq!(a.not().unwrap().col.as_bool(), &[false, true, false]);
    }

    #[test]
    fn isin_ignores_nulls() {
        let mut col = Column::new(DType::Int);
        col.push(Value::Int(1)).unwrap();
        col.push_null();
        col.push(Value::Int(3)).unwrap();
        let s = Series::new("x", col);
        let other = ints(&[3, 1]);
        assert_eq!(s.isin(&other).col.as_bool(), &[true, false, true]);
    }

    #[test]
    fn string_accessor() {
        let s = Series::new("s", Column::from_strs(&["apple", "banana", "apricot"]));
        assert_eq!(
            s.str_startswith("ap").unwrap().col.as_bool(),
            &[true, false, true]
        );
        assert_eq!(
            s.str_contains("an").unwrap().col.as_bool(),
            &[false, true, false]
        );
        assert_eq!(
            s.str_slice(0, 2).unwrap().col.as_str_col(),
            &["ap".to_string(), "ba".into(), "ap".into()]
        );
    }

    #[test]
    fn dt_accessor() {
        let d = date::parse("1994-03-15").unwrap();
        let s = Series::new("d", Column::from_dates(vec![d]));
        assert_eq!(s.dt_year().unwrap().col.as_int(), &[1994]);
        assert_eq!(s.dt_month().unwrap().col.as_int(), &[3]);
    }

    #[test]
    fn reductions() {
        let s = ints(&[4, 1, 3]);
        assert_eq!(s.sum(), Value::Int(8));
        assert_eq!(s.min(), Value::Int(1));
        assert_eq!(s.max(), Value::Int(4));
        assert_eq!(s.mean(), Value::Float(8.0 / 3.0));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn unique_and_nunique() {
        let s = ints(&[2, 1, 2, 3, 1]);
        assert_eq!(s.unique().col.as_int(), &[2, 1, 3]);
        assert_eq!(s.nunique(), 3);
    }

    #[test]
    fn all_any_nonzero() {
        let s = ints(&[1, 0, 2]);
        assert!(!s.all());
        assert!(s.any());
        assert_eq!(s.nonzero(), vec![0, 2]);
    }

    #[test]
    fn fillna_and_isna() {
        let mut col = Column::new(DType::Float);
        col.push(Value::Float(1.0)).unwrap();
        col.push_null();
        let s = Series::new("x", col);
        assert_eq!(s.isna().col.as_bool(), &[false, true]);
        let filled = s.fillna(&Value::Float(0.0)).unwrap();
        assert_eq!(filled.col.as_float(), &[1.0, 0.0]);
    }

    #[test]
    fn round_scales() {
        let s = Series::new("x", Column::from_f64(vec![1.2345, 2.5]));
        let r = s.round(2).unwrap();
        assert_eq!(r.col.as_float(), &[1.23, 2.5]);
    }
}
