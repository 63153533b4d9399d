//! Table and column statistics: zone maps, min/max bounds, null counts and
//! distinct-count sketches.
//!
//! Statistics are computed when a table is registered (and maintained
//! incrementally on [`crate::db::Database::append`]) and drive two layers of
//! the engine:
//!
//! * **planning** — [`crate::optimize`] estimates predicate selectivities and
//!   join cardinalities from row counts, min/max bounds and the
//!   distinct-count estimate, feeding the greedy cost-based join-order
//!   rewrite;
//! * **execution** — scans consult the per-zone min/max **zone maps** to skip
//!   whole row zones whose bounds prove a pushed-down range/equality/IN
//!   predicate cannot match ([`crate::exec`] reports pruned/scanned counts).
//!
//! Zone maps cover the fixed-width dtypes (`Int`, `Date`, `Float`, `Bool`)
//! plus dictionary-encoded strings (zones over the integer codes; scans
//! translate string equality/IN literals to codes before pruning); plain
//! string columns keep only global stats. All pruning decisions are
//! conservative: any comparison that cannot be decided keeps the zone.

use crate::ast::BinOp;
use crate::expr::BExpr;
use pytond_common::hash::{canonical_f64_bits, FxHasher};
use pytond_common::{Column, Value};
use std::hash::Hasher;

/// Rows per statistics zone ("morsel" at the storage layer): the granularity
/// at which min/max zone maps are kept and scans can skip input.
pub const ZONE_ROWS: usize = 4096;

/// Number of minimum hashes the distinct-count sketch retains.
const KMV_K: usize = 256;

/// Per-zone summary of one column: row/null counts and min/max over the
/// zone's valid (non-null) rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneStat {
    /// Rows in the zone (the last zone of a table may be short).
    pub rows: u32,
    /// Null rows in the zone.
    pub null_count: u32,
    /// Minimum valid value; `Value::Null` when every row is null.
    pub min: Value,
    /// Maximum valid value; `Value::Null` when every row is null.
    pub max: Value,
}

impl ZoneStat {
    fn empty() -> ZoneStat {
        ZoneStat {
            rows: 0,
            null_count: 0,
            min: Value::Null,
            max: Value::Null,
        }
    }
}

/// A k-minimum-values sketch over 64-bit value hashes: keeps the `KMV_K`
/// smallest distinct hashes seen and estimates the total distinct count from
/// their density. Exact while fewer than `KMV_K` distinct values were seen;
/// mergeable, so appends never require a rescan.
#[derive(Debug, Clone, Default)]
struct KmvSketch {
    /// Sorted ascending; at most `KMV_K` entries.
    mins: Vec<u64>,
}

impl KmvSketch {
    fn insert(&mut self, h: u64) {
        // Full and above the largest kept hash: nothing to do.
        if self.mins.len() == KMV_K && self.mins.last().is_some_and(|&max| h >= max) {
            return;
        }
        match self.mins.binary_search(&h) {
            Ok(_) => {}
            Err(pos) => {
                if self.mins.len() < KMV_K {
                    self.mins.insert(pos, h);
                } else if pos < KMV_K {
                    self.mins.insert(pos, h);
                    self.mins.pop();
                }
            }
        }
    }

    fn estimate(&self) -> f64 {
        if self.mins.len() < KMV_K {
            return self.mins.len() as f64;
        }
        // k-th minimum at fraction kth/2^64 of the hash space ⇒ about
        // (k-1) / fraction distinct values overall.
        let kth = *self.mins.last().expect("k >= 1") as f64;
        if kth <= 0.0 {
            return self.mins.len() as f64;
        }
        ((KMV_K - 1) as f64) * (u64::MAX as f64) / kth
    }
}

#[inline]
fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

#[inline]
fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(b);
    h.finish()
}

/// Statistics for one stored column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Total null rows.
    pub null_count: usize,
    /// Global minimum over valid rows (`Value::Null` when none).
    pub min: Value,
    /// Global maximum over valid rows (`Value::Null` when none).
    pub max: Value,
    /// Per-zone min/max; `None` for string columns.
    pub zones: Option<Vec<ZoneStat>>,
    /// Distinct-count sketch (nulls excluded).
    sketch: KmvSketch,
}

impl ColumnStats {
    /// Estimated number of distinct (non-null) values.
    pub fn distinct_estimate(&self) -> f64 {
        self.sketch.estimate().max(1.0)
    }
}

/// Statistics for one stored table: row count plus per-column stats aligned
/// with the table's schema.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total rows.
    pub row_count: usize,
    /// One entry per stored column, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes statistics for a full set of equal-length columns.
    pub fn compute<C: std::borrow::Borrow<Column>>(cols: &[C]) -> TableStats {
        let row_count = cols.first().map_or(0, |c| c.borrow().len());
        let mut stats = TableStats {
            row_count: 0,
            columns: cols
                .iter()
                .map(|c| ColumnStats {
                    null_count: 0,
                    min: Value::Null,
                    max: Value::Null,
                    zones: zone_mapped(c.borrow()).then(Vec::new),
                    sketch: KmvSketch::default(),
                })
                .collect(),
        };
        stats.extend(cols);
        debug_assert_eq!(stats.row_count, row_count);
        stats
    }

    /// Absorbs an append. `tail` are the columns of the table's new last
    /// chunk: the open zone's rows — rows `[row_count / ZONE_ROWS *
    /// ZONE_ROWS, row_count)`, whose zone map this already holds — followed
    /// by the appended rows. The open zone's map grows by the appended rows
    /// and new zones follow; null counts, global bounds and sketches merge
    /// in the appended rows. Nothing older is rescanned, and the result is
    /// what [`TableStats::compute`] over all rows yields, zone for zone.
    pub fn extend<C: std::borrow::Borrow<Column>>(&mut self, tail: &[C]) {
        let zone_start = self.row_count / ZONE_ROWS * ZONE_ROWS;
        let from = self.row_count - zone_start;
        let n = tail.first().map_or(0, |c| c.borrow().len());
        if n <= from {
            return;
        }
        for (cs, col) in self.columns.iter_mut().zip(tail) {
            extend_column(cs, col.borrow(), from);
        }
        self.row_count = zone_start + n;
    }
}

/// Whether a dtype participates in zone maps.
fn zone_mapped(c: &Column) -> bool {
    !matches!(c, Column::Str(..))
}

/// Extends one column's stats with rows `[start, len)` of `col`, which
/// starts on a zone boundary.
fn extend_column(cs: &mut ColumnStats, col: &Column, start: usize) {
    match col {
        Column::Int(d, v) => extend_typed(cs, d, v.as_deref(), start, Value::Int, |x| {
            hash_u64(x as u64)
        }),
        Column::Date(d, v) => extend_typed(cs, d, v.as_deref(), start, Value::Date, |x| {
            hash_u64(i64::from(x) as u64)
        }),
        Column::Bool(d, v) => extend_typed(cs, d, v.as_deref(), start, Value::Bool, |x| {
            hash_u64(u64::from(x))
        }),
        Column::Float(d, v) => extend_typed(cs, d, v.as_deref(), start, Value::Float, |x| {
            hash_u64(canonical_f64_bits(x))
        }),
        Column::Str(d, v) => {
            // Plain strings keep global stats only (no zone map).
            let valid = v.as_deref();
            for (i, s) in d.iter().enumerate().skip(start) {
                if !valid.map_or(true, |v| v[i]) {
                    cs.null_count += 1;
                    continue;
                }
                widen_str(&mut cs.min, &mut cs.max, s);
                cs.sketch.insert(hash_bytes(s.as_bytes()));
            }
        }
        Column::DictStr { codes, dict, valid } => {
            // Global bounds are strings (the planner compares them against
            // string literals) and the sketch hashes string bytes, so
            // estimates are identical to the plain path. Zone maps run over
            // the **codes** as ints: codes are stable under
            // dictionary-extending appends, and scans translate string
            // equality/IN literals to codes before consulting them.
            let valid = valid.as_deref();
            for (i, &c) in codes.iter().enumerate().skip(start) {
                if !valid.map_or(true, |v| v[i]) {
                    cs.null_count += 1;
                    continue;
                }
                let s = dict.get(c);
                widen_str(&mut cs.min, &mut cs.max, s);
                cs.sketch.insert(hash_bytes(s.as_bytes()));
            }
            extend_zones(cs, codes, valid, start, |x| Value::Int(i64::from(x)));
        }
    }
}

/// Monomorphic stats loop for fixed-width data: updates global min/max, null
/// count and the sketch over `[start, len)`, and the zone maps.
fn extend_typed<T: Copy + PartialOrd>(
    cs: &mut ColumnStats,
    data: &[T],
    valid: Option<&[bool]>,
    start: usize,
    to_value: impl Fn(T) -> Value,
    hash: impl Fn(T) -> u64,
) {
    // Global stats over the strictly-new rows.
    let mut bounds = Bounds::default();
    for (i, &x) in data.iter().enumerate().skip(start) {
        if !valid.map_or(true, |v| v[i]) {
            cs.null_count += 1;
            continue;
        }
        bounds.widen(x);
        cs.sketch.insert(hash(x));
    }
    bounds.merge(&mut cs.min, &mut cs.max, &to_value);
    extend_zones(cs, data, valid, start, to_value);
}

/// Running min/max of a run of values in their own type — `update_minmax`
/// over the run without a [`Value`] per row: NaN is skipped, and of equal
/// values the first seen is kept.
struct Bounds<T>(Option<(T, T)>);

impl<T> Default for Bounds<T> {
    fn default() -> Self {
        Bounds(None)
    }
}

impl<T: Copy + PartialOrd> Bounds<T> {
    #[inline]
    fn widen(&mut self, x: T) {
        if x.partial_cmp(&x).is_none() {
            return;
        }
        self.0 = Some(match self.0 {
            None => (x, x),
            Some((lo, hi)) => (if x < lo { x } else { lo }, if x > hi { x } else { hi }),
        });
    }

    /// Widens `[min, max]` by the run, as if its values came after theirs.
    fn merge(self, min: &mut Value, max: &mut Value, to_value: impl Fn(T) -> Value) {
        if let Some((lo, hi)) = self.0 {
            update_minmax(min, max, &to_value(lo));
            update_minmax(min, max, &to_value(hi));
        }
    }
}

/// Extends the zone maps by rows `[start, len)` of `data`, which starts on
/// a zone boundary: rows before the next boundary grow the open (last)
/// zone, the rest start new zones.
fn extend_zones<T: Copy + PartialOrd>(
    cs: &mut ColumnStats,
    data: &[T],
    valid: Option<&[bool]>,
    start: usize,
    to_value: impl Fn(T) -> Value,
) {
    let Some(zones) = cs.zones.as_mut() else {
        return;
    };
    let mut i = start;
    while i < data.len() {
        if i % ZONE_ROWS == 0 {
            zones.push(ZoneStat::empty());
        }
        let z = zones.last_mut().expect("the open zone exists");
        let end = (i / ZONE_ROWS + 1) * ZONE_ROWS;
        let end = end.min(data.len());
        z.rows += (end - i) as u32;
        let mut bounds = Bounds::default();
        for (j, &x) in data[i..end].iter().enumerate() {
            if !valid.map_or(true, |v| v[i + j]) {
                z.null_count += 1;
                continue;
            }
            bounds.widen(x);
        }
        bounds.merge(&mut z.min, &mut z.max, &to_value);
        i = end;
    }
}

/// Widens string bounds to cover `s` — `update_minmax` for strings,
/// allocating only when a bound moves.
fn widen_str(min: &mut Value, max: &mut Value, s: &str) {
    if !matches!(min, Value::Str(m) if m.as_str() <= s) {
        *min = Value::Str(s.to_string());
    }
    if !matches!(max, Value::Str(m) if m.as_str() >= s) {
        *max = Value::Str(s.to_string());
    }
}

/// Widens `[min, max]` to cover `v`. NaN floats are skipped: they satisfy no
/// range predicate, so excluding them keeps the bounds tight *and* sound.
fn update_minmax(min: &mut Value, max: &mut Value, v: &Value) {
    if let Value::Float(f) = v {
        if f.is_nan() {
            return;
        }
    }
    if min.is_null() || v.sql_cmp(min) == Some(std::cmp::Ordering::Less) {
        *min = v.clone();
    }
    if max.is_null() || v.sql_cmp(max) == Some(std::cmp::Ordering::Greater) {
        *max = v.clone();
    }
}

// ---------------- zone-map pruning ----------------

/// One predicate constraint a zone map can evaluate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ZoneTest {
    /// `col <op> literal` with `op ∈ {=, <, <=, >, >=}`.
    Cmp {
        /// Stored column index.
        col: usize,
        /// Comparison operator (literal on the right).
        op: BinOp,
        /// Non-null literal.
        lit: Value,
    },
    /// `col IN (non-null literals)`.
    In {
        /// Stored column index.
        col: usize,
        /// Candidate values (nulls removed: they never match).
        list: Vec<Value>,
    },
    /// `col IS [NOT] NULL`.
    Null {
        /// Stored column index.
        col: usize,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
}

/// Extracts the zone-prunable conjuncts of a scan predicate. Conjuncts with
/// any other shape are ignored (they still run as the scan's row filter).
pub(crate) fn prunable_tests(pred: &BExpr) -> Vec<ZoneTest> {
    let mut out = Vec::new();
    collect_tests(pred, &mut out);
    out
}

fn collect_tests(e: &BExpr, out: &mut Vec<ZoneTest>) {
    match e {
        BExpr::Bin {
            op: BinOp::And,
            l,
            r,
        } => {
            collect_tests(l, out);
            collect_tests(r, out);
        }
        BExpr::Bin { op, l, r } if cmp_op(*op) => match (&**l, &**r) {
            (BExpr::Col(c), BExpr::Lit(v)) if !v.is_null() => out.push(ZoneTest::Cmp {
                col: *c,
                op: *op,
                lit: v.clone(),
            }),
            (BExpr::Lit(v), BExpr::Col(c)) if !v.is_null() => out.push(ZoneTest::Cmp {
                col: *c,
                op: op.mirrored(),
                lit: v.clone(),
            }),
            _ => {}
        },
        BExpr::InList {
            e,
            list,
            negated: false,
        } => {
            if let BExpr::Col(c) = &**e {
                let vals: Vec<Value> = list.iter().filter(|v| !v.is_null()).cloned().collect();
                out.push(ZoneTest::In {
                    col: *c,
                    list: vals,
                });
            }
        }
        BExpr::IsNull { e, negated } => {
            if let BExpr::Col(c) = &**e {
                out.push(ZoneTest::Null {
                    col: *c,
                    negated: *negated,
                });
            }
        }
        _ => {}
    }
}

fn cmp_op(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Rewrites a zone test over a dictionary-encoded column into **code
/// space**, where that column's zone min/max live. Equality and IN translate
/// each string literal through the dictionary; a literal absent from the
/// dictionary can never match any row, so it simply drops from the candidate
/// list (an empty list refutes every zone). Range comparisons and non-string
/// literals return `None` — code order is first-occurrence order, not
/// lexicographic, so code-space bounds say nothing about them and the zones
/// must stay unpruned (the scan's row filter still applies the predicate).
pub(crate) fn dict_zone_test(t: &ZoneTest, dict: &pytond_common::Dictionary) -> Option<ZoneTest> {
    let code_val = |s: &str| dict.code_of(s).map(|c| Value::Int(i64::from(c)));
    match t {
        ZoneTest::Null { .. } => Some(t.clone()),
        ZoneTest::Cmp {
            col,
            op: BinOp::Eq,
            lit: Value::Str(s),
        } => Some(ZoneTest::In {
            col: *col,
            list: code_val(s).into_iter().collect(),
        }),
        ZoneTest::In { col, list } if list.iter().all(|v| v.as_str().is_some()) => {
            Some(ZoneTest::In {
                col: *col,
                list: list
                    .iter()
                    .filter_map(|v| v.as_str().and_then(code_val))
                    .collect(),
            })
        }
        _ => None,
    }
}

/// Whether a zone can possibly contain a row satisfying `test`.
/// Conservative: undecidable comparisons keep the zone.
pub(crate) fn zone_may_match(test: &ZoneTest, zone: &ZoneStat) -> bool {
    use std::cmp::Ordering::*;
    let all_null = zone.null_count == zone.rows;
    match test {
        ZoneTest::Null { negated: false, .. } => zone.null_count > 0,
        ZoneTest::Null { negated: true, .. } => zone.null_count < zone.rows,
        // Comparison / membership predicates are never satisfied by NULL rows.
        _ if all_null => false,
        ZoneTest::Cmp { op, lit, .. } => {
            let lo = zone.min.sql_cmp(lit); // min vs lit
            let hi = zone.max.sql_cmp(lit); // max vs lit
            match op {
                BinOp::Eq => !matches!(lo, Some(Greater)) && !matches!(hi, Some(Less)),
                BinOp::Lt => matches!(lo, Some(Less) | None),
                BinOp::Le => !matches!(lo, Some(Greater)),
                BinOp::Gt => matches!(hi, Some(Greater) | None),
                BinOp::Ge => !matches!(hi, Some(Less)),
                _ => true,
            }
        }
        ZoneTest::In { list, .. } => list.iter().any(|v| {
            !matches!(zone.min.sql_cmp(v), Some(Greater))
                && !matches!(zone.max.sql_cmp(v), Some(Less))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::DType;

    fn int_col(vals: &[Option<i64>]) -> Column {
        let mut c = Column::new(DType::Int);
        for v in vals {
            match v {
                Some(x) => c.push(Value::Int(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    #[test]
    fn global_stats_and_zones() {
        let c = Column::from_i64((0..10_000).collect());
        let stats = TableStats::compute(&[&c]);
        assert_eq!(stats.row_count, 10_000);
        let cs = &stats.columns[0];
        assert_eq!(cs.null_count, 0);
        assert_eq!(cs.min, Value::Int(0));
        assert_eq!(cs.max, Value::Int(9_999));
        let zones = cs.zones.as_ref().unwrap();
        assert_eq!(zones.len(), 10_000usize.div_ceil(ZONE_ROWS));
        assert_eq!(zones[0].min, Value::Int(0));
        assert_eq!(zones[0].max, Value::Int(ZONE_ROWS as i64 - 1));
        assert_eq!(zones.last().unwrap().rows as usize, 10_000 % ZONE_ROWS);
    }

    #[test]
    fn distinct_estimate_exact_below_k() {
        let c = Column::from_i64((0..100).map(|i| i % 13).collect());
        let stats = TableStats::compute(&[&c]);
        assert_eq!(stats.columns[0].distinct_estimate(), 13.0);
    }

    #[test]
    fn distinct_estimate_close_above_k() {
        let c = Column::from_i64((0..100_000).collect());
        let stats = TableStats::compute(&[&c]);
        let est = stats.columns[0].distinct_estimate();
        assert!(
            (est - 100_000.0).abs() / 100_000.0 < 0.25,
            "estimate {est} too far from 100000"
        );
    }

    #[test]
    fn nulls_counted_and_excluded_from_bounds() {
        let c = int_col(&[Some(5), None, Some(1), None]);
        let stats = TableStats::compute(&[&c]);
        let cs = &stats.columns[0];
        assert_eq!(cs.null_count, 2);
        assert_eq!(cs.min, Value::Int(1));
        assert_eq!(cs.max, Value::Int(5));
        assert_eq!(cs.zones.as_ref().unwrap()[0].null_count, 2);
    }

    #[test]
    fn string_columns_have_no_zone_map() {
        let c = Column::from_strs(&["b", "a"]);
        let stats = TableStats::compute(&[&c]);
        let cs = &stats.columns[0];
        assert!(cs.zones.is_none());
        assert_eq!(cs.min, Value::Str("a".into()));
        assert_eq!(cs.max, Value::Str("b".into()));
    }

    #[test]
    fn extend_matches_recompute() {
        // Append in three uneven batches, each handed over as the table's
        // new last chunk (open zone + batch); stats must equal a
        // from-scratch computation over the concatenation.
        let all: Vec<i64> = (0..11_000).map(|i| (i * 7) % 1000).collect();
        let mut stats = TableStats::compute(&[&Column::from_i64(all[..3000].to_vec())]);
        for end in [9000, 11_000] {
            let open = stats.row_count / ZONE_ROWS * ZONE_ROWS;
            stats.extend(&[&Column::from_i64(all[open..end].to_vec())]);
        }
        let fresh = TableStats::compute(&[&Column::from_i64(all)]);
        assert_eq!(stats.row_count, fresh.row_count);
        let (a, b) = (&stats.columns[0], &fresh.columns[0]);
        assert_eq!(a.null_count, b.null_count);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert_eq!(a.zones, b.zones);
        assert_eq!(a.distinct_estimate(), b.distinct_estimate());
    }

    #[test]
    fn zone_pruning_decisions() {
        let zone = ZoneStat {
            rows: 100,
            null_count: 10,
            min: Value::Int(50),
            max: Value::Int(99),
        };
        let cmp = |op, lit| ZoneTest::Cmp {
            col: 0,
            op,
            lit: Value::Int(lit),
        };
        assert!(!zone_may_match(&cmp(BinOp::Eq, 10), &zone));
        assert!(zone_may_match(&cmp(BinOp::Eq, 75), &zone));
        assert!(!zone_may_match(&cmp(BinOp::Lt, 50), &zone));
        assert!(zone_may_match(&cmp(BinOp::Le, 50), &zone));
        assert!(!zone_may_match(&cmp(BinOp::Gt, 99), &zone));
        assert!(zone_may_match(&cmp(BinOp::Ge, 99), &zone));
        let in_test = ZoneTest::In {
            col: 0,
            list: vec![Value::Int(1), Value::Int(60)],
        };
        assert!(zone_may_match(&in_test, &zone));
        let in_miss = ZoneTest::In {
            col: 0,
            list: vec![Value::Int(1), Value::Int(200)],
        };
        assert!(!zone_may_match(&in_miss, &zone));
        assert!(zone_may_match(
            &ZoneTest::Null {
                col: 0,
                negated: false
            },
            &zone
        ));
        // Cross-type int/float comparisons stay decidable.
        let f = ZoneTest::Cmp {
            col: 0,
            op: BinOp::Gt,
            lit: Value::Float(99.5),
        };
        assert!(!zone_may_match(&f, &zone));
    }

    #[test]
    fn all_null_zone_prunes_comparisons_but_not_is_null() {
        let zone = ZoneStat {
            rows: 8,
            null_count: 8,
            min: Value::Null,
            max: Value::Null,
        };
        assert!(!zone_may_match(
            &ZoneTest::Cmp {
                col: 0,
                op: BinOp::Ge,
                lit: Value::Int(0)
            },
            &zone
        ));
        assert!(zone_may_match(
            &ZoneTest::Null {
                col: 0,
                negated: false
            },
            &zone
        ));
        assert!(!zone_may_match(
            &ZoneTest::Null {
                col: 0,
                negated: true
            },
            &zone
        ));
    }

    #[test]
    fn prunable_extraction_shapes() {
        let col = |i| Box::new(BExpr::Col(i));
        let lit = |v: i64| Box::new(BExpr::Lit(Value::Int(v)));
        // 5 <= #0 AND #1 IN (1, NULL, 2) AND #2 LIKE ... (ignored)
        let pred = BExpr::Bin {
            op: BinOp::And,
            l: Box::new(BExpr::Bin {
                op: BinOp::Le,
                l: lit(5),
                r: col(0),
            }),
            r: Box::new(BExpr::InList {
                e: col(1),
                list: vec![Value::Int(1), Value::Null, Value::Int(2)],
                negated: false,
            }),
        };
        let tests = prunable_tests(&pred);
        assert_eq!(
            tests,
            vec![
                ZoneTest::Cmp {
                    col: 0,
                    op: BinOp::Ge,
                    lit: Value::Int(5)
                },
                ZoneTest::In {
                    col: 1,
                    list: vec![Value::Int(1), Value::Int(2)]
                },
            ]
        );
    }
}
