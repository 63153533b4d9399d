//! Columnar aggregation state: per aggregate one typed accumulator array
//! indexed by group id, filled one fixed-grid morsel at a time.
//!
//! [`AggLayout`] is planned once per aggregation (argument dedup, the dtype
//! each argument kernel produces, which accumulator each aggregate needs).
//! [`AggLayout::partial`] folds one morsel of input rows into a fresh
//! [`AggState`], evaluating argument expressions for that morsel only — a
//! bare column argument is read in place, `col ∘ col` over non-null floats is
//! folded straight from the two input slices. [`AggState::merge`] combines
//! partials (the executor calls it in ascending morsel order, which is what
//! keeps float results independent of the thread count), and
//! [`AggState::finalize`] writes typed output columns.
//!
//! [`Fold`] is what one aggregation has merged so far. A query drives a fold
//! of its own to completion; a standing view keeps its fold and resumes it
//! with every appended batch ([`crate::mv`]). See `docs/EXECUTION.md`
//! § Aggregation.

use crate::ast::{AggName, BinOp};
use crate::expr::{BExpr, DictTables, RowsRef};
use crate::plan::BAgg;
use crate::table::Batch;
use pytond_common::hash::{encode_value, normalize_key, FxHashSet};
use pytond_common::{Column, DType, Result, Value};
use std::ops::AddAssign;

/// The per-query plan of one aggregation's accumulators.
pub(crate) struct AggLayout<'q> {
    aggs: &'q [BAgg],
    /// Deduplicated argument expressions: `SUM(v)`, `AVG(v)` and `MIN(v)`
    /// evaluate `v` once per morsel.
    args: Vec<&'q BExpr>,
    /// Per aggregate: its slot in `args` (`None` = `COUNT(*)`).
    arg_of: Vec<Option<usize>>,
    /// Per argument: the dtype its kernel produces.
    arg_dtypes: Vec<DType>,
    /// Per argument: every consumer is a float sum, so `col ∘ col` may fold
    /// from the input slices without materializing.
    sums_only: Vec<bool>,
}

impl<'q> AggLayout<'q> {
    pub(crate) fn plan(
        aggs: &'q [BAgg],
        input: &Batch,
        tables: &DictTables,
    ) -> Result<AggLayout<'q>> {
        let mut args: Vec<&BExpr> = Vec::new();
        let arg_of: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| {
                a.arg.as_ref().map(|e| {
                    args.iter().position(|u| *u == e).unwrap_or_else(|| {
                        args.push(e);
                        args.len() - 1
                    })
                })
            })
            .collect();
        // The dtype a kernel produces is a function of the expression and the
        // input dtypes, never of the rows: ask the kernel itself, over none.
        let arg_dtypes = args
            .iter()
            .map(|e| {
                Ok(e.eval_rows(input, RowsRef::Range(0, 0), Some(tables))?
                    .dtype())
            })
            .collect::<Result<Vec<DType>>>()?;
        let mut layout = AggLayout {
            aggs,
            args,
            arg_of,
            arg_dtypes,
            sums_only: Vec::new(),
        };
        layout.sums_only = (0..layout.args.len())
            .map(|u| {
                (0..aggs.len())
                    .filter(|&ai| layout.arg_of[ai] == Some(u))
                    .all(|ai| matches!(layout.acc(ai), AccCol::SumF { .. }))
            })
            .collect();
        Ok(layout)
    }

    /// Aggregates in this layout.
    fn len(&self) -> usize {
        self.aggs.len()
    }

    fn arg_dtype(&self, ai: usize) -> Option<DType> {
        self.arg_of[ai].map(|u| self.arg_dtypes[u])
    }

    /// The (empty) accumulator aggregate `ai` folds into.
    fn acc(&self, ai: usize) -> AccCol {
        let agg = &self.aggs[ai];
        let dtype = self.arg_dtype(ai);
        match (agg.func, agg.distinct) {
            (_, true) => match dtype {
                Some(DType::Int | DType::Date | DType::Bool) => {
                    AccCol::DistinctI(Distinct::default())
                }
                _ => AccCol::DistinctB(Distinct::default()),
            },
            (AggName::Count, _) => AccCol::Count(Vec::new()),
            (AggName::Sum, _) if dtype == Some(DType::Int) => AccCol::SumI {
                sum: Vec::new(),
                cnt: Vec::new(),
            },
            (AggName::Sum | AggName::Avg, _) => AccCol::SumF {
                sum: Vec::new(),
                cnt: Vec::new(),
            },
            (AggName::Min | AggName::Max, _) => match dtype {
                Some(DType::Int | DType::Date) => AccCol::ExtI {
                    best: Vec::new(),
                    any: Vec::new(),
                },
                Some(DType::Float) => AccCol::ExtF {
                    best: Vec::new(),
                    any: Vec::new(),
                },
                _ => AccCol::ExtV(Vec::new()),
            },
        }
    }

    /// An empty state (no groups yet).
    pub(crate) fn empty(&self) -> AggState {
        AggState {
            groups: 0,
            accs: (0..self.len()).map(|ai| self.acc(ai)).collect(),
        }
    }

    /// Bytes one group occupies across every accumulator array (the charge
    /// per retained group; a DISTINCT set is charged per value it keeps, by
    /// [`AggState::merge`]).
    pub(crate) fn group_bytes(&self) -> usize {
        let accs: usize = (0..self.len())
            .map(|ai| match self.acc(ai) {
                AccCol::Count(_) => 8,
                AccCol::SumI { .. } | AccCol::SumF { .. } => 16,
                AccCol::ExtI { .. } | AccCol::ExtF { .. } => 9,
                AccCol::ExtV(_) => std::mem::size_of::<Option<Value>>(),
                AccCol::DistinctI(_) | AccCol::DistinctB(_) => 0,
            })
            .sum();
        std::mem::size_of::<usize>() + accs
    }

    /// Folds input rows `[start, end)` into a fresh state of `groups`
    /// morsel-local groups. `gids[k]` is the local group of row `start + k`;
    /// `gids = None` is scalar aggregation (one group, no per-row ids).
    pub(crate) fn partial(
        &self,
        input: &Batch,
        (start, end): (usize, usize),
        gids: Option<&[u32]>,
        groups: usize,
        tables: &DictTables,
    ) -> Result<AggState> {
        let len = end - start;
        // Rows per local group: what every aggregate over a non-null
        // argument counts, computed once.
        let mut sizes = vec![0i64; groups];
        match gids {
            None => sizes[0] = len as i64,
            Some(gids) => gids.iter().for_each(|&g| sizes[g as usize] += 1),
        }
        let vals: Vec<ArgVals<'_>> = (0..self.args.len())
            .map(|u| self.arg_vals(u, input, start, end, tables))
            .collect::<Result<_>>()?;
        let mut accs = Vec::with_capacity(self.len());
        for ai in 0..self.len() {
            let mut acc = self.acc(ai);
            acc.grow(groups);
            let is_min = self.aggs[ai].func == AggName::Min;
            acc.accumulate(self.arg_of[ai].map(|u| &vals[u]), gids, &sizes, len, is_min);
            accs.push(acc);
        }
        Ok(AggState { groups, accs })
    }

    /// Argument `u` over input rows `[start, end)`.
    fn arg_vals<'a>(
        &self,
        u: usize,
        input: &'a Batch,
        start: usize,
        end: usize,
        tables: &DictTables,
    ) -> Result<ArgVals<'a>> {
        let floats = |e: &BExpr| match e {
            BExpr::Col(i) => match input.cols.get(*i).map(|c| c.as_ref()) {
                Some(Column::Float(d, None)) => Some(&d[start..end]),
                _ => None,
            },
            _ => None,
        };
        let zipped = match self.args[u] {
            BExpr::Bin {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul),
                l,
                r,
            } if self.sums_only[u] => floats(l).zip(floats(r)).map(|(a, b)| (*op, a, b)),
            _ => None,
        };
        Ok(match (self.args[u], zipped) {
            (BExpr::Col(i), _) if *i < input.cols.len() => ArgVals::Rows(&input.cols[*i], start),
            (_, Some((op, a, b))) => ArgVals::Zip(op, a, b),
            (e, None) => {
                ArgVals::Scratch(e.eval_rows(input, RowsRef::Range(start, end), Some(tables))?)
            }
        })
    }
}

/// One argument's values for one morsel.
enum ArgVals<'a> {
    /// Rows `[at, at + len)` of an input column, read in place.
    Rows(&'a Column, usize),
    /// A morsel-sized evaluation, dropped when the morsel is done.
    Scratch(Column),
    /// `l[k] ∘ r[k]` over two non-null float input slices (already cut to
    /// the morsel), never materialized; only float sums consume it.
    Zip(BinOp, &'a [f64], &'a [f64]),
}

impl ArgVals<'_> {
    /// The column and the offset of the morsel's first row in it.
    fn column(&self) -> (&Column, usize) {
        match self {
            ArgVals::Rows(c, at) => (c, *at),
            ArgVals::Scratch(c) => (c, 0),
            ArgVals::Zip(..) => unreachable!("zipped arguments feed float sums only"),
        }
    }
}

/// Per-group accumulators of one morsel, or of everything merged so far.
#[derive(Debug, Clone)]
pub(crate) struct AggState {
    groups: usize,
    accs: Vec<AccCol>,
}

/// An aggregation in progress: everything folded so far, resumable with more
/// rows of the same input stream.
///
/// The fold tree is fixed by the stream alone: rows are cut into morsels at
/// multiples of the morsel size counted from the stream's first row, each
/// morsel folds into a partial, and partials merge in ascending order. A
/// fold therefore stops between two calls exactly where a longer single call
/// would have been anyway — after the last *closed* (full) morsel — and
/// keeps the rows of the open trailing morsel raw, because their partial is
/// not final until the morsel fills. Resuming with more rows closes whatever
/// fills and yields the same bits as folding the whole stream at once.
/// Memory is O(groups + morsel), never O(input).
#[derive(Debug, Default)]
pub(crate) struct Fold {
    /// Group-key values of the closed morsels' groups, one row per group in
    /// global first-occurrence order.
    pub(crate) keys: Vec<Column>,
    /// The closed morsels' partials, merged in ascending order (`None`
    /// before the first rows arrive).
    pub(crate) closed: Option<AggState>,
    /// The open trailing morsel: its input rows (only the columns that keys
    /// and arguments read are populated) and how many they are.
    pub(crate) tail: Option<(Batch, usize)>,
    /// Input rows the latest resumption brought.
    pub(crate) fed: usize,
}

/// One aggregate's accumulators, indexed by group id. `cnt` counts the
/// non-null values folded in: it is `AVG`'s divisor and what makes a `SUM`
/// over no values NULL.
#[derive(Debug, Clone)]
enum AccCol {
    Count(Vec<i64>),
    SumI {
        sum: Vec<i64>,
        cnt: Vec<i64>,
    },
    /// `SUM` over floats and every `AVG`.
    SumF {
        sum: Vec<f64>,
        cnt: Vec<i64>,
    },
    /// `MIN`/`MAX` over `Int` and `Date` (widened).
    ExtI {
        best: Vec<i64>,
        any: Vec<bool>,
    },
    ExtF {
        best: Vec<f64>,
        any: Vec<bool>,
    },
    /// `MIN`/`MAX` over strings and booleans: row-at-a-time `Value`s.
    ExtV(Vec<Option<Value>>),
    /// DISTINCT over a fixed-width argument.
    DistinctI(Distinct<i64>),
    /// DISTINCT fallback (float/string arguments): byte-encoded values.
    DistinctB(Distinct<Vec<u8>>),
}

/// One `COUNT(DISTINCT …)`'s values, flat over all groups. A morsel only
/// *lists* its `(local group, value)` pairs; the merge, which knows global
/// group ids, inserts them into the one `(group, value)` set — so each input
/// row is hashed once, and sets being order-insensitive, the result cannot
/// depend on the grid.
#[derive(Debug, Clone, Default)]
struct Distinct<V> {
    pairs: Vec<(u32, V)>,
    seen: FxHashSet<(u32, V)>,
}

impl<V: std::hash::Hash + Eq> Distinct<V> {
    /// Inserts a partial's pairs under their global groups; returns the
    /// bytes the newly kept pairs hold (`heap` is a value's own).
    fn merge(&mut self, part: Distinct<V>, map: &[u32], heap: impl Fn(&V) -> usize) -> usize {
        let mut added = 0;
        for (g, v) in part.pairs {
            let bytes = std::mem::size_of::<(u32, V)>() + heap(&v);
            if self.seen.insert((map[g as usize], v)) {
                added += bytes;
            }
        }
        added
    }

    /// Distinct values per group.
    fn counts(&self, groups: usize) -> Column {
        let mut counts = vec![0i64; groups];
        self.seen.iter().for_each(|(g, _)| counts[*g as usize] += 1);
        Column::from_i64(counts)
    }
}

/// `dst[g] += src[g]` — per-group row counts into a count accumulator.
fn add_each(dst: &mut [i64], src: &[i64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d += s);
}

/// Calls `f(group, k)` for every valid morsel row `k`.
#[inline(always)]
fn each_valid(
    gids: Option<&[u32]>,
    valid: Option<&[bool]>,
    len: usize,
    mut f: impl FnMut(usize, usize),
) {
    let ok = |k: usize| valid.map_or(true, |v| v[k]);
    match gids {
        None => (0..len).filter(|&k| ok(k)).for_each(|k| f(0, k)),
        Some(gids) => gids
            .iter()
            .enumerate()
            .filter(|(k, _)| ok(*k))
            .for_each(|(k, &g)| f(g as usize, k)),
    }
}

/// `sum[group] += get(k)` over the valid rows, in row order. The scalar case
/// keeps its running sum in a register.
#[inline(always)]
fn fold_sum<T: Copy + AddAssign>(
    sum: &mut [T],
    gids: Option<&[u32]>,
    valid: Option<&[bool]>,
    len: usize,
    get: impl Fn(usize) -> T,
) {
    match (gids, valid) {
        (None, None) => {
            let mut s = sum[0];
            (0..len).for_each(|k| s += get(k));
            sum[0] = s;
        }
        (None, Some(v)) => {
            let mut s = sum[0];
            (0..len).filter(|&k| v[k]).for_each(|k| s += get(k));
            sum[0] = s;
        }
        (Some(gids), None) => gids
            .iter()
            .enumerate()
            .for_each(|(k, &g)| sum[g as usize] += get(k)),
        (Some(_), Some(_)) => each_valid(gids, valid, len, |g, k| sum[g] += get(k)),
    }
}

/// `MIN`/`MAX` fold: the first value seeds a group, later ones replace it
/// when strictly better — so a NaN never replaces and is never replaced.
#[inline(always)]
fn fold_ext<T: Copy + PartialOrd>(
    (best, any): (&mut [T], &mut [bool]),
    gids: Option<&[u32]>,
    valid: Option<&[bool]>,
    len: usize,
    is_min: bool,
    get: impl Fn(usize) -> T,
) {
    each_valid(gids, valid, len, |g, k| {
        ext_one(best, any, g, get(k), is_min)
    });
}

#[inline(always)]
fn ext_one<T: Copy + PartialOrd>(best: &mut [T], any: &mut [bool], g: usize, x: T, is_min: bool) {
    if !any[g] {
        best[g] = x;
        any[g] = true;
    } else if (is_min && x < best[g]) || (!is_min && x > best[g]) {
        best[g] = x;
    }
}

/// Whether `v` replaces `cur` as the running `MIN`/`MAX`.
fn value_better(v: &Value, cur: &Option<Value>, is_min: bool) -> bool {
    let want = if is_min {
        std::cmp::Ordering::Less
    } else {
        std::cmp::Ordering::Greater
    };
    cur.as_ref().map_or(true, |c| v.sql_cmp(c) == Some(want))
}

impl AccCol {
    /// Extends every array to `groups` entries with the fold's identity.
    fn grow(&mut self, groups: usize) {
        match self {
            AccCol::Count(c) => c.resize(groups, 0),
            AccCol::SumI { sum, cnt } => {
                sum.resize(groups, 0);
                cnt.resize(groups, 0);
            }
            AccCol::SumF { sum, cnt } => {
                sum.resize(groups, 0.0);
                cnt.resize(groups, 0);
            }
            AccCol::ExtI { best, any } => {
                best.resize(groups, 0);
                any.resize(groups, false);
            }
            AccCol::ExtF { best, any } => {
                best.resize(groups, 0.0);
                any.resize(groups, false);
            }
            AccCol::ExtV(v) => v.resize(groups, None),
            AccCol::DistinctI(_) | AccCol::DistinctB(_) => {}
        }
    }

    /// Folds one morsel's argument values in. Numeric sum/count/min/max take
    /// monomorphic loops over the raw slices; everything else (string
    /// extrema, DISTINCT over floats and strings, sums over dates and
    /// booleans) goes row-at-a-time through [`Value`].
    fn accumulate(
        &mut self,
        vals: Option<&ArgVals<'_>>,
        gids: Option<&[u32]>,
        sizes: &[i64],
        len: usize,
        is_min: bool,
    ) {
        if let (AccCol::SumF { sum, cnt }, Some(ArgVals::Zip(op, a, b))) = (&mut *self, vals) {
            match op {
                BinOp::Add => fold_sum(sum, gids, None, len, |k| a[k] + b[k]),
                BinOp::Sub => fold_sum(sum, gids, None, len, |k| a[k] - b[k]),
                _ => fold_sum(sum, gids, None, len, |k| a[k] * b[k]),
            }
            return add_each(cnt, sizes);
        }
        // COUNT(*): every row counts.
        let Some((col, at)) = vals.map(ArgVals::column) else {
            if let AccCol::Count(cnt) = self {
                add_each(cnt, sizes);
            }
            return;
        };
        let valid = col.validity().map(|v| &v[at..at + len]);
        // Non-null values per group, for the accumulators that count them.
        let count_into = |cnt: &mut [i64]| match valid {
            None => add_each(cnt, sizes),
            Some(_) => each_valid(gids, valid, len, |g, _| cnt[g] += 1),
        };
        match (&mut *self, col) {
            (AccCol::Count(cnt), _) => count_into(cnt),
            (AccCol::SumF { sum, cnt }, Column::Float(d, _)) => {
                let d = &d[at..at + len];
                fold_sum(sum, gids, valid, len, |k| d[k]);
                count_into(cnt);
            }
            (AccCol::SumF { sum, cnt }, Column::Int(d, _)) => {
                let d = &d[at..at + len];
                fold_sum(sum, gids, valid, len, |k| d[k] as f64);
                count_into(cnt);
            }
            (AccCol::SumI { sum, cnt }, Column::Int(d, _)) => {
                let d = &d[at..at + len];
                fold_sum(sum, gids, valid, len, |k| d[k]);
                count_into(cnt);
            }
            (AccCol::ExtF { best, any }, Column::Float(d, _)) => {
                let d = &d[at..at + len];
                fold_ext((best, any), gids, valid, len, is_min, |k| d[k]);
            }
            (AccCol::ExtI { best, any }, Column::Int(d, _)) => {
                let d = &d[at..at + len];
                fold_ext((best, any), gids, valid, len, is_min, |k| d[k]);
            }
            (AccCol::ExtI { best, any }, Column::Date(d, _)) => {
                let d = &d[at..at + len];
                fold_ext((best, any), gids, valid, len, is_min, |k| i64::from(d[k]));
            }
            (AccCol::DistinctI(set), Column::Int(d, _)) => {
                each_valid(gids, valid, len, |g, k| {
                    set.pairs.push((g as u32, d[at + k]))
                });
            }
            (AccCol::DistinctI(set), Column::Date(d, _)) => {
                each_valid(gids, valid, len, |g, k| {
                    set.pairs.push((g as u32, i64::from(d[at + k])))
                });
            }
            (acc, _) => each_valid(gids, valid, len, |g, k| {
                acc.update_one(g, col.get(at + k), is_min)
            }),
        }
    }

    /// Row-at-a-time update with a non-null value — the fallback for
    /// dtype/accumulator pairs without a typed loop.
    fn update_one(&mut self, g: usize, v: Value, is_min: bool) {
        match self {
            AccCol::Count(cnt) => cnt[g] += 1,
            AccCol::SumF { sum, cnt } => {
                if let Some(x) = v.as_f64() {
                    sum[g] += x;
                    cnt[g] += 1;
                }
            }
            AccCol::SumI { sum, cnt } => {
                if let Some(x) = v.as_i64() {
                    sum[g] += x;
                    cnt[g] += 1;
                }
            }
            AccCol::ExtI { best, any } => {
                if let Some(x) = v.as_i64() {
                    ext_one(best, any, g, x, is_min);
                }
            }
            AccCol::ExtF { best, any } => {
                if let Some(x) = v.as_f64() {
                    ext_one(best, any, g, x, is_min);
                }
            }
            AccCol::ExtV(best) => {
                if value_better(&v, &best[g], is_min) {
                    best[g] = Some(v);
                }
            }
            AccCol::DistinctI(set) => {
                if let Some(x) = v.as_i64() {
                    set.pairs.push((g as u32, x));
                }
            }
            AccCol::DistinctB(set) => {
                let mut buf = Vec::new();
                encode_value(&mut buf, &normalize_key(v));
                set.pairs.push((g as u32, buf));
            }
        }
    }

    /// Folds `part`'s group `g` into this accumulator's group `map[g]`
    /// (already grown to cover every mapped group). Returns the bytes a
    /// DISTINCT set grew by (0 for every other accumulator).
    fn merge(&mut self, part: AccCol, map: &[u32], is_min: bool) -> usize {
        let to = |g: usize| map[g] as usize;
        match (self, part) {
            (AccCol::Count(x), AccCol::Count(y)) => {
                y.iter().enumerate().for_each(|(g, c)| x[to(g)] += c);
            }
            (AccCol::SumF { sum, cnt }, AccCol::SumF { sum: s, cnt: c }) => {
                s.iter().enumerate().for_each(|(g, v)| sum[to(g)] += v);
                c.iter().enumerate().for_each(|(g, v)| cnt[to(g)] += v);
            }
            (AccCol::SumI { sum, cnt }, AccCol::SumI { sum: s, cnt: c }) => {
                s.iter().enumerate().for_each(|(g, v)| sum[to(g)] += v);
                c.iter().enumerate().for_each(|(g, v)| cnt[to(g)] += v);
            }
            (AccCol::ExtI { best, any }, AccCol::ExtI { best: b, any: a }) => {
                (0..b.len())
                    .filter(|&g| a[g])
                    .for_each(|g| ext_one(best, any, to(g), b[g], is_min));
            }
            (AccCol::ExtF { best, any }, AccCol::ExtF { best: b, any: a }) => {
                (0..b.len())
                    .filter(|&g| a[g])
                    .for_each(|g| ext_one(best, any, to(g), b[g], is_min));
            }
            (AccCol::ExtV(best), AccCol::ExtV(b)) => {
                for (g, v) in b.into_iter().enumerate() {
                    if let Some(v) = v {
                        if value_better(&v, &best[to(g)], is_min) {
                            best[to(g)] = Some(v);
                        }
                    }
                }
            }
            (AccCol::DistinctI(x), AccCol::DistinctI(y)) => return x.merge(y, map, |_| 0),
            (AccCol::DistinctB(x), AccCol::DistinctB(y)) => return x.merge(y, map, Vec::len),
            _ => unreachable!("accumulator kinds are fixed by the layout"),
        }
        0
    }
}

/// `data` with the rows where `ok` is false marked NULL.
fn masked<T>(data: Vec<T>, ok: Vec<bool>, wrap: fn(Vec<T>, Option<Vec<bool>>) -> Column) -> Column {
    let valid = ok.contains(&false).then_some(ok);
    wrap(data, valid)
}

impl AggState {
    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// Appends an empty group (accumulator arrays catch up at the next
    /// merge, or at finalization).
    pub(crate) fn push_group(&mut self) {
        self.groups += 1;
    }

    /// Folds a morsel's partial in: its local group `g` is this state's
    /// group `map[g]`. Groups `map` introduces must have been appended with
    /// [`AggState::push_group`] first. Returns the bytes the DISTINCT sets
    /// grew by: the pairs they newly keep, and a byte-encoded value's bytes.
    pub(crate) fn merge(&mut self, part: AggState, map: &[u32], layout: &AggLayout<'_>) -> usize {
        let groups = self.groups();
        let mut grown = 0;
        for (ai, (acc, p)) in self.accs.iter_mut().zip(part.accs).enumerate() {
            acc.grow(groups);
            grown += acc.merge(p, map, layout.aggs[ai].func == AggName::Min);
        }
        grown
    }

    /// The aggregate output columns, one typed column per aggregate.
    pub(crate) fn finalize(self, layout: &AggLayout<'_>) -> Result<Vec<Column>> {
        let groups = self.groups();
        let mut out = Vec::with_capacity(self.accs.len());
        for (ai, mut acc) in self.accs.into_iter().enumerate() {
            acc.grow(groups);
            let agg = &layout.aggs[ai];
            out.push(match acc {
                AccCol::Count(cnt) => Column::from_i64(cnt),
                AccCol::SumI { sum, cnt } => {
                    masked(sum, cnt.iter().map(|&c| c > 0).collect(), Column::Int)
                }
                AccCol::SumF { mut sum, cnt } => {
                    if agg.func == AggName::Avg {
                        sum.iter_mut()
                            .zip(&cnt)
                            .for_each(|(s, &c)| *s = if c > 0 { *s / c as f64 } else { 0.0 });
                    }
                    masked(sum, cnt.iter().map(|&c| c > 0).collect(), Column::Float)
                }
                AccCol::ExtI { best, any } => match layout.arg_dtype(ai) {
                    Some(DType::Date) => {
                        masked(best.iter().map(|&d| d as i32).collect(), any, Column::Date)
                    }
                    _ => masked(best, any, Column::Int),
                },
                AccCol::ExtF { best, any } => masked(best, any, Column::Float),
                AccCol::ExtV(best) => {
                    let dtype = layout.arg_dtype(ai).unwrap_or(DType::Float);
                    let mut col = Column::with_capacity(dtype, groups);
                    for v in best {
                        match v {
                            Some(v) => col.push(v)?,
                            None => col.push_null(),
                        }
                    }
                    col
                }
                // The binder admits COUNT(DISTINCT …) only.
                AccCol::DistinctI(set) => set.counts(groups),
                AccCol::DistinctB(set) => set.counts(groups),
            });
        }
        Ok(out)
    }
}
