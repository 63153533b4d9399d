//! Bound (index-resolved) expressions and their vectorized evaluation.
//!
//! Evaluation produces a whole output [`Column`] per call, optionally
//! restricted to a selection vector — the late-materialization hook the fused
//! profile uses to skip intermediate copies.
//!
//! Null semantics: arithmetic propagates NULL through validity masks;
//! comparisons collapse NULL to `false` (predicate semantics — identical to
//! the Pandas baseline, where NaN comparisons yield `False`, which keeps the
//! two differential-testing paths consistent).

use crate::ast::BinOp;
use pytond_common::hash::FxHashMap;
use pytond_common::{date, Column, DType, Dictionary, Error, Result, Value};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A scalar function recognized by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SFunc {
    /// Absolute value.
    Abs,
    /// `ROUND(x, digits)`.
    Round,
    /// Year of a date.
    Year,
    /// Month of a date.
    Month,
    /// Day-of-month of a date.
    Day,
    /// `SUBSTRING(s, start1, len)`.
    Substring,
    /// String length.
    Length,
    /// Upper-case.
    Upper,
    /// Lower-case.
    Lower,
    /// First non-null argument.
    Coalesce,
    /// `ADD_MONTHS(d, n)` (INTERVAL folding).
    AddMonths,
    /// `ADD_YEARS(d, n)`.
    AddYears,
    /// `ADD_DAYS(d, n)`.
    AddDays,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
    /// Square root.
    Sqrt,
    /// Power.
    Power,
    /// `STRPOS(s, sub)` (1-based, 0 when absent).
    StrPos,
}

impl SFunc {
    /// Parses the canonical upper-cased name (the parser folds the dialect
    /// spellings — `SUBSTR`, `CHAR_LENGTH`, `POW`, … — onto these).
    pub fn parse(name: &str) -> Option<SFunc> {
        Some(match name {
            "ABS" => SFunc::Abs,
            "ROUND" => SFunc::Round,
            "YEAR" => SFunc::Year,
            "MONTH" => SFunc::Month,
            "DAY" => SFunc::Day,
            "SUBSTRING" => SFunc::Substring,
            "LENGTH" => SFunc::Length,
            "UPPER" => SFunc::Upper,
            "LOWER" => SFunc::Lower,
            "COALESCE" => SFunc::Coalesce,
            "ADD_MONTHS" => SFunc::AddMonths,
            "ADD_YEARS" => SFunc::AddYears,
            "ADD_DAYS" => SFunc::AddDays,
            "FLOOR" => SFunc::Floor,
            "CEIL" => SFunc::Ceil,
            "SQRT" => SFunc::Sqrt,
            "POWER" => SFunc::Power,
            "STRPOS" => SFunc::StrPos,
            _ => return None,
        })
    }
}

/// A compiled LIKE pattern (`%` any run of characters, `_` exactly one;
/// no escape character). The kernel is chosen once, here:
///
/// * no wildcard — string equality;
/// * `%` only — an anchored prefix, an anchored suffix and the literals
///   between them, searched left to right: the leftmost occurrence of each
///   literal leaves the most room for the next, so no position is ever
///   revisited. Most strings fail inside `str::contains`, the
///   SIMD-accelerated search; `find` only locates a literal another one
///   must follow;
/// * any `_` — the iterative two-pointer wildcard match over characters:
///   one backtrack point, at the last `%` seen, so `O(|s|·|p|)` at worst.
///
/// Boxed, so a `LIKE` node is no wider than any other [`BExpr`] variant:
/// every expression node of every plan pays for the widest one.
#[derive(Debug, Clone, PartialEq)]
pub struct LikePattern {
    kernel: Box<LikeKernel>,
}

#[derive(Debug, Clone, PartialEq)]
enum LikeKernel {
    /// No wildcard at all.
    Exact(String),
    /// `prefix%middle[0]%…%middle[k-1]%suffix` (empty literals dropped).
    Substrings {
        prefix: String,
        middle: Vec<String>,
        suffix: String,
    },
    /// A pattern with `_`, runs of `%` collapsed.
    Wildcard(Vec<LikeTok>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LikeTok {
    /// `%` — any run of characters.
    Any,
    /// `_` — exactly one character.
    One,
    /// A literal character.
    Char(char),
}

impl LikePattern {
    /// Compiles a SQL LIKE pattern.
    pub fn compile(pat: &str) -> LikePattern {
        let kernel = if pat.contains('_') {
            let mut toks: Vec<LikeTok> = Vec::new();
            for c in pat.chars() {
                let t = match c {
                    '%' => LikeTok::Any,
                    '_' => LikeTok::One,
                    c => LikeTok::Char(c),
                };
                if !(t == LikeTok::Any && toks.last() == Some(&LikeTok::Any)) {
                    toks.push(t);
                }
            }
            LikeKernel::Wildcard(toks)
        } else {
            let mut parts: Vec<&str> = pat.split('%').collect();
            if parts.len() == 1 {
                LikeKernel::Exact(pat.to_string())
            } else {
                let suffix = parts.pop().unwrap_or_default().to_string();
                let prefix = parts.remove(0).to_string();
                let middle = parts
                    .into_iter()
                    .filter(|m| !m.is_empty())
                    .map(str::to_string)
                    .collect();
                LikeKernel::Substrings {
                    prefix,
                    middle,
                    suffix,
                }
            }
        };
        LikePattern {
            kernel: Box::new(kernel),
        }
    }

    /// Tests a string against the pattern.
    pub fn matches(&self, s: &str) -> bool {
        match &*self.kernel {
            LikeKernel::Exact(lit) => s == lit,
            LikeKernel::Substrings {
                prefix,
                middle,
                suffix,
            } => {
                // Empty anchors are skipped, not compared: a zero-length
                // `bcmp` against an empty `String`'s dangling pointer cost
                // ~150 ns a call on glibc, five times the whole search.
                let mut rest = s;
                if !prefix.is_empty() {
                    match rest.strip_prefix(prefix.as_str()) {
                        Some(r) => rest = r,
                        None => return false,
                    }
                }
                if !suffix.is_empty() {
                    match rest.strip_suffix(suffix.as_str()) {
                        Some(r) => rest = r,
                        None => return false,
                    }
                }
                for (k, lit) in middle.iter().enumerate() {
                    if !rest.contains(lit.as_str()) {
                        return false;
                    }
                    if k + 1 < middle.len() {
                        let at = rest.find(lit.as_str()).unwrap_or(0);
                        rest = &rest[at + lit.len()..];
                    }
                }
                true
            }
            LikeKernel::Wildcard(toks) => wildcard_match(toks, s),
        }
    }
}

/// Two-pointer wildcard match: advance pattern and string together; at a
/// `%` remember where to resume; on a mismatch let the last `%` swallow one
/// more character and retry from just after it. An earlier `%` never needs
/// revisiting — whatever it could absorb, the later one can.
fn wildcard_match(toks: &[LikeTok], s: &str) -> bool {
    let (mut pi, mut si) = (0, 0);
    let mut resume: Option<(usize, usize)> = None;
    while let Some(c) = s[si..].chars().next() {
        match toks.get(pi) {
            Some(LikeTok::Any) => {
                pi += 1;
                resume = Some((pi, si));
                continue;
            }
            Some(LikeTok::One) => {
                pi += 1;
                si += c.len_utf8();
                continue;
            }
            Some(LikeTok::Char(x)) if *x == c => {
                pi += 1;
                si += c.len_utf8();
                continue;
            }
            _ => {}
        }
        let Some((rp, rs)) = resume else {
            return false;
        };
        let skipped = s[rs..].chars().next().map_or(0, char::len_utf8);
        resume = Some((rp, rs + skipped));
        (pi, si) = (rp, rs + skipped);
    }
    toks[pi..].iter().all(|t| *t == LikeTok::Any)
}

/// A bound expression: column references are input-batch indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// Input column by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<BExpr>,
        /// Right operand.
        r: Box<BExpr>,
    },
    /// Logical NOT.
    Not(Box<BExpr>),
    /// Arithmetic negation.
    Neg(Box<BExpr>),
    /// NULL test.
    IsNull {
        /// Tested expression.
        e: Box<BExpr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
    /// LIKE with a pre-compiled pattern.
    Like {
        /// Tested expression.
        e: Box<BExpr>,
        /// Compiled pattern.
        pattern: LikePattern,
        /// `true` for NOT LIKE.
        negated: bool,
    },
    /// IN over a literal list.
    InList {
        /// Tested expression.
        e: Box<BExpr>,
        /// Candidates.
        list: Vec<Value>,
        /// `true` for NOT IN.
        negated: bool,
    },
    /// CASE.
    Case {
        /// `(condition, value)` arms.
        arms: Vec<(BExpr, BExpr)>,
        /// ELSE value.
        else_value: Option<Box<BExpr>>,
    },
    /// Scalar function.
    Func {
        /// Function.
        f: SFunc,
        /// Arguments.
        args: Vec<BExpr>,
    },
    /// Type cast.
    Cast {
        /// Source.
        e: Box<BExpr>,
        /// Target type.
        to: DType,
    },
}

impl std::fmt::Display for BExpr {
    /// Compact SQL-ish rendering for EXPLAIN output; input columns print as
    /// `#index` (names are not known at this level).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BExpr::Col(i) => write!(f, "#{i}"),
            BExpr::Lit(v) => write!(f, "{v:?}"),
            BExpr::Bin { op, l, r } => write!(f, "({l} {} {r})", op.symbol()),
            BExpr::Not(e) => write!(f, "NOT {e}"),
            BExpr::Neg(e) => write!(f, "-{e}"),
            BExpr::IsNull { e, negated } => {
                write!(f, "{e} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            BExpr::Like { e, negated, .. } => {
                write!(f, "{e} {}LIKE <pat>", if *negated { "NOT " } else { "" })
            }
            BExpr::InList { e, list, negated } => {
                write!(
                    f,
                    "{e} {}IN ({} values)",
                    if *negated { "NOT " } else { "" },
                    list.len()
                )
            }
            BExpr::Case { arms, .. } => write!(f, "CASE [{} arms]", arms.len()),
            BExpr::Func { f: func, args } => write!(f, "{func:?}({} args)", args.len()),
            BExpr::Cast { e, to } => write!(f, "CAST({e} AS {to})"),
        }
    }
}

impl BExpr {
    /// Calls `f` on each direct sub-expression, in operand order (CASE:
    /// each arm's condition then value, then ELSE). The one place that lists
    /// an expression's children; every walk recurses through it.
    pub fn for_each_child(&self, mut f: impl FnMut(&BExpr)) {
        match self {
            BExpr::Col(_) | BExpr::Lit(_) => {}
            BExpr::Bin { l, r, .. } => {
                f(l);
                f(r);
            }
            BExpr::Not(e)
            | BExpr::Neg(e)
            | BExpr::IsNull { e, .. }
            | BExpr::Like { e, .. }
            | BExpr::InList { e, .. }
            | BExpr::Cast { e, .. } => f(e),
            BExpr::Case { arms, else_value } => {
                for (c, v) in arms {
                    f(c);
                    f(v);
                }
                if let Some(e) = else_value {
                    f(e);
                }
            }
            BExpr::Func { args, .. } => args.iter().for_each(f),
        }
    }

    /// [`BExpr::for_each_child`] with mutable access.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut BExpr)) {
        match self {
            BExpr::Col(_) | BExpr::Lit(_) => {}
            BExpr::Bin { l, r, .. } => {
                f(l);
                f(r);
            }
            BExpr::Not(e)
            | BExpr::Neg(e)
            | BExpr::IsNull { e, .. }
            | BExpr::Like { e, .. }
            | BExpr::InList { e, .. }
            | BExpr::Cast { e, .. } => f(e),
            BExpr::Case { arms, else_value } => {
                for (c, v) in arms {
                    f(c);
                    f(v);
                }
                if let Some(e) = else_value {
                    f(e);
                }
            }
            BExpr::Func { args, .. } => args.iter_mut().for_each(f),
        }
    }

    /// Collects the input column indices the expression touches.
    pub fn columns_used(&self, out: &mut Vec<usize>) {
        match self {
            BExpr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            _ => self.for_each_child(|c| c.columns_used(out)),
        }
    }

    /// Rewrites column indices through `map` (for pushdown across projections).
    pub fn remap_columns(&mut self, map: &impl Fn(usize) -> usize) {
        match self {
            BExpr::Col(i) => *i = map(*i),
            _ => self.for_each_child_mut(|c| c.remap_columns(map)),
        }
    }

    /// Static result type given input column types.
    pub fn dtype(&self, input: &[DType]) -> DType {
        match self {
            BExpr::Col(i) => input.get(*i).copied().unwrap_or(DType::Float),
            BExpr::Lit(v) => v.dtype().unwrap_or(DType::Float),
            BExpr::Bin { op, l, r } => match op {
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or => DType::Bool,
                BinOp::Concat => DType::Str,
                BinOp::Div => DType::Float,
                // A NULL literal borrows the other operand's type.
                _ if matches!(**r, BExpr::Lit(Value::Null)) => {
                    null_arith_dtype(*op, l.dtype(input))
                }
                _ if matches!(**l, BExpr::Lit(Value::Null)) => {
                    null_arith_dtype(*op, r.dtype(input))
                }
                _ => {
                    let lt = l.dtype(input);
                    let rt = r.dtype(input);
                    match (lt, rt) {
                        (DType::Int, DType::Int) => DType::Int,
                        (DType::Date, DType::Int) | (DType::Int, DType::Date) => DType::Date,
                        (DType::Date, DType::Date) => DType::Int,
                        _ => DType::Float,
                    }
                }
            },
            BExpr::Not(_) | BExpr::IsNull { .. } | BExpr::Like { .. } | BExpr::InList { .. } => {
                DType::Bool
            }
            BExpr::Neg(e) => e.dtype(input),
            BExpr::Case { arms, else_value } => {
                // Prefer a non-null-literal arm's type.
                for (_, v) in arms {
                    if !matches!(v, BExpr::Lit(Value::Null)) {
                        return v.dtype(input);
                    }
                }
                else_value
                    .as_ref()
                    .map(|e| e.dtype(input))
                    .unwrap_or(DType::Float)
            }
            BExpr::Func { f, args } => match f {
                SFunc::Year | SFunc::Month | SFunc::Day | SFunc::Length | SFunc::StrPos => {
                    DType::Int
                }
                SFunc::Substring | SFunc::Upper | SFunc::Lower => DType::Str,
                SFunc::AddMonths | SFunc::AddYears | SFunc::AddDays => DType::Date,
                SFunc::Coalesce => args.first().map(|a| a.dtype(input)).unwrap_or(DType::Float),
                SFunc::Abs
                | SFunc::Round
                | SFunc::Floor
                | SFunc::Ceil
                | SFunc::Sqrt
                | SFunc::Power => match args.first().map(|a| a.dtype(input)) {
                    Some(DType::Int) if matches!(f, SFunc::Abs) => DType::Int,
                    _ => DType::Float,
                },
            },
            BExpr::Cast { to, .. } => *to,
        }
    }

    /// Evaluates over `batch`, optionally restricted to `sel` row indices.
    /// The output column has `sel.len()` rows when `sel` is given.
    pub fn eval(&self, batch: &crate::table::Batch, sel: Option<&[usize]>) -> Result<Column> {
        self.eval_rows(batch, sel.map_or(RowsRef::All, RowsRef::Sel), None)
    }

    /// Evaluates over the contiguous row range `[start, end)` of `batch`.
    ///
    /// Semantically identical to [`BExpr::eval`] with the selection
    /// `start..end`, but column leaves slice their subrange (a memcpy)
    /// instead of gathering through a per-row index vector — the kernel
    /// entry point the fused pipeline driver uses for zone-aligned scan
    /// morsels. `end` must not exceed the batch's row count.
    pub fn eval_range(
        &self,
        batch: &crate::table::Batch,
        start: usize,
        end: usize,
    ) -> Result<Column> {
        self.eval_rows(batch, RowsRef::Range(start, end), None)
    }

    /// The executor's entry point: evaluates over `rows` of `batch`, sharing
    /// dictionary predicate tables through the execution's `tables` memo
    /// (see [`DictTables`]); `None` evaluates stand-alone.
    pub(crate) fn eval_rows(
        &self,
        batch: &crate::table::Batch,
        rows: RowsRef<'_>,
        tables: Option<&DictTables>,
    ) -> Result<Column> {
        self.eval_in(Cx {
            batch,
            rows,
            tables,
        })
    }

    /// [`BExpr::eval_rows`] for predicates: the result as a plain `Vec<bool>`.
    pub(crate) fn mask_rows(
        &self,
        batch: &crate::table::Batch,
        rows: RowsRef<'_>,
        tables: Option<&DictTables>,
    ) -> Result<Vec<bool>> {
        match self.eval_rows(batch, rows, tables)? {
            Column::Bool(d, _) => Ok(d),
            other => Err(Error::Exec(format!(
                "predicate evaluated to {} not bool",
                other.dtype()
            ))),
        }
    }

    fn eval_in(&self, cx: Cx<'_>) -> Result<Column> {
        let n = match cx.rows {
            RowsRef::All => cx.batch.num_rows(),
            RowsRef::Sel(s) => s.len(),
            RowsRef::Range(start, end) => end - start,
        };
        match self {
            BExpr::Col(i) => {
                let col = cx
                    .batch
                    .cols
                    .get(*i)
                    .ok_or_else(|| Error::Exec(format!("column index {i} out of range")))?;
                Ok(match cx.rows {
                    RowsRef::All => (**col).clone(),
                    RowsRef::Sel(s) => col.gather(s),
                    RowsRef::Range(start, end) => col.slice(start, end),
                })
            }
            // Only a bare literal projection materializes a constant column;
            // literal *operands* run through the scalar kernels below.
            BExpr::Lit(v) => Ok(lit_column(v, n)),
            BExpr::Bin { op, l, r } => match (l.as_ref(), r.as_ref()) {
                // Constant expression: evaluate one row, then broadcast.
                (BExpr::Lit(a), BExpr::Lit(b)) => {
                    let one = eval_bin(*op, &lit_column(a, 1), &lit_column(b, 1))?;
                    Ok(one.gather(&vec![0; n]))
                }
                (e, BExpr::Lit(v)) => {
                    let c = e.eval_in(cx)?;
                    eval_bin_scalar(*op, &c, v, false, cx.memo(self, e))
                }
                (BExpr::Lit(v), e) => {
                    let c = e.eval_in(cx)?;
                    eval_bin_scalar(*op, &c, v, true, cx.memo(self, e))
                }
                (l, r) => eval_bin(*op, &l.eval_in(cx)?, &r.eval_in(cx)?),
            },
            BExpr::Not(e) => {
                let c = e.eval_in(cx)?;
                match c {
                    Column::Bool(d, _) => Ok(Column::from_bool(d.iter().map(|b| !b).collect())),
                    _ => Err(Error::Exec("NOT requires a boolean".into())),
                }
            }
            BExpr::Neg(e) => {
                let c = e.eval_in(cx)?;
                match c {
                    Column::Int(d, v) => Ok(Column::Int(d.iter().map(|x| -x).collect(), v)),
                    Column::Float(d, v) => Ok(Column::Float(d.iter().map(|x| -x).collect(), v)),
                    _ => Err(Error::Exec("negation requires a numeric".into())),
                }
            }
            BExpr::IsNull { e, negated } => {
                let c = e.eval_in(cx)?;
                let out: Vec<bool> = (0..c.len()).map(|i| c.is_valid(i) == *negated).collect();
                Ok(Column::from_bool(out))
            }
            BExpr::Like {
                e,
                pattern,
                negated,
            } => {
                let c = e.eval_in(cx)?;
                str_mask(&c, cx.memo(self, e), |s| pattern.matches(s) != *negated)
                    .map(Column::from_bool)
                    .ok_or_else(|| Error::Exec("LIKE requires strings".into()))
            }
            BExpr::InList { e, list, negated } => {
                let c = e.eval_in(cx)?;
                Ok(Column::from_bool(eval_in_list(
                    &c,
                    list,
                    *negated,
                    cx.memo(self, e),
                )))
            }
            BExpr::Case { arms, else_value } => {
                let conds: Vec<Column> = arms
                    .iter()
                    .map(|(c, _)| c.eval_in(cx))
                    .collect::<Result<_>>()?;
                let vals: Vec<Column> = arms
                    .iter()
                    .map(|(_, v)| v.eval_in(cx))
                    .collect::<Result<_>>()?;
                let els = else_value.as_ref().map(|e| e.eval_in(cx)).transpose()?;
                // Output type from the first branch value (ELSE included).
                let dtype = vals
                    .iter()
                    .chain(els.iter())
                    .map(|c| c.dtype())
                    .next()
                    .unwrap_or(DType::Float);
                let mut out = Column::with_capacity(dtype, n);
                'rows: for i in 0..n {
                    for (c, v) in conds.iter().zip(&vals) {
                        if matches!(c.get(i), Value::Bool(true)) {
                            out.push(coerce(v.get(i), dtype)?)?;
                            continue 'rows;
                        }
                    }
                    match &els {
                        Some(e) => out.push(coerce(e.get(i), dtype)?)?,
                        None => out.push_null(),
                    }
                }
                Ok(out)
            }
            BExpr::Func { f, args } => {
                let cols: Vec<Column> =
                    args.iter().map(|a| a.eval_in(cx)).collect::<Result<_>>()?;
                eval_func(*f, &cols, n)
            }
            BExpr::Cast { e, to } => {
                let c = e.eval_in(cx)?;
                c.cast(*to)
            }
        }
    }

    /// Evaluates a predicate to a plain `Vec<bool>`.
    pub fn eval_mask(
        &self,
        batch: &crate::table::Batch,
        sel: Option<&[usize]>,
    ) -> Result<Vec<bool>> {
        self.mask_rows(batch, sel.map_or(RowsRef::All, RowsRef::Sel), None)
    }

    /// [`BExpr::eval_mask`] over the contiguous row range `[start, end)`
    /// — the range-sliced counterpart (see [`BExpr::eval_range`]).
    pub fn eval_mask_range(
        &self,
        batch: &crate::table::Batch,
        start: usize,
        end: usize,
    ) -> Result<Vec<bool>> {
        self.mask_rows(batch, RowsRef::Range(start, end), None)
    }
}

/// Row addressing for the shared kernel walk: the classic optional selection
/// vector, or a contiguous range whose column leaves slice instead of
/// gathering.
#[derive(Clone, Copy)]
pub(crate) enum RowsRef<'s> {
    /// Every row of the batch.
    All,
    /// Explicit row indices.
    Sel(&'s [usize]),
    /// The contiguous range `[start, end)`.
    Range(usize, usize),
}

/// What one kernel walk evaluates against: the batch, the live rows and
/// the execution's dictionary-table memo (if any).
#[derive(Clone, Copy)]
struct Cx<'a> {
    batch: &'a crate::table::Batch,
    rows: RowsRef<'a>,
    tables: Option<&'a DictTables>,
}

impl<'a> Cx<'a> {
    /// The memo slot for predicate `node` over operand `operand`. Only a
    /// bare column operand memoizes: its dictionary is a version of the
    /// stored column's one lineage in every morsel, whereas a computed
    /// operand (`UPPER(c)`) yields a fresh lineage per call that no later
    /// morsel could hit.
    fn memo(&self, node: &'a BExpr, operand: &BExpr) -> Option<Memo<'a>> {
        match operand {
            BExpr::Col(_) => self.tables.map(|tables| (tables, node)),
            _ => None,
        }
    }
}

/// A memo slot: the execution's tables plus the predicate node keying them.
type Memo<'a> = (&'a DictTables, &'a BExpr);

/// Per-dictionary-entry verdicts of one string predicate, filled on first
/// use: `0` = not evaluated yet, `1` = false, `2` = true. Workers share a
/// table through relaxed atomics: a slot is its own whole datum and
/// publishes no other memory, so no ordering is needed — a racing pair at
/// worst evaluates one entry twice, to the same verdict.
struct EntryTable(Vec<AtomicU8>);

impl EntryTable {
    fn new(entries: usize) -> EntryTable {
        EntryTable((0..entries).map(|_| AtomicU8::new(0)).collect())
    }

    /// The verdict for `code`, running `test` if no one has yet.
    fn get(&self, code: u32, test: impl FnOnce() -> bool) -> bool {
        let slot = &self.0[code as usize];
        match slot.load(Relaxed) {
            0 => {
                let verdict = test();
                slot.store(1 + u8::from(verdict), Relaxed);
                verdict
            }
            seen => seen == 2,
        }
    }

    /// Settles the first `entries` entries, so lookups of their codes can
    /// go through [`EntryTable::settled`].
    fn fill(&self, entries: usize, test: impl Fn(u32) -> bool) {
        for code in 0..entries as u32 {
            self.get(code, || test(code));
        }
    }

    /// A table over `entries` entries holding this one's verdicts so far.
    fn grown(&self, entries: usize) -> EntryTable {
        let settled = self.0.iter().map(|v| AtomicU8::new(v.load(Relaxed)));
        let open = (self.0.len()..entries).map(|_| AtomicU8::new(0));
        EntryTable(settled.chain(open).collect())
    }

    /// The verdict for a `code` already settled by [`EntryTable::fill`].
    fn settled(&self, code: u32) -> bool {
        self.0[code as usize].load(Relaxed) == 2
    }
}

/// Execution-scoped memo of dictionary predicate tables.
///
/// A `LIKE`, string-literal comparison or string `IN` over a
/// dictionary-encoded column is a function of the dictionary entry, not of
/// the row. One executor owns one `DictTables`; every morsel and worker of
/// that execution resolves `(predicate node, dictionary)` to the same
/// per-entry verdict table, so each entry is tested at most once per query
/// however many morsels reference it. How a call fills the table — all
/// entries up front, or only those its rows reference — is the
/// rows-vs-entries rule of `str_mask`.
///
/// Keys are the predicate node's address inside the bound plan, which the
/// execution borrows immutably for its whole lifetime, and the dictionary's
/// lineage: the chunks of an appended table hold different versions of one
/// lineage, and a code's verdict is the same in each, so they share one
/// table — grown, verdicts kept, when a longer version arrives.
#[derive(Default)]
pub struct DictTables {
    slots: Mutex<FxHashMap<(usize, u64), Arc<EntryTable>>>,
}

impl DictTables {
    fn table(&self, node: &BExpr, dict: &Dictionary) -> Arc<EntryTable> {
        let key = (node as *const BExpr as usize, dict.lineage());
        let mut slots = self.slots.lock().expect("dictionary tables poisoned");
        let table = slots
            .entry(key)
            .or_insert_with(|| Arc::new(EntryTable::new(dict.len())));
        if table.0.len() < dict.len() {
            *table = Arc::new(table.grown(dict.len()));
        }
        table.clone()
    }

    /// Tables created so far — one per (predicate node, dictionary) pair the
    /// execution evaluated (reported as `ExecMetrics::dict_pred_tables`).
    pub fn built(&self) -> u64 {
        self.slots.lock().expect("dictionary tables poisoned").len() as u64
    }
}

/// The predicate `f` over every valid row of `d` — one monomorphic loop per
/// call site. NULL rows are `false` and never reach `f` (dictionary codes
/// under NULL rows are placeholders that must not index anything).
fn rows<T>(d: &[T], valid: &Option<Vec<bool>>, f: impl Fn(&T) -> bool) -> Vec<bool> {
    match valid {
        None => d.iter().map(f).collect(),
        Some(ok) => d.iter().zip(ok).map(|(x, &ok)| ok && f(x)).collect(),
    }
}

/// Evaluates the string predicate `test` over a string-typed column; NULL
/// rows collapse to `false` (predicate semantics). `None` for non-string
/// columns. Plain strings test every row. Dictionary-encoded strings test
/// *entries*, by the rows-vs-entries rule:
///
/// * no more entries than rows in this call — settle the whole table first
///   (through the execution's memo that happens once per query; later
///   morsels find every entry settled), then map rows through it;
/// * more entries than rows (a delta batch or tail morsel against a large
///   dictionary) — test only the entries the rows reference: remembered in
///   the memoized table when there is one, so no entry is ever tested
///   twice in a query, and directly otherwise.
///
/// Either way a call tests at most min(rows, entries) strings.
fn str_mask(c: &Column, memo: Option<Memo<'_>>, test: impl Fn(&str) -> bool) -> Option<Vec<bool>> {
    match c {
        Column::Str(d, valid) => Some(rows(d, valid, |s| test(s))),
        Column::DictStr { codes, dict, valid } => {
            let small = dict.len() <= codes.len();
            let table = match memo {
                Some((tables, node)) => Some(tables.table(node, dict)),
                None if small => Some(Arc::new(EntryTable::new(dict.len()))),
                None => None,
            };
            Some(match table {
                Some(t) if small => {
                    t.fill(dict.len(), |c| test(dict.get(c)));
                    rows(codes, valid, |&c| t.settled(c))
                }
                Some(t) => rows(codes, valid, |&c| t.get(c, || test(dict.get(c)))),
                None => rows(codes, valid, |&c| test(dict.get(c))),
            })
        }
        _ => None,
    }
}

fn coerce(v: Value, to: DType) -> Result<Value> {
    Ok(match (&v, to) {
        (Value::Int(i), DType::Float) => Value::Float(*i as f64),
        (Value::Float(f), DType::Int) => Value::Int(*f as i64),
        _ => v,
    })
}

/// Materializes a literal as a constant column — the value of a bare
/// literal *projection* (`SELECT 1`). Operands of binary operators never
/// come here: they stay scalars (see [`eval_bin_scalar`]); literal function
/// arguments and `CASE` branches still do, their evaluators being
/// row-at-a-time. A NULL literal has no type of its own and, with no
/// operand to borrow one from, defaults to `Float`.
fn lit_column(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::Int(vec![*x; n], None),
        Value::Float(x) => Column::Float(vec![*x; n], None),
        Value::Bool(x) => Column::Bool(vec![*x; n], None),
        Value::Str(s) => Column::Str(vec![s.clone(); n], None),
        Value::Date(d) => Column::Date(vec![*d; n], None),
        Value::Null => null_column(DType::Float, n),
    }
}

/// An all-NULL column of `dtype`.
fn null_column(dtype: DType, n: usize) -> Column {
    let valid = (n > 0).then(|| vec![false; n]);
    match dtype {
        DType::Int => Column::Int(vec![0; n], valid),
        DType::Float => Column::Float(vec![0.0; n], valid),
        DType::Bool => Column::Bool(vec![false; n], valid),
        DType::Str => Column::Str(vec![String::new(); n], valid),
        DType::Date => Column::Date(vec![0; n], valid),
    }
}

/// Result type of arithmetic between a NULL literal and an operand of type
/// `other`: NULL borrows the operand's type, so the all-NULL result has the
/// type the same arithmetic would have over two such operands.
fn null_arith_dtype(op: BinOp, other: DType) -> DType {
    match other {
        DType::Int | DType::Date if op != BinOp::Div => other,
        _ => DType::Float,
    }
}

/// Whether a comparison outcome satisfies the comparison operator `op`.
fn cmp_holds(op: BinOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => o == Equal,
        BinOp::Ne => o != Equal,
        BinOp::Lt => o == Less,
        BinOp::Le => o != Greater,
        BinOp::Gt => o == Greater,
        BinOp::Ge => o != Less,
        _ => unreachable!("caller passes comparison operators only"),
    }
}

/// Column-vs-scalar binary kernels: `c op lit`, or `lit op c` when
/// `lit_left`. The literal stays a scalar — typed once, outside the row
/// loop — and results are bit-identical to [`eval_bin`] over the literal
/// broadcast to a column. A NULL literal short-circuits: comparisons yield
/// all-false, arithmetic and concatenation all-NULL.
fn eval_bin_scalar(
    op: BinOp,
    c: &Column,
    lit: &Value,
    lit_left: bool,
    memo: Option<Memo<'_>>,
) -> Result<Column> {
    use BinOp::*;
    match op {
        And | Or => match (c, lit) {
            // `x AND true` / `x OR false` is `x`; the other two are constant.
            (Column::Bool(d, _), Value::Bool(b)) => Ok(Column::from_bool(if *b == (op == And) {
                d.clone()
            } else {
                vec![*b; d.len()]
            })),
            _ => Err(Error::Exec("AND/OR require booleans".into())),
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let op = if lit_left { op.mirrored() } else { op };
            Ok(Column::from_bool(cmp_scalar(op, c, lit, memo)))
        }
        Concat => Ok(concat_scalar(c, lit, lit_left)),
        Add | Sub | Mul | Div | Mod => arith_scalar(op, c, lit, lit_left),
    }
}

/// `c op lit` for a comparison operator; NULL (row or literal) and
/// incomparable pairs collapse to `false`.
fn cmp_scalar(op: BinOp, c: &Column, lit: &Value, memo: Option<Memo<'_>>) -> Vec<bool> {
    /// One monomorphic loop per (operator, type pair). `<>` goes through
    /// `partial_cmp` so that NaN compares false under it like under the
    /// others (`!=` alone would make NaN unequal to everything).
    fn run<T, U: PartialOrd + Copy>(
        op: BinOp,
        d: &[T],
        valid: &Option<Vec<bool>>,
        conv: impl Fn(&T) -> U,
        v: U,
    ) -> Vec<bool> {
        match op {
            BinOp::Eq => rows(d, valid, |x| conv(x) == v),
            BinOp::Ne => rows(d, valid, |x| {
                conv(x).partial_cmp(&v).is_some_and(|o| o.is_ne())
            }),
            BinOp::Lt => rows(d, valid, |x| conv(x) < v),
            BinOp::Le => rows(d, valid, |x| conv(x) <= v),
            BinOp::Gt => rows(d, valid, |x| conv(x) > v),
            BinOp::Ge => rows(d, valid, |x| conv(x) >= v),
            _ => unreachable!("caller passes comparison operators only"),
        }
    }
    use Column::{Bool, Date, Float, Int};
    match (c, lit) {
        (_, Value::Null) => vec![false; c.len()],
        (Int(d, ok), Value::Int(v)) => run(op, d, ok, |x| *x, *v),
        (Int(d, ok), Value::Float(v)) => run(op, d, ok, |x| *x as f64, *v),
        (Int(d, ok), Value::Date(v)) => run(op, d, ok, |x| *x, i64::from(*v)),
        (Float(d, ok), Value::Float(v)) => run(op, d, ok, |x| *x, *v),
        (Float(d, ok), Value::Int(v)) => run(op, d, ok, |x| *x, *v as f64),
        (Date(d, ok), Value::Date(v)) => run(op, d, ok, |x| *x, *v),
        (Date(d, ok), Value::Int(v)) => run(op, d, ok, |x| i64::from(*x), *v),
        (Bool(d, ok), Value::Bool(v)) => run(op, d, ok, |x| *x, *v),
        (Column::Str(..) | Column::DictStr { .. }, Value::Str(v)) => {
            str_mask(c, memo, |s| cmp_holds(op, s.cmp(v.as_str()))).expect("string column")
        }
        // Genuinely mixed pairs keep the row-wise `sql_cmp` semantics: a
        // string column against a date literal, or a date against a string
        // the binder could not type (see `bind::coerce_literal`).
        _ => (0..c.len())
            .map(|i| c.get(i).sql_cmp(lit).is_some_and(|o| cmp_holds(op, o)))
            .collect(),
    }
}

/// `c op lit` (or `lit op c`) for an arithmetic operator, with the type
/// rules of [`eval_arith`].
fn arith_scalar(op: BinOp, c: &Column, lit: &Value, lit_left: bool) -> Result<Column> {
    use BinOp::*;
    use Column::{Date, Float, Int};

    /// Applies `f` with the scalar on its side of the operator.
    fn side<T: Copy, A: Copy, R>(
        d: &[T],
        conv: impl Fn(T) -> A,
        v: A,
        lit_left: bool,
        f: impl Fn(A, A) -> R,
    ) -> Vec<R> {
        if lit_left {
            d.iter().map(|&x| f(v, conv(x))).collect()
        } else {
            d.iter().map(|&x| f(conv(x), v)).collect()
        }
    }
    /// One monomorphic float loop per operator.
    fn floats<T: Copy>(
        op: BinOp,
        d: &[T],
        conv: impl Fn(T) -> f64,
        v: f64,
        lit_left: bool,
    ) -> Vec<f64> {
        match op {
            Add => side(d, conv, v, lit_left, |a, b| a + b),
            Sub => side(d, conv, v, lit_left, |a, b| a - b),
            Mul => side(d, conv, v, lit_left, |a, b| a * b),
            Div => side(d, conv, v, lit_left, |a, b| a / b),
            _ => side(d, conv, v, lit_left, |a, b| a % b),
        }
    }
    let id = |x: f64| x;
    let i2f = |x: i64| x as f64;

    Ok(match (c, lit) {
        (_, Value::Null) => null_column(null_arith_dtype(op, c.dtype()), c.len()),
        // Int ∘ Int stays Int for +,-,*,%; / divides as floats.
        (Int(d, ok), Value::Int(v)) if op != Div => {
            let data = match op {
                Add => side(d, |x| x, *v, lit_left, i64::wrapping_add),
                Sub => side(d, |x| x, *v, lit_left, i64::wrapping_sub),
                Mul => side(d, |x| x, *v, lit_left, i64::wrapping_mul),
                _ => side(
                    d,
                    |x| x,
                    *v,
                    lit_left,
                    |a, b| if b == 0 { 0 } else { a % b },
                ),
            };
            Int(data, ok.clone())
        }
        // Date ± Int days.
        (Date(d, ok), Value::Int(v)) if !lit_left && matches!(op, Add | Sub) => {
            let days = *v as i32;
            let data = if op == Add {
                d.iter().map(|&x| x + days).collect()
            } else {
                d.iter().map(|&x| x - days).collect()
            };
            Date(data, ok.clone())
        }
        (Int(d, ok), Value::Date(v)) if lit_left && matches!(op, Add | Sub) => {
            let data = if op == Add {
                d.iter().map(|&x| v + x as i32).collect()
            } else {
                d.iter().map(|&x| v - x as i32).collect()
            };
            Date(data, ok.clone())
        }
        // Date - Date → days.
        (Date(d, ok), Value::Date(v)) if op == Sub => Int(
            side(d, |x| x, *v, lit_left, |a, b| i64::from(a - b)),
            ok.clone(),
        ),
        (Int(d, ok), Value::Int(v)) => Float(floats(op, d, i2f, *v as f64, lit_left), ok.clone()),
        (Int(d, ok), Value::Float(v)) => Float(floats(op, d, i2f, *v, lit_left), ok.clone()),
        (Float(d, ok), Value::Float(v)) => Float(floats(op, d, id, *v, lit_left), ok.clone()),
        (Float(d, ok), Value::Int(v)) => Float(floats(op, d, id, *v as f64, lit_left), ok.clone()),
        // Anything else (bool arithmetic, date in float math) widens to f64.
        _ => {
            let d = to_f64_vec(c)?;
            let v = lit
                .as_f64()
                .ok_or_else(|| Error::Exec("cannot use strings in arithmetic".into()))?;
            Float(floats(op, &d, id, v, lit_left), validity_of(c))
        }
    })
}

/// `c || lit` (or `lit || c`): the literal renders once, rows append to it.
fn concat_scalar(c: &Column, lit: &Value, lit_left: bool) -> Column {
    use std::fmt::Write;
    let n = c.len();
    if lit.is_null() {
        return null_column(DType::Str, n);
    }
    let lit = lit.to_string();
    let join = |s: &str| {
        let mut out = String::with_capacity(lit.len() + s.len());
        let (a, b) = if lit_left { (&*lit, s) } else { (s, &*lit) };
        out.push_str(a);
        out.push_str(b);
        out
    };
    let mut scratch = String::new();
    let data: Vec<String> = (0..n)
        .map(|i| {
            if !c.is_valid(i) {
                return String::new();
            }
            match c {
                Column::Str(d, _) => join(&d[i]),
                Column::DictStr { codes, dict, .. } => join(dict.get(codes[i])),
                // Non-string operands format through `Display`.
                other => {
                    scratch.clear();
                    write!(scratch, "{}", other.get(i)).expect("write to String");
                    join(&scratch)
                }
            }
        })
        .collect();
    Column::Str(data, validity_of(c))
}

/// Vectorized column-vs-column binary kernels (a literal operand takes the
/// column-vs-scalar kernels of `eval_bin_scalar` instead).
///
/// Dispatches **once** per column pair to a monomorphic loop over raw typed
/// slices (see [`Column::as_i64_slice`] and friends); only genuinely mixed
/// combinations (e.g. date vs string) fall back to the row-at-a-time
/// [`mod@reference`] semantics. Null handling: arithmetic merges validity masks,
/// comparisons collapse NULL to `false`.
pub fn eval_bin(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    use BinOp::*;
    let n = l.len();
    if r.len() != n {
        return Err(Error::Exec("binary operand length mismatch".into()));
    }
    match op {
        And | Or => match (l, r) {
            (Column::Bool(a, _), Column::Bool(b, _)) => {
                let out = if op == And {
                    a.iter().zip(b).map(|(&x, &y)| x && y).collect()
                } else {
                    a.iter().zip(b).map(|(&x, &y)| x || y).collect()
                };
                Ok(Column::from_bool(out))
            }
            _ => Err(Error::Exec("AND/OR require booleans".into())),
        },
        Eq | Ne | Lt | Le | Gt | Ge => eval_cmp(op, l, r),
        Concat => eval_concat(l, r, n),
        Add | Sub | Mul | Div | Mod => eval_arith(op, l, r),
    }
}

/// String concatenation: a typed pass for string-string inputs, a
/// scratch-buffer `Display` pass (no `format!` allocation churn) otherwise.
fn eval_concat(l: &Column, r: &Column, n: usize) -> Result<Column> {
    // Concatenation genuinely needs bytes: decode dict operands up front so
    // both sides ride the typed string-string pass below.
    if matches!(l, Column::DictStr { .. }) || matches!(r, Column::DictStr { .. }) {
        return eval_concat(&l.decode_str(), &r.decode_str(), n);
    }
    if let (Column::Str(a, av), Column::Str(b, bv)) = (l, r) {
        let valid = merge_validity(av, bv);
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            if valid.as_ref().map_or(true, |v| v[i]) {
                let mut s = String::with_capacity(a[i].len() + b[i].len());
                s.push_str(&a[i]);
                s.push_str(&b[i]);
                data.push(s);
            } else {
                data.push(String::new());
            }
        }
        return Ok(Column::Str(data, valid));
    }
    // Mixed operands format through Display into a reused scratch buffer.
    use std::fmt::Write;
    let valid = merge_validity(&validity_of(l), &validity_of(r));
    let mut data = Vec::with_capacity(n);
    let mut scratch = String::new();
    for i in 0..n {
        if valid.as_ref().map_or(true, |v| v[i]) {
            scratch.clear();
            write!(scratch, "{}{}", l.get(i), r.get(i)).expect("write to String");
            data.push(scratch.clone());
        } else {
            data.push(String::new());
        }
    }
    Ok(Column::Str(data, valid))
}

fn eval_arith(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    use BinOp::*;
    use Column::{Date, Float, Int};

    /// One monomorphic float loop per operator, with per-side converters.
    macro_rules! fzip {
        ($a:expr, $av:expr, $b:expr, $bv:expr, $ca:expr, $cb:expr) => {{
            let valid = merge_validity($av, $bv);
            let data: Vec<f64> = match op {
                Add => $a.iter().zip($b).map(|(&x, &y)| $ca(x) + $cb(y)).collect(),
                Sub => $a.iter().zip($b).map(|(&x, &y)| $ca(x) - $cb(y)).collect(),
                Mul => $a.iter().zip($b).map(|(&x, &y)| $ca(x) * $cb(y)).collect(),
                Div => $a.iter().zip($b).map(|(&x, &y)| $ca(x) / $cb(y)).collect(),
                _ => $a.iter().zip($b).map(|(&x, &y)| $ca(x) % $cb(y)).collect(),
            };
            Ok(Column::Float(data, valid))
        }};
    }
    let id = |x: f64| x;
    let i2f = |x: i64| x as f64;

    match (l, r) {
        // Int ∘ Int stays Int for +,-,*,%; / divides as floats.
        (Int(a, av), Int(b, bv)) => match op {
            Add => Ok(Int(
                a.iter().zip(b).map(|(&x, &y)| x.wrapping_add(y)).collect(),
                merge_validity(av, bv),
            )),
            Sub => Ok(Int(
                a.iter().zip(b).map(|(&x, &y)| x.wrapping_sub(y)).collect(),
                merge_validity(av, bv),
            )),
            Mul => Ok(Int(
                a.iter().zip(b).map(|(&x, &y)| x.wrapping_mul(y)).collect(),
                merge_validity(av, bv),
            )),
            Mod => Ok(Int(
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| if y == 0 { 0 } else { x % y })
                    .collect(),
                merge_validity(av, bv),
            )),
            _ => fzip!(a, av, b, bv, i2f, i2f),
        },
        // Date ± Int days.
        (Date(a, av), Int(b, bv)) if matches!(op, Add | Sub) => {
            let data: Vec<i32> = if op == Add {
                a.iter().zip(b).map(|(&x, &y)| x + y as i32).collect()
            } else {
                a.iter().zip(b).map(|(&x, &y)| x - y as i32).collect()
            };
            Ok(Date(data, merge_validity(av, bv)))
        }
        // Date - Date → days.
        (Date(a, av), Date(b, bv)) if op == Sub => Ok(Int(
            a.iter().zip(b).map(|(&x, &y)| i64::from(x - y)).collect(),
            merge_validity(av, bv),
        )),
        (Float(a, av), Float(b, bv)) => fzip!(a, av, b, bv, id, id),
        (Int(a, av), Float(b, bv)) => fzip!(a, av, b, bv, i2f, id),
        (Float(a, av), Int(b, bv)) => fzip!(a, av, b, bv, id, i2f),
        // Anything else (bool arithmetic, date in float math) widens to f64.
        _ => {
            let af = to_f64_vec(l)?;
            let bf = to_f64_vec(r)?;
            fzip!(af, &validity_of(l), &bf, &validity_of(r), id, id)
        }
    }
}

fn eval_cmp(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    use BinOp::*;
    use Column::{Bool, Date, Float, Int, Str};
    let n = l.len();
    let want = |o: std::cmp::Ordering| cmp_holds(op, o);

    /// One monomorphic comparison loop per type pair; NULL collapses to
    /// `false` (predicate semantics), incomparable values too.
    macro_rules! czip {
        ($a:expr, $av:expr, $b:expr, $bv:expr, $cmp:expr) => {{
            let out: Vec<bool> = match ($av.as_deref(), $bv.as_deref()) {
                (None, None) => $a
                    .iter()
                    .zip($b.iter())
                    .map(|(x, y)| $cmp(x, y).map(&want).unwrap_or(false))
                    .collect(),
                (av, bv) => $a
                    .iter()
                    .zip($b.iter())
                    .enumerate()
                    .map(|(i, (x, y))| {
                        av.map_or(true, |v| v[i])
                            && bv.map_or(true, |v| v[i])
                            && $cmp(x, y).map(&want).unwrap_or(false)
                    })
                    .collect(),
            };
            Ok(Column::from_bool(out))
        }};
    }

    match (l, r) {
        (Int(a, av), Int(b, bv)) => czip!(a, av, b, bv, |x: &i64, y: &i64| Some(x.cmp(y))),
        (Float(a, av), Float(b, bv)) => {
            czip!(a, av, b, bv, |x: &f64, y: &f64| x.partial_cmp(y))
        }
        (Int(a, av), Float(b, bv)) => {
            czip!(a, av, b, bv, |x: &i64, y: &f64| (*x as f64).partial_cmp(y))
        }
        (Float(a, av), Int(b, bv)) => {
            czip!(a, av, b, bv, |x: &f64, y: &i64| x.partial_cmp(&(*y as f64)))
        }
        (Date(a, av), Date(b, bv)) => czip!(a, av, b, bv, |x: &i32, y: &i32| Some(x.cmp(y))),
        (Int(a, av), Date(b, bv)) => {
            czip!(a, av, b, bv, |x: &i64, y: &i32| Some(x.cmp(&i64::from(*y))))
        }
        (Date(a, av), Int(b, bv)) => {
            czip!(a, av, b, bv, |x: &i32, y: &i64| Some(i64::from(*x).cmp(y)))
        }
        (Str(a, av), Str(b, bv)) => {
            czip!(a, av, b, bv, |x: &String, y: &String| Some(x.cmp(y)))
        }
        // Equality within one dictionary lineage compares codes directly —
        // no byte access.
        (
            Column::DictStr {
                codes: a,
                dict: da,
                valid: av,
            },
            Column::DictStr {
                codes: b,
                dict: db,
                valid: bv,
            },
        ) if matches!(op, Eq | Ne) && da.same_lineage(db) => {
            czip!(a, av, b, bv, |x: &u32, y: &u32| Some(x.cmp(y)))
        }
        (Bool(a, av), Bool(b, bv)) => czip!(a, av, b, bv, |x: &bool, y: &bool| Some(x.cmp(y))),
        // Genuinely mixed pairs (date vs string column, ...) stay row-wise.
        _ => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(l.get(i).sql_cmp(&r.get(i)).map(&want).unwrap_or(false));
            }
            Ok(Column::from_bool(out))
        }
    }
}

/// IN-list membership with typed fast paths for the common literal shapes
/// (int/date column against int/date candidates, float column against
/// numeric candidates, string column against string candidates — through
/// [`str_mask`], so dictionary entries are tested once); anything else keeps
/// the row-wise `sql_cmp` semantics.
fn eval_in_list(c: &Column, list: &[Value], negated: bool, memo: Option<Memo<'_>>) -> Vec<bool> {
    let ints = || -> Option<Vec<i64>> {
        list.iter()
            .map(|v| match v {
                Value::Int(i) => Some(*i),
                Value::Date(x) => Some(i64::from(*x)),
                _ => None,
            })
            .collect()
    };
    match c {
        Column::Int(d, valid) => {
            if let Some(ints) = ints() {
                return rows(d, valid, |x| ints.contains(x) != negated);
            }
        }
        Column::Date(d, valid) => {
            if let Some(ints) = ints() {
                return rows(d, valid, |x| ints.contains(&i64::from(*x)) != negated);
            }
        }
        Column::Float(d, valid) => {
            let floats: Option<Vec<f64>> = list
                .iter()
                .map(|v| match v {
                    Value::Int(_) | Value::Float(_) => v.as_f64(),
                    _ => None,
                })
                .collect();
            if let Some(floats) = floats {
                return rows(d, valid, |x| floats.contains(x) != negated);
            }
        }
        Column::Str(..) | Column::DictStr { .. }
            if list.iter().all(|v| matches!(v, Value::Str(_))) =>
        {
            // Candidates absent from a dictionary can never match (but still
            // flip under NOT IN).
            return str_mask(c, memo, |s| {
                list.iter().any(|v| v.as_str() == Some(s)) != negated
            })
            .expect("string column");
        }
        _ => {}
    }
    (0..c.len())
        .map(|i| {
            let v = c.get(i);
            if v.is_null() {
                return false;
            }
            list.iter()
                .any(|cand| v.sql_cmp(cand) == Some(std::cmp::Ordering::Equal))
                != negated
        })
        .collect()
}

/// Row-at-a-time reference evaluator for the binary kernels.
///
/// Implements the same SQL semantics as [`eval_bin`] by constructing a scalar
/// [`Value`] per row — the shape the engine had before the typed kernels.
/// Property tests assert the vectorized kernels stay **bit-identical** to
/// this evaluator on every valid row (placeholder data under null rows is
/// unspecified in both). Not used on any hot path.
pub mod reference {
    use super::*;

    /// Reference implementation of [`super::eval_bin`].
    pub fn eval_bin(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
        use BinOp::*;
        let n = l.len();
        if r.len() != n {
            return Err(Error::Exec("binary operand length mismatch".into()));
        }
        match op {
            And | Or => {
                if !matches!((l, r), (Column::Bool(..), Column::Bool(..))) {
                    return Err(Error::Exec("AND/OR require booleans".into()));
                }
                let out: Vec<bool> = (0..n)
                    .map(|i| {
                        // Null placeholders are stored as `false`.
                        let x = bool_data(l, i);
                        let y = bool_data(r, i);
                        if op == And {
                            x && y
                        } else {
                            x || y
                        }
                    })
                    .collect();
                Ok(Column::from_bool(out))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let want = |o: std::cmp::Ordering| -> bool {
                    match op {
                        Eq => o == std::cmp::Ordering::Equal,
                        Ne => o != std::cmp::Ordering::Equal,
                        Lt => o == std::cmp::Ordering::Less,
                        Le => o != std::cmp::Ordering::Greater,
                        Gt => o == std::cmp::Ordering::Greater,
                        _ => o != std::cmp::Ordering::Less,
                    }
                };
                let out: Vec<bool> = (0..n)
                    .map(|i| l.get(i).sql_cmp(&r.get(i)).map(want).unwrap_or(false))
                    .collect();
                Ok(Column::from_bool(out))
            }
            Concat => {
                let mut out = Column::with_capacity(DType::Str, n);
                for i in 0..n {
                    match (l.get(i), r.get(i)) {
                        (Value::Null, _) | (_, Value::Null) => out.push_null(),
                        (Value::Str(a), Value::Str(b)) => out.push(Value::Str(a + &b))?,
                        (a, b) => out.push(Value::Str(format!("{a}{b}")))?,
                    }
                }
                Ok(out)
            }
            Add | Sub | Mul | Div | Mod => {
                let dtype = arith_dtype(op, l.dtype(), r.dtype());
                let mut out = Column::with_capacity(dtype, n);
                for i in 0..n {
                    out.push(scalar_arith(op, &l.get(i), &r.get(i))?)?;
                }
                Ok(out)
            }
        }
    }

    fn bool_data(c: &Column, i: usize) -> bool {
        match c {
            Column::Bool(d, _) => d[i],
            _ => unreachable!("checked by caller"),
        }
    }

    /// The result dtype the typed kernels produce for an arithmetic pair.
    pub fn arith_dtype(op: BinOp, l: DType, r: DType) -> DType {
        use BinOp::*;
        match (l, r) {
            (DType::Int, DType::Int) if matches!(op, Add | Sub | Mul | Mod) => DType::Int,
            (DType::Date, DType::Int) if matches!(op, Add | Sub) => DType::Date,
            (DType::Date, DType::Date) if op == Sub => DType::Int,
            _ => DType::Float,
        }
    }

    fn scalar_arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
        use BinOp::*;
        if a.is_null() || b.is_null() {
            return Ok(Value::Null);
        }
        Ok(match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Add => Value::Int(x.wrapping_add(*y)),
                Sub => Value::Int(x.wrapping_sub(*y)),
                Mul => Value::Int(x.wrapping_mul(*y)),
                Mod => Value::Int(if *y == 0 { 0 } else { x % y }),
                _ => Value::Float(*x as f64 / *y as f64),
            },
            (Value::Date(x), Value::Int(y)) if matches!(op, Add | Sub) => {
                if op == Add {
                    Value::Date(x + *y as i32)
                } else {
                    Value::Date(x - *y as i32)
                }
            }
            (Value::Date(x), Value::Date(y)) if op == Sub => Value::Int(i64::from(x - y)),
            _ => {
                let (x, y) = match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        return Err(Error::Exec("cannot use strings in arithmetic".into()));
                    }
                };
                Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => x % y,
                })
            }
        })
    }
}

fn eval_func(f: SFunc, cols: &[Column], n: usize) -> Result<Column> {
    let arg = |i: usize| -> Result<&Column> {
        cols.get(i)
            .ok_or_else(|| Error::Exec(format!("function missing argument {i}")))
    };
    /// Applies `f` element-wise as a float kernel: direct slice loops for
    /// int/float inputs, `to_f64_vec` widening for the rest.
    macro_rules! fmap {
        ($c:expr, $f:expr) => {{
            match $c {
                Column::Float(d, v) => {
                    Ok(Column::Float(d.iter().map(|&x| $f(x)).collect(), v.clone()))
                }
                Column::Int(d, v) => Ok(Column::Float(
                    d.iter().map(|&x| $f(x as f64)).collect(),
                    v.clone(),
                )),
                c => {
                    let d = to_f64_vec(c)?;
                    Ok(Column::Float(
                        d.iter().map(|&x| $f(x)).collect(),
                        validity_of(c),
                    ))
                }
            }
        }};
    }
    match f {
        SFunc::Abs => match arg(0)? {
            Column::Int(d, v) => Ok(Column::Int(d.iter().map(|x| x.abs()).collect(), v.clone())),
            c => fmap!(c, f64::abs),
        },
        SFunc::Round => {
            let digits = match cols.get(1) {
                Some(c) if !c.is_empty() => c.get(0).as_i64().unwrap_or(0),
                _ => 0,
            } as i32;
            let scale = 10f64.powi(digits);
            fmap!(arg(0)?, |x: f64| (x * scale).round() / scale)
        }
        SFunc::Floor => fmap!(arg(0)?, f64::floor),
        SFunc::Ceil => fmap!(arg(0)?, f64::ceil),
        SFunc::Sqrt => fmap!(arg(0)?, f64::sqrt),
        SFunc::Power => {
            let a = to_f64_vec(arg(0)?)?;
            let b = to_f64_vec(arg(1)?)?;
            Ok(Column::Float(
                a.iter().zip(&b).map(|(&x, &y)| x.powf(y)).collect(),
                merge_validity(&validity_of(arg(0)?), &validity_of(arg(1)?)),
            ))
        }
        SFunc::Year | SFunc::Month | SFunc::Day => match arg(0)? {
            Column::Date(d, v) => {
                let out: Vec<i64> = d
                    .iter()
                    .map(|&x| match f {
                        SFunc::Year => i64::from(date::year(x)),
                        SFunc::Month => i64::from(date::month(x)),
                        _ => i64::from(date::day(x)),
                    })
                    .collect();
                Ok(Column::Int(out, v.clone()))
            }
            _ => Err(Error::Exec("date function requires a date column".into())),
        },
        SFunc::AddMonths | SFunc::AddYears | SFunc::AddDays => {
            let base = match arg(0)? {
                Column::Date(d, v) => (d, v.clone()),
                _ => return Err(Error::Exec("date arithmetic requires a date".into())),
            };
            let k = arg(1)?;
            let out: Vec<i32> = base
                .0
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let n = k
                        .get(i.min(k.len().saturating_sub(1)))
                        .as_i64()
                        .unwrap_or(0) as i32;
                    match f {
                        SFunc::AddMonths => date::add_months(x, n),
                        SFunc::AddYears => date::add_years(x, n),
                        _ => x + n,
                    }
                })
                .collect();
            Ok(Column::Date(out, base.1))
        }
        SFunc::Substring => {
            let s = arg(0)?;
            let start = arg(1)?;
            let len = cols.get(2);
            let mut out = Column::with_capacity(DType::Str, n);
            for i in 0..n {
                match s.get(i) {
                    Value::Str(text) => {
                        let st = (start.get(i).as_i64().unwrap_or(1).max(1) - 1) as usize;
                        let l = len
                            .map(|c| c.get(i).as_i64().unwrap_or(i64::MAX).max(0) as usize)
                            .unwrap_or(usize::MAX);
                        let sub: String = text.chars().skip(st).take(l).collect();
                        out.push(Value::Str(sub))?;
                    }
                    _ => out.push_null(),
                }
            }
            Ok(out)
        }
        SFunc::Length => match arg(0)? {
            Column::Str(d, v) => Ok(Column::Int(
                d.iter().map(|s| s.chars().count() as i64).collect(),
                v.clone(),
            )),
            Column::DictStr { codes, dict, valid } => {
                // Length runs once per dictionary entry, then maps codes.
                let table: Vec<i64> = dict.strs().map(|s| s.chars().count() as i64).collect();
                Ok(Column::Int(
                    codes
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            if valid.as_ref().map_or(true, |v| v[i]) {
                                table[c as usize]
                            } else {
                                0
                            }
                        })
                        .collect(),
                    valid.clone(),
                ))
            }
            _ => Err(Error::Exec("LENGTH requires strings".into())),
        },
        SFunc::Upper | SFunc::Lower => {
            let cased = |s: &str| {
                if f == SFunc::Upper {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                }
            };
            match arg(0)? {
                Column::Str(d, v) => {
                    Ok(Column::Str(d.iter().map(|s| cased(s)).collect(), v.clone()))
                }
                Column::DictStr { codes, dict, valid } => {
                    // Case-folding stays encoded: fold each dictionary entry
                    // once into a fresh dictionary, codes carry over verbatim.
                    let mut folded = Dictionary::default();
                    let remap: Vec<u32> = dict.strs().map(|s| folded.intern(&cased(s))).collect();
                    Ok(Column::DictStr {
                        codes: codes
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| {
                                if valid.as_ref().map_or(true, |v| v[i]) {
                                    remap[c as usize]
                                } else {
                                    0
                                }
                            })
                            .collect(),
                        dict: Arc::new(folded),
                        valid: valid.clone(),
                    })
                }
                _ => Err(Error::Exec("UPPER/LOWER require strings".into())),
            }
        }
        SFunc::StrPos => {
            let s = arg(0)?;
            let sub = arg(1)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match (s.get(i), sub.get(i)) {
                    (Value::Str(a), Value::Str(b)) => {
                        out.push(a.find(&b).map(|p| p as i64 + 1).unwrap_or(0));
                    }
                    _ => out.push(0),
                }
            }
            Ok(Column::from_i64(out))
        }
        SFunc::Coalesce => {
            let dtype = cols
                .iter()
                .map(|c| c.dtype())
                .next()
                .unwrap_or(DType::Float);
            let mut out = Column::with_capacity(dtype, n);
            'rows: for i in 0..n {
                for c in cols {
                    let v = c.get(i);
                    if !v.is_null() {
                        out.push(coerce(v, dtype)?)?;
                        continue 'rows;
                    }
                }
                out.push_null();
            }
            Ok(out)
        }
    }
}

fn to_f64_vec(c: &Column) -> Result<Vec<f64>> {
    Ok(match c {
        Column::Int(d, _) => d.iter().map(|&x| x as f64).collect(),
        Column::Float(d, _) => d.clone(),
        Column::Date(d, _) => d.iter().map(|&x| f64::from(x)).collect(),
        Column::Bool(d, _) => d.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
        Column::Str(..) | Column::DictStr { .. } => {
            return Err(Error::Exec("cannot use strings in arithmetic".into()));
        }
    })
}

fn validity_of(c: &Column) -> Option<Vec<bool>> {
    c.validity().map(|v| v.to_vec())
}

fn merge_validity(a: &Option<Vec<bool>>, b: &Option<Vec<bool>>) -> Option<Vec<bool>> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(x), Some(y)) => Some(x.iter().zip(y).map(|(&a, &b)| a && b).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Batch;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            Column::from_i64(vec![1, 2, 3, 4]),
            Column::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
            Column::from_strs(&["apple", "banana", "cherry", "date"]),
            Column::from_dates(vec![0, 100, 200, 300]),
        ])
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = BExpr::Col(0).eval(&b, None).unwrap();
        assert_eq!(c.as_int(), &[1, 2, 3, 4]);
        let l = BExpr::Lit(Value::Int(7)).eval(&b, None).unwrap();
        assert_eq!(l.as_int(), &[7, 7, 7, 7]);
    }

    #[test]
    fn selection_vector_restricts_rows() {
        let b = batch();
        let c = BExpr::Col(2).eval(&b, Some(&[3, 0])).unwrap();
        assert_eq!(c.as_str_col(), &["date".to_string(), "apple".into()]);
    }

    #[test]
    fn arithmetic_type_rules() {
        let b = batch();
        let add = BExpr::Bin {
            op: BinOp::Add,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Lit(Value::Int(10))),
        };
        assert_eq!(add.eval(&b, None).unwrap().as_int(), &[11, 12, 13, 14]);
        let div = BExpr::Bin {
            op: BinOp::Div,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Lit(Value::Int(2))),
        };
        assert_eq!(
            div.eval(&b, None).unwrap().as_float(),
            &[0.5, 1.0, 1.5, 2.0]
        );
    }

    #[test]
    fn date_arithmetic() {
        let b = batch();
        let plus = BExpr::Bin {
            op: BinOp::Add,
            l: Box::new(BExpr::Col(3)),
            r: Box::new(BExpr::Lit(Value::Int(5))),
        };
        assert_eq!(plus.eval(&b, None).unwrap().as_date(), &[5, 105, 205, 305]);
    }

    #[test]
    fn comparisons_and_masks() {
        let b = batch();
        let gt = BExpr::Bin {
            op: BinOp::Gt,
            l: Box::new(BExpr::Col(1)),
            r: Box::new(BExpr::Lit(Value::Float(25.0))),
        };
        assert_eq!(
            gt.eval_mask(&b, None).unwrap(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn like_patterns() {
        let p = LikePattern::compile("%an%");
        assert!(p.matches("banana"));
        assert!(!p.matches("apple"));
        let p2 = LikePattern::compile("a__le");
        assert!(p2.matches("apple"));
        assert!(!p2.matches("ample2"));
        let p3 = LikePattern::compile("ch%");
        assert!(p3.matches("cherry"));
        let p4 = LikePattern::compile("%ROSE%");
        assert!(p4.matches("dark ROSE metal"));
        assert!(!p4.matches("rose"));
        // Prefix and suffix may not overlap; middle literals keep their order.
        assert!(!LikePattern::compile("ab%ba").matches("aba"));
        assert!(LikePattern::compile("ab%ba").matches("abba"));
        let two = LikePattern::compile("%special%requests%");
        assert!(two.matches("x special y requests z"));
        assert!(!two.matches("requests then special"));
        // `_` is one character, not one byte.
        assert!(LikePattern::compile("_日%é").matches("a日xé"));
        assert!(!LikePattern::compile("__").matches("日"));
        assert!(LikePattern::compile("").matches(""));
        assert!(!LikePattern::compile("").matches("a"));
    }

    /// A compiled pattern must not widen the expression enum past its
    /// `IN`-list node.
    #[test]
    fn like_node_is_no_wider_than_an_in_list() {
        let in_list = std::mem::size_of::<(Box<BExpr>, Vec<Value>, bool)>();
        let node = std::mem::size_of::<BExpr>();
        assert!(
            node <= in_list,
            "BExpr is {node} bytes, an IN list {in_list}"
        );
    }

    /// Many `%` against a long near-miss: every kernel is polynomial in the
    /// string length alone (the old recursive matcher took seconds here at
    /// 80 characters).
    #[test]
    fn like_on_adversarial_input_returns_promptly() {
        let s = "a".repeat(10_000);
        let start = std::time::Instant::now();
        assert!(!LikePattern::compile("%a%a%a%a%a%b").matches(&s));
        assert!(!LikePattern::compile("%a%a%a%a%a%b%").matches(&s));
        assert!(!LikePattern::compile("%a_%a_%a_%a_%a_%b").matches(&s));
        assert!(LikePattern::compile("%a_%a_%a_%a_%a_%").matches(&s));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 2, "{elapsed:?}");
    }

    #[test]
    fn in_list_and_case() {
        let b = batch();
        let inl = BExpr::InList {
            e: Box::new(BExpr::Col(0)),
            list: vec![Value::Int(2), Value::Int(4)],
            negated: false,
        };
        assert_eq!(
            inl.eval_mask(&b, None).unwrap(),
            vec![false, true, false, true]
        );
        let case = BExpr::Case {
            arms: vec![(inl, BExpr::Lit(Value::Int(1)))],
            else_value: Some(Box::new(BExpr::Lit(Value::Int(0)))),
        };
        assert_eq!(case.eval(&b, None).unwrap().as_int(), &[0, 1, 0, 1]);
    }

    #[test]
    fn functions() {
        let b = batch();
        let year = BExpr::Func {
            f: SFunc::Year,
            args: vec![BExpr::Col(3)],
        };
        assert_eq!(year.eval(&b, None).unwrap().as_int()[0], 1970);
        let sub = BExpr::Func {
            f: SFunc::Substring,
            args: vec![
                BExpr::Col(2),
                BExpr::Lit(Value::Int(1)),
                BExpr::Lit(Value::Int(3)),
            ],
        };
        assert_eq!(sub.eval(&b, None).unwrap().as_str_col()[1], "ban");
        let len = BExpr::Func {
            f: SFunc::Length,
            args: vec![BExpr::Col(2)],
        };
        assert_eq!(len.eval(&b, None).unwrap().as_int(), &[5, 6, 6, 4]);
    }

    #[test]
    fn null_propagation_in_arithmetic() {
        let mut c = Column::new(DType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push_null();
        let b = Batch::from_columns(vec![c]);
        let add = BExpr::Bin {
            op: BinOp::Add,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Lit(Value::Int(1))),
        };
        let out = add.eval(&b, None).unwrap();
        assert_eq!(out.get(0), Value::Int(2));
        assert_eq!(out.get(1), Value::Null);
    }

    fn bin(op: BinOp, l: BExpr, r: BExpr) -> BExpr {
        BExpr::Bin {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    /// A NULL literal operand borrows the column's type instead of
    /// fabricating a `Float` column: comparisons are all-false, arithmetic
    /// is all-NULL in the column's dtype (`/` stays `Float`), on either side.
    #[test]
    fn null_literal_operand_short_circuits() {
        let b = batch();
        let null = || BExpr::Lit(Value::Null);
        let types = [DType::Int, DType::Float, DType::Str, DType::Date];
        for col in 0..4 {
            for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Ge] {
                for e in [
                    bin(op, BExpr::Col(col), null()),
                    bin(op, null(), BExpr::Col(col)),
                ] {
                    assert_eq!(e.eval_mask(&b, None).unwrap(), vec![false; 4], "{e}");
                }
            }
        }
        let cases = [
            (BinOp::Add, 0, DType::Int),
            (BinOp::Mod, 0, DType::Int),
            (BinOp::Div, 0, DType::Float),
            (BinOp::Mul, 1, DType::Float),
            (BinOp::Sub, 3, DType::Date),
            (BinOp::Div, 3, DType::Float),
        ];
        for (op, col, want) in cases {
            for e in [
                bin(op, BExpr::Col(col), null()),
                bin(op, null(), BExpr::Col(col)),
            ] {
                let out = e.eval(&b, None).unwrap();
                assert_eq!(out.dtype(), want, "{e}");
                assert_eq!(e.dtype(&types), want, "static type of {e}");
                assert_eq!(out.null_count(), 4, "{e}");
                // Empty input: still the column's dtype.
                assert_eq!(e.eval(&b, Some(&[])).unwrap().dtype(), want, "{e}");
            }
        }
        let cat = bin(BinOp::Concat, BExpr::Col(2), null());
        let out = cat.eval(&b, None).unwrap();
        assert_eq!((out.dtype(), out.null_count()), (DType::Str, 4));
        // Only a bare NULL projection still defaults to Float.
        assert_eq!(null().eval(&b, None).unwrap().dtype(), DType::Float);
    }

    /// Literal operands never broadcast: scalar kernels on either side
    /// agree with the column kernels over a materialized literal.
    #[test]
    fn scalar_operand_sides() {
        let b = batch();
        let sub = bin(BinOp::Sub, BExpr::Lit(Value::Int(10)), BExpr::Col(0));
        assert_eq!(sub.eval(&b, None).unwrap().as_int(), &[9, 8, 7, 6]);
        let div = bin(BinOp::Div, BExpr::Lit(Value::Float(60.0)), BExpr::Col(1));
        assert_eq!(
            div.eval(&b, None).unwrap().as_float(),
            &[6.0, 3.0, 2.0, 1.5]
        );
        let lt = bin(BinOp::Lt, BExpr::Lit(Value::Int(2)), BExpr::Col(0));
        assert_eq!(
            lt.eval_mask(&b, None).unwrap(),
            vec![false, false, true, true]
        );
        // A date string types once, parsable or not.
        let day100 = Value::Str(date::format(100));
        let ge = bin(BinOp::Ge, BExpr::Col(3), BExpr::Lit(day100));
        assert_eq!(
            ge.eval_mask(&b, None).unwrap(),
            vec![false, true, true, true]
        );
        let bad = bin(
            BinOp::Ne,
            BExpr::Col(3),
            BExpr::Lit(Value::Str("soon".into())),
        );
        assert_eq!(bad.eval_mask(&b, None).unwrap(), vec![false; 4]);
        let cat = bin(BinOp::Concat, BExpr::Lit(Value::Int(7)), BExpr::Col(2));
        assert_eq!(cat.eval(&b, None).unwrap().as_str_col()[0], "7apple");
        let konst = bin(
            BinOp::Mul,
            BExpr::Lit(Value::Int(6)),
            BExpr::Lit(Value::Int(7)),
        );
        assert_eq!(konst.eval(&b, None).unwrap().as_int(), &[42; 4]);
    }

    /// One execution-scoped table per (predicate node, dictionary): morsels
    /// share it, entries are tested at most once, and only when referenced.
    #[test]
    fn dictionary_tables_are_shared_and_lazy() {
        let strs: Vec<String> = (0..100).map(|i| format!("k{i:03}")).collect();
        let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
        let b = Batch::from_columns(vec![Column::from_strs(&refs).encode_str()]);
        let like = BExpr::Like {
            e: Box::new(BExpr::Col(0)),
            pattern: LikePattern::compile("k00%"),
            negated: false,
        };
        let tables = DictTables::default();
        let want = like.eval_mask(&b, None).unwrap();
        assert_eq!(want.iter().filter(|&&k| k).count(), 10);
        // Ten-row morsels against a 100-entry dictionary, memoized.
        let mut got = Vec::new();
        for start in (0..100).step_by(10) {
            let rows = RowsRef::Range(start, start + 10);
            got.extend(like.mask_rows(&b, rows, Some(&tables)).unwrap());
        }
        assert_eq!(got, want);
        assert_eq!(tables.built(), 1);
        // A second predicate node gets its own table; a partial scan fills
        // only the entries it references.
        let eq = bin(
            BinOp::Eq,
            BExpr::Col(0),
            BExpr::Lit(Value::Str("k042".into())),
        );
        let hits = eq
            .mask_rows(&b, RowsRef::Sel(&[42, 7]), Some(&tables))
            .unwrap();
        assert_eq!(hits, vec![true, false]);
        assert_eq!(tables.built(), 2);
        let table = tables
            .slots
            .lock()
            .unwrap()
            .values()
            .find(|t| t.0.iter().filter(|s| s.load(Relaxed) != 0).count() == 2)
            .cloned()
            .expect("the equality table saw exactly the two referenced entries");
        assert_eq!(table.0[42].load(Relaxed), 2);
        assert_eq!(table.0[7].load(Relaxed), 1);
    }

    /// The chunks of an appended table hold versions of one dictionary
    /// lineage: a predicate over them builds one table, grown (verdicts
    /// kept) when the longer version arrives, and compares codes in place.
    #[test]
    fn dictionary_versions_of_one_lineage_share_a_table() {
        let old = Column::from_strs(&["a", "b", "a"]).encode_str();
        let mut new = old.slice(3, 3);
        new.append_in_lineage(&Column::from_strs(&["c", "b", "d"]))
            .unwrap();
        let (_, d_old, _) = old.dict_parts().unwrap();
        let (_, d_new, _) = new.dict_parts().unwrap();
        assert!(d_old.same_lineage(d_new) && d_new.len() == 4 && d_old.len() == 2);
        let like = BExpr::Like {
            e: Box::new(BExpr::Col(0)),
            pattern: LikePattern::compile("%"),
            negated: true,
        };
        let ne_b = bin(BinOp::Ne, BExpr::Col(0), BExpr::Lit(Value::Str("b".into())));
        let tables = DictTables::default();
        for (batch, want) in [
            (
                Batch::from_columns(vec![old.clone()]),
                vec![true, false, true],
            ),
            (
                Batch::from_columns(vec![new.clone()]),
                vec![true, false, true],
            ),
        ] {
            let got = ne_b.mask_rows(&batch, RowsRef::Range(0, 3), Some(&tables));
            assert_eq!(got.unwrap(), want);
            let none = like.mask_rows(&batch, RowsRef::Range(0, 3), Some(&tables));
            assert_eq!(none.unwrap(), vec![false; 3]);
        }
        assert_eq!(
            tables.built(),
            2,
            "one table per predicate, not per version"
        );
        // Codes of the two versions compare directly.
        let pair = Batch::from_columns(vec![old.clone(), new.clone()]);
        let eq = bin(BinOp::Eq, BExpr::Col(0), BExpr::Col(1));
        assert_eq!(eq.eval_mask(&pair, None).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn is_null_and_coalesce() {
        let mut c = Column::new(DType::Float);
        c.push(Value::Float(1.0)).unwrap();
        c.push_null();
        let b = Batch::from_columns(vec![c]);
        let isnull = BExpr::IsNull {
            e: Box::new(BExpr::Col(0)),
            negated: false,
        };
        assert_eq!(isnull.eval_mask(&b, None).unwrap(), vec![false, true]);
        let coal = BExpr::Func {
            f: SFunc::Coalesce,
            args: vec![BExpr::Col(0), BExpr::Lit(Value::Float(9.0))],
        };
        assert_eq!(coal.eval(&b, None).unwrap().as_float(), &[1.0, 9.0]);
    }

    #[test]
    fn columns_used_and_remap() {
        let e = BExpr::Bin {
            op: BinOp::Add,
            l: Box::new(BExpr::Col(2)),
            r: Box::new(BExpr::Col(0)),
        };
        // Every variant, a distinct column in every child slot.
        let col = |i| Box::new(BExpr::Col(i));
        let every_variant = BExpr::Func {
            f: SFunc::Coalesce,
            args: vec![
                BExpr::Not(col(0)),
                BExpr::Neg(col(1)),
                BExpr::IsNull {
                    e: col(2),
                    negated: false,
                },
                BExpr::Like {
                    e: col(3),
                    pattern: LikePattern::compile("a%"),
                    negated: false,
                },
                BExpr::InList {
                    e: col(4),
                    list: vec![Value::Int(1)],
                    negated: true,
                },
                BExpr::Case {
                    arms: vec![(BExpr::Col(5), BExpr::Col(6))],
                    else_value: Some(col(7)),
                },
                BExpr::Cast {
                    e: col(8),
                    to: DType::Float,
                },
                BExpr::Bin {
                    op: BinOp::Mul,
                    l: col(9),
                    r: col(10),
                },
                BExpr::Lit(Value::Int(0)),
            ],
        };
        for (e, cols) in [(e, vec![2, 0]), (every_variant, (0..=10).collect())] {
            let mut used = Vec::new();
            e.columns_used(&mut used);
            assert_eq!(used, cols);
            let mut e2 = e.clone();
            e2.remap_columns(&|i| i + 10);
            let mut used2 = Vec::new();
            e2.columns_used(&mut used2);
            assert_eq!(used2, cols.iter().map(|i| i + 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dtype_inference() {
        let types = vec![DType::Int, DType::Float, DType::Str, DType::Date];
        let add_ii = BExpr::Bin {
            op: BinOp::Add,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Col(0)),
        };
        assert_eq!(add_ii.dtype(&types), DType::Int);
        let div = BExpr::Bin {
            op: BinOp::Div,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Col(0)),
        };
        assert_eq!(div.dtype(&types), DType::Float);
        let cmp = BExpr::Bin {
            op: BinOp::Lt,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Col(1)),
        };
        assert_eq!(cmp.dtype(&types), DType::Bool);
    }
}
