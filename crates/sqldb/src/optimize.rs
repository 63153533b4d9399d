//! Logical-plan rewrites: filter pushdown (with the per-input consequences
//! of cross-input disjunctions), cross→inner join promotion, scan-predicate
//! sinking, semi/anti-join sinking, statistics-driven join ordering,
//! projection (scan-column) pruning, and the hash-join build side.
//!
//! The statistics-aware passes consume a [`StatsCatalog`] snapshot of the
//! database's [`crate::stats::TableStats`]: [`estimate`] predicts operator
//! cardinalities from row counts, null fractions, min/max bounds and
//! distinct-count estimates, and [`reorder_joins`] uses those predictions to
//! greedily re-order contiguous inner/cross-join regions (outer joins,
//! semi/anti joins and every other operator are barriers the rewrite never
//! crosses). A region is only rebuilt when the estimated cost — sum of hash
//! build sizes and intermediate cardinalities — strictly improves, so plans
//! without useful statistics keep their original shape.

use crate::ast::BinOp;
use crate::expr::BExpr;
use crate::plan::{JKind, LogicalPlan};
use crate::stats::TableStats;
use crate::table::Schema;
use pytond_common::hash::FxHashMap;
use pytond_common::Value;

/// Runs all rewrite passes without statistics (tests / standalone use).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    optimize_with(plan, &StatsCatalog::empty())
}

/// Runs all rewrite passes with a statistics catalog: filter pushdown
/// (with single-input consequences of cross-input disjunctions),
/// scan-predicate sinking, semi/anti-join sinking, cost-based join
/// ordering, projection pruning, and — last, on the final tree — the build
/// side of every hash join.
pub fn optimize_with(plan: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
    let plan = push_filters(plan);
    let plan = sink_scan_filters(plan);
    let plan = sink_semi_joins(plan, ctx);
    let plan = reorder_joins(plan, ctx);
    let all: Vec<usize> = (0..plan.schema().len()).collect();
    let (plan, _map) = prune(plan, &all);
    choose_build_sides(plan, ctx)
}

/// Decides, for every keyed join, which input the hash index is built over:
/// the left one when the join kind can stream its right input (`Inner`,
/// `Semi`, `Anti` — outer joins keep the binder's build-right) and the left
/// input is estimated strictly smaller. The only writer of
/// [`LogicalPlan::Join`]'s `build_left`; the executor never second-guesses
/// it, so [`plan_cost`]'s `min(l, r)` build term is what runs.
fn choose_build_sides(plan: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
    map_inputs(plan, &|mut p| {
        if let LogicalPlan::Join {
            left,
            right,
            kind: JKind::Inner | JKind::Semi | JKind::Anti,
            left_keys,
            build_left,
            ..
        } = &mut p
        {
            *build_left = !left_keys.is_empty() && estimate(left, ctx) < estimate(right, ctx);
        }
        p
    })
}

// ---------------- filter pushdown ----------------

fn split_and(e: BExpr, out: &mut Vec<BExpr>) {
    match e {
        BExpr::Bin {
            op: BinOp::And,
            l,
            r,
        } => {
            split_and(*l, out);
            split_and(*r, out);
        }
        other => out.push(other),
    }
}

fn conjoin(mut conjs: Vec<BExpr>) -> Option<BExpr> {
    let mut acc = conjs.pop()?;
    while let Some(c) = conjs.pop() {
        acc = BExpr::Bin {
            op: BinOp::And,
            l: Box::new(c),
            r: Box::new(acc),
        };
    }
    Some(acc)
}

fn cols_of(e: &BExpr) -> Vec<usize> {
    let mut v = Vec::new();
    e.columns_used(&mut v);
    v
}

/// Pushes filter conjuncts toward the scans.
pub fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, pred } => {
            let mut conjs = Vec::new();
            split_and(pred, &mut conjs);
            push_conjuncts(*input, conjs)
        }
        other => other.map_children(push_filters),
    }
}

/// Pushes a set of conjuncts into `plan`, keeping the un-pushable ones in a
/// Filter directly above it.
fn push_conjuncts(plan: LogicalPlan, conjs: Vec<BExpr>) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, pred } => {
            // A conjunct arriving at a filter that already holds it (a
            // derived disjunction, on a second pushdown) is dropped, so the
            // pass is idempotent.
            let mut held = Vec::new();
            split_and(pred, &mut held);
            let mut all = conjs;
            for c in held {
                if !all.contains(&c) {
                    all.push(c);
                }
            }
            push_conjuncts(*input, all)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            // Substitute projection expressions into each conjunct and push.
            let mut pushed = Vec::new();
            for mut c in conjs {
                substitute_cols(&mut c, &exprs);
                pushed.push(c);
            }
            LogicalPlan::Project {
                input: Box::new(push_conjuncts(*input, pushed)),
                exprs,
                schema,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            mut left_keys,
            mut right_keys,
            residual,
            build_left,
            schema,
        } => {
            let lw = left.schema().len();
            let mut left_conjs = Vec::new();
            let mut right_conjs = Vec::new();
            let mut keep = Vec::new();
            let left_pushable = matches!(
                kind,
                JKind::Inner | JKind::Cross | JKind::Semi | JKind::Anti | JKind::Left
            );
            let right_pushable = matches!(kind, JKind::Inner | JKind::Cross);
            for c in conjs {
                let cols = cols_of(&c);
                let all_left = cols.iter().all(|&i| i < lw);
                let all_right = cols.iter().all(|&i| i >= lw);
                if all_left && left_pushable && !cols.is_empty() {
                    left_conjs.push(c);
                } else if all_right && right_pushable && !cols.is_empty() {
                    let mut c = c;
                    c.remap_columns(&|i| i - lw);
                    right_conjs.push(c);
                } else if matches!(kind, JKind::Inner | JKind::Cross) {
                    // Equi-predicate across sides → promote to join key.
                    if let BExpr::Bin {
                        op: BinOp::Eq,
                        l,
                        r,
                    } = &c
                    {
                        let lc = cols_of(l);
                        let rc = cols_of(r);
                        let l_is_left = !lc.is_empty() && lc.iter().all(|&i| i < lw);
                        let r_is_right = !rc.is_empty() && rc.iter().all(|&i| i >= lw);
                        let l_is_right = !lc.is_empty() && lc.iter().all(|&i| i >= lw);
                        let r_is_left = !rc.is_empty() && rc.iter().all(|&i| i < lw);
                        if l_is_left && r_is_right {
                            let mut rk = (**r).clone();
                            rk.remap_columns(&|i| i - lw);
                            left_keys.push((**l).clone());
                            right_keys.push(rk);
                            continue;
                        }
                        if l_is_right && r_is_left {
                            let mut lk = (**l).clone();
                            lk.remap_columns(&|i| i - lw);
                            left_keys.push((**r).clone());
                            right_keys.push(lk);
                            continue;
                        }
                    }
                    keep.push(c);
                } else {
                    keep.push(c);
                }
            }
            if matches!(kind, JKind::Inner | JKind::Cross) {
                for c in &keep {
                    if let Some(d) = side_consequence(c, |i| i < lw) {
                        left_conjs.push(d);
                    }
                    if let Some(mut d) = side_consequence(c, |i| i >= lw) {
                        d.remap_columns(&|i| i - lw);
                        right_conjs.push(d);
                    }
                }
            }
            let kind = if kind == JKind::Cross && !left_keys.is_empty() {
                JKind::Inner
            } else {
                kind
            };
            let new_join = LogicalPlan::Join {
                left: Box::new(push_conjuncts_opt(*left, left_conjs)),
                right: Box::new(push_conjuncts_opt(*right, right_conjs)),
                kind,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            };
            wrap_filter(new_join, keep)
        }
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_conjuncts(*input, conjs)),
            keys,
        },
        LogicalPlan::Limit { .. } => {
            // Cannot push through LIMIT (changes which rows survive).
            let inner = push_filters(plan);
            wrap_filter(inner, conjs)
        }
        // A key-only aggregate (DISTINCT) outputs its group keys: a
        // conjunct over them keeps the same groups below it.
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } if aggs.is_empty() => {
            let mut pushed = conjs;
            for c in &mut pushed {
                substitute_cols(c, &group);
            }
            LogicalPlan::Aggregate {
                input: Box::new(push_conjuncts(*input, pushed)),
                group,
                aggs,
                schema,
            }
        }
        other => {
            let inner = push_filters(other);
            wrap_filter(inner, conjs)
        }
    }
}

/// The one-input consequence of a conjunct kept above an inner join: for
/// `D1 OR … OR Dk` where every `Di` has an atom (an `AND` operand) reading
/// only columns `side` accepts, the disjunction over `i` of those atoms'
/// conjunction. The conjunct implies it — a row passing `Di` passes each of
/// its atoms — so filtering that input with it drops only rows the
/// conjunct would drop after the join; the conjunct itself stays. `None`
/// when the conjunct is no disjunction or some `Di` reads the other input
/// only.
fn side_consequence(c: &BExpr, side: impl Fn(usize) -> bool) -> Option<BExpr> {
    let mut disjuncts = Vec::new();
    operands(c, BinOp::Or, &mut disjuncts);
    if disjuncts.len() < 2 {
        return None;
    }
    let mut terms: Vec<BExpr> = Vec::with_capacity(disjuncts.len());
    for d in disjuncts {
        let mut atoms = Vec::new();
        operands(d, BinOp::And, &mut atoms);
        let local = atoms
            .into_iter()
            .filter(|a| {
                let cols = cols_of(a);
                !cols.is_empty() && cols.iter().all(|&i| side(i))
            })
            .cloned()
            .collect();
        let term = conjoin(local)?;
        if !terms.contains(&term) {
            terms.push(term);
        }
    }
    terms.into_iter().reduce(|acc, t| BExpr::Bin {
        op: BinOp::Or,
        l: Box::new(acc),
        r: Box::new(t),
    })
}

fn push_conjuncts_opt(plan: LogicalPlan, conjs: Vec<BExpr>) -> LogicalPlan {
    if conjs.is_empty() {
        push_filters(plan)
    } else {
        push_conjuncts(plan, conjs)
    }
}

fn wrap_filter(plan: LogicalPlan, conjs: Vec<BExpr>) -> LogicalPlan {
    match conjoin(conjs) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(plan),
            pred,
        },
        None => plan,
    }
}

/// Replaces `Col(i)` with `exprs[i]` (pushdown through projections).
fn substitute_cols(e: &mut BExpr, exprs: &[BExpr]) {
    match e {
        BExpr::Col(i) => *e = exprs[*i].clone(),
        _ => e.for_each_child_mut(|c| substitute_cols(c, exprs)),
    }
}

// ---------------- projection pruning ----------------

/// Where each column of a plan went when it was pruned: `map[old]` is the
/// column's new position, `None` when it was dropped. One entry per column
/// of the plan before pruning.
type ColMap = Vec<Option<usize>>;

/// The [`ColMap`] of keeping the ascending positions `kept` of `width`
/// columns.
fn keep_map(width: usize, kept: &[usize]) -> ColMap {
    let mut map = vec![None; width];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    map
}

/// Rewrites `e`'s columns through `map`.
fn remap(e: &mut BExpr, map: &ColMap) {
    e.remap_columns(&|i| map[i].expect("pruning keeps every column read above it"));
}

/// Rewrites `plan` to produce only the columns in `required` (and those it
/// cannot drop). Returns the new plan and where its old columns went.
fn prune(plan: LogicalPlan, required: &[usize]) -> (LogicalPlan, ColMap) {
    let mut req: Vec<usize> = required.to_vec();
    req.sort_unstable();
    req.dedup();
    // A leaf pruned to zero columns would lose its row count (batches carry
    // no explicit length), silently emptying `COUNT(*)`-style aggregates:
    // keep one column.
    if req.is_empty()
        && matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Values { .. })
        && !plan.schema().is_empty()
    {
        req.push(0);
    }
    let keep_fields =
        |schema: &Schema| Schema::new(req.iter().map(|&i| schema.fields[i].clone()).collect());
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
            pred,
        } => {
            let kept = req
                .iter()
                .map(|&i| projection.as_ref().map_or(i, |p| p[i]))
                .collect();
            let scan = LogicalPlan::Scan {
                table,
                schema: keep_fields(&schema),
                projection: Some(kept),
                // The scan predicate addresses the stored table directly,
                // so projection pruning never touches it.
                pred,
            };
            (scan, keep_map(schema.len(), &req))
        }
        LogicalPlan::Values { schema, rows } => {
            let rows = rows
                .into_iter()
                .map(|r| req.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let values = LogicalPlan::Values {
                schema: keep_fields(&schema),
                rows,
            };
            (values, keep_map(schema.len(), &req))
        }
        // Filter, Sort and Limit pass their input's columns
        // through: they keep what is required plus what they read, and
        // report their input's map.
        LogicalPlan::Filter { input, mut pred } => {
            pred.columns_used(&mut req);
            let (input, map) = prune(*input, &req);
            remap(&mut pred, &map);
            let input = Box::new(input);
            (LogicalPlan::Filter { input, pred }, map)
        }
        LogicalPlan::Sort { input, mut keys } => {
            for (k, _) in &keys {
                k.columns_used(&mut req);
            }
            let (input, map) = prune(*input, &req);
            for (k, _) in &mut keys {
                remap(k, &map);
            }
            let input = Box::new(input);
            (LogicalPlan::Sort { input, keys }, map)
        }
        LogicalPlan::Limit { input, n } => {
            let (input, map) = prune(*input, &req);
            let input = Box::new(input);
            (LogicalPlan::Limit { input, n }, map)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut kept_exprs: Vec<BExpr> = req.iter().map(|&i| exprs[i].clone()).collect();
            let mut need = Vec::new();
            for e in &kept_exprs {
                e.columns_used(&mut need);
            }
            let (new_input, map) = prune(*input, &need);
            for e in &mut kept_exprs {
                remap(e, &map);
            }
            // A projection over a projection is one projection when either
            // only renames or reorders (nothing is evaluated twice): the
            // rule-per-CTE chains the binder splices in stack several.
            let bare = |es: &[BExpr]| es.iter().all(|e| matches!(e, BExpr::Col(_)));
            let new_input = match new_input {
                LogicalPlan::Project { input, exprs, .. } if bare(&kept_exprs) || bare(&exprs) => {
                    for e in &mut kept_exprs {
                        substitute_cols(e, &exprs);
                    }
                    input
                }
                other => Box::new(other),
            };
            let project = LogicalPlan::Project {
                input: new_input,
                exprs: kept_exprs,
                schema: keep_fields(&schema),
            };
            (project, keep_map(exprs.len(), &req))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            mut left_keys,
            mut right_keys,
            mut residual,
            build_left,
            schema: _,
        } => {
            let lw = left.schema().len();
            let semi = matches!(kind, JKind::Semi | JKind::Anti);
            let mut lneed: Vec<usize> = Vec::new();
            let mut rneed: Vec<usize> = Vec::new();
            let residual_cols = residual.as_ref().map(cols_of).unwrap_or_default();
            for &i in req.iter().chain(&residual_cols) {
                if i < lw {
                    lneed.push(i);
                } else {
                    rneed.push(i - lw);
                }
            }
            for k in &left_keys {
                k.columns_used(&mut lneed);
            }
            for k in &right_keys {
                k.columns_used(&mut rneed);
            }
            // A keyless semi/anti join that reads no right column needs only
            // the right input's row count: keep one column if it has any.
            if semi && rneed.is_empty() && right_keys.is_empty() && !right.schema().is_empty() {
                rneed.push(0);
            }
            let (left, lmap) = prune(*left, &lneed);
            let (right, rmap) = prune(*right, &rneed);
            let new_lw = left.schema().len();
            for k in &mut left_keys {
                remap(k, &lmap);
            }
            for k in &mut right_keys {
                remap(k, &rmap);
            }
            // The residual reads left ++ right, semi/anti joins included.
            let shifted = rmap.iter().map(|n| n.map(|n| new_lw + n));
            let joined: ColMap = lmap.iter().copied().chain(shifted).collect();
            if let Some(r) = &mut residual {
                remap(r, &joined);
            }
            let (schema, map) = if semi {
                (left.schema().clone(), lmap)
            } else {
                (left.schema().concat(right.schema()), joined)
            };
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            };
            (join, map)
        }
        LogicalPlan::Aggregate {
            input,
            mut group,
            mut aggs,
            schema,
        } => {
            // Group keys and aggregates all stay (grouping semantics); prune
            // only the input.
            let mut need = Vec::new();
            for e in group
                .iter()
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            {
                e.columns_used(&mut need);
            }
            let (input, map) = prune(*input, &need);
            for e in group
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
            {
                remap(e, &map);
            }
            let identity = (0..schema.len()).map(Some).collect();
            let aggregate = LogicalPlan::Aggregate {
                input: Box::new(input),
                group,
                aggs,
                schema,
            };
            (aggregate, identity)
        }
        LogicalPlan::Window {
            input,
            mut order,
            schema,
        } => {
            // The appended row number requires nothing; the order keys do.
            let in_width = schema.len() - 1;
            let mut need: Vec<usize> = req.iter().filter(|&&i| i < in_width).copied().collect();
            for (k, _) in &order {
                k.columns_used(&mut need);
            }
            let (input, mut map) = prune(*input, &need);
            for (k, _) in &mut order {
                remap(k, &map);
            }
            let mut fields = input.schema().fields.clone();
            fields.push(schema.fields[in_width].clone());
            map.push(Some(fields.len() - 1));
            let window = LogicalPlan::Window {
                input: Box::new(input),
                order,
                schema: Schema::new(fields),
            };
            (window, map)
        }
    }
}

// ---------------- scan-predicate sinking ----------------

/// Folds `Filter(Scan)` into the scan node itself, rewriting the predicate
/// into the stored table's column space. The executor can then consult zone
/// maps before materializing anything.
pub fn sink_scan_filters(plan: LogicalPlan) -> LogicalPlan {
    map_inputs(plan, &|p| match p {
        LogicalPlan::Filter { input, pred } => match *input {
            LogicalPlan::Scan {
                table,
                schema,
                projection,
                pred: existing,
            } => {
                let mut stored_pred = pred;
                if let Some(proj) = &projection {
                    stored_pred.remap_columns(&|i| proj[i]);
                }
                let pred = Some(match existing {
                    Some(old) => BExpr::Bin {
                        op: BinOp::And,
                        l: Box::new(old),
                        r: Box::new(stored_pred),
                    },
                    None => stored_pred,
                });
                LogicalPlan::Scan {
                    table,
                    schema,
                    projection,
                    pred,
                }
            }
            other => LogicalPlan::Filter {
                input: Box::new(other),
                pred,
            },
        },
        other => other,
    })
}

/// Rebuilds `plan` with `f` applied bottom-up to every node.
fn map_inputs(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    f(plan.map_children(|c| map_inputs(c, f)))
}

// ---------------- semi/anti-join sinking ----------------

/// Moves each semi/anti join into the input of the inner/cross join below
/// it (through bare-column projections) that holds every column its keys
/// and residual read, for as long as that join does not shrink the stream
/// (`estimate(join) ≥ SINK_KEEP · estimate(input)`): the semi then probes
/// no more rows than above the join, up to the estimates' error, and
/// nothing above it sees more. Sound because a semi/anti
/// join keeps or drops each left row by that row's values alone, and an
/// inner join carries them unchanged. Keyless (uncorrelated `EXISTS`)
/// joins read no column and stay.
pub fn sink_semi_joins(plan: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
    map_inputs(plan, &|p| match p {
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JKind::Semi | JKind::Anti),
            left_keys,
            right_keys,
            residual,
            build_left,
            ..
        } => {
            let semi = SemiJoin {
                lw: left.schema().len(),
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                build_left,
            };
            semi.sink_into(*left, ctx)
        }
        other => other,
    })
}

/// A semi/anti join detached from its left input; `lw` is that input's
/// width (the residual reads the right input from `lw` on).
struct SemiJoin {
    lw: usize,
    right: Box<LogicalPlan>,
    kind: JKind,
    left_keys: Vec<BExpr>,
    right_keys: Vec<BExpr>,
    residual: Option<BExpr>,
    build_left: bool,
}

impl SemiJoin {
    /// Left-input columns the keys and residual read.
    fn probe_cols(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        for k in &self.left_keys {
            k.columns_used(&mut cols);
        }
        if let Some(r) = &self.residual {
            cols.extend(cols_of(r).into_iter().filter(|&i| i < self.lw));
        }
        cols
    }

    /// Re-addresses the left-input columns through `f` for a new left
    /// input of width `lw`.
    fn remap_left(&mut self, lw: usize, f: impl Fn(usize) -> usize) {
        for k in &mut self.left_keys {
            k.remap_columns(&f);
        }
        let old = self.lw;
        if let Some(r) = &mut self.residual {
            r.remap_columns(&|i| if i < old { f(i) } else { lw + (i - old) });
        }
        self.lw = lw;
    }

    /// The semi join over `input`, placed as deep as [`sink_target`] allows.
    fn sink_into(mut self, input: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
        let Some(into_right) = sink_target(&input, &self.probe_cols(), ctx) else {
            return self.over(input);
        };
        match input {
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                self.remap_left(input.schema().len(), |i| match exprs[i] {
                    BExpr::Col(j) => j,
                    _ => unreachable!("sink_target passes only columns projected bare"),
                });
                LogicalPlan::Project {
                    input: Box::new(self.sink_into(*input, ctx)),
                    exprs,
                    schema,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            } => {
                let lw = left.schema().len();
                let (left, right) = if into_right {
                    self.remap_left(right.schema().len(), |i| i - lw);
                    (left, Box::new(self.sink_into(*right, ctx)))
                } else {
                    self.remap_left(lw, |i| i);
                    (Box::new(self.sink_into(*left, ctx)), right)
                };
                LogicalPlan::Join {
                    left,
                    right,
                    kind,
                    left_keys,
                    right_keys,
                    residual,
                    build_left,
                    schema,
                }
            }
            other => self.over(other),
        }
    }

    /// The semi join with `input` as its left input, here.
    fn over(self, input: LogicalPlan) -> LogicalPlan {
        let schema = input.schema().clone();
        LogicalPlan::Join {
            left: Box::new(input),
            right: self.right,
            kind: self.kind,
            left_keys: self.left_keys,
            right_keys: self.right_keys,
            residual: self.residual,
            build_left: self.build_left,
            schema,
        }
    }
}

/// Share of an input's estimated rows a join must keep for a semi join to
/// sink below it. A join that keeps them all does not shrink the stream;
/// the slack absorbs the distinct-count sketch's error (`k = 256`, a few
/// percent), which puts a key–foreign-key join a little under its foreign
/// side (Q18's `orders ⋈ customer`: 74.6 K against 75 K at SF 0.05). A
/// join that does filter — the one below Q21's semis, 1.8 K against 45 K —
/// keeps the semi above it.
const SINK_KEEP: f64 = 0.9;

/// Whether a semi join reading `cols` of `input` can move below it: through
/// projections that pass those columns through bare, down to an inner/cross
/// join one of whose inputs holds all of `cols` and is estimated at most
/// `1 / SINK_KEEP` times the join's output. `Some(true)` when that input is
/// the right one.
fn sink_target(input: &LogicalPlan, cols: &[usize], ctx: &StatsCatalog<'_>) -> Option<bool> {
    if cols.is_empty() {
        return None;
    }
    match input {
        LogicalPlan::Project { input, exprs, .. } => {
            let mapped: Option<Vec<usize>> = cols
                .iter()
                .map(|&i| match exprs[i] {
                    BExpr::Col(j) => Some(j),
                    _ => None,
                })
                .collect();
            sink_target(input, &mapped?, ctx)
        }
        LogicalPlan::Join {
            left,
            right,
            kind: JKind::Inner | JKind::Cross,
            ..
        } => {
            let lw = left.schema().len();
            let side = if cols.iter().all(|&i| i < lw) {
                left
            } else if cols.iter().all(|&i| i >= lw) {
                right
            } else {
                return None;
            };
            (estimate(input, ctx) >= SINK_KEEP * estimate(side, ctx)).then_some(cols[0] >= lw)
        }
        _ => None,
    }
}

// ---------------- statistics catalog & cardinality estimation ----------------

/// Assumed row count for tables without statistics (CTE temps and the like).
const DEFAULT_ROWS: f64 = 1000.0;
/// Default selectivity of an equality predicate without statistics.
const SEL_EQ: f64 = 0.1;
/// Default selectivity of a range predicate without statistics.
const SEL_RANGE: f64 = 0.3;
/// Default selectivity of any other predicate shape.
const SEL_OTHER: f64 = 0.25;
/// Cardinality shrink factor of a GROUP BY without key statistics.
const SEL_GROUP: f64 = 0.2;

/// A snapshot of per-table statistics the optimizer plans against: base
/// tables carry full [`TableStats`]; CTE results are registered with their
/// estimated row counts as each CTE plan is optimized.
#[derive(Debug, Default)]
pub struct StatsCatalog<'a> {
    tables: FxHashMap<String, (f64, Option<&'a TableStats>)>,
}

impl<'a> StatsCatalog<'a> {
    /// A catalog with no information (every lookup uses defaults).
    pub fn empty() -> StatsCatalog<'static> {
        StatsCatalog::default()
    }

    /// Registers a base table's statistics.
    pub fn add_table(&mut self, name: &str, stats: &'a TableStats) {
        self.tables
            .insert(name.to_lowercase(), (stats.row_count as f64, Some(stats)));
    }

    /// Registers (or overrides) a bare row-count estimate, e.g. for a CTE
    /// whose plan was just optimized.
    pub fn set_rows(&mut self, name: &str, rows: f64) {
        self.tables
            .insert(name.to_lowercase(), (rows.max(0.0), None));
    }

    fn lookup(&self, name: &str) -> (f64, Option<&'a TableStats>) {
        self.tables
            .get(&name.to_lowercase())
            .copied()
            .unwrap_or((DEFAULT_ROWS, None))
    }
}

/// Estimated output cardinality of a plan node.
pub fn estimate(plan: &LogicalPlan, ctx: &StatsCatalog<'_>) -> f64 {
    match plan {
        LogicalPlan::Scan { table, pred, .. } => {
            let (rows, stats) = ctx.lookup(table);
            match pred {
                Some(p) => (rows * selectivity(p, stats)).max(1.0).min(rows.max(1.0)),
                None => rows,
            }
        }
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
        LogicalPlan::Filter { input, pred } => {
            (estimate(input, ctx) * selectivity(pred, None)).max(1.0)
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Window { input, .. } => estimate(input, ctx),
        LogicalPlan::Limit { input, n } => estimate(input, ctx).min(*n as f64),
        LogicalPlan::Aggregate { input, group, .. } => {
            if group.is_empty() {
                1.0
            } else {
                (estimate(input, ctx) * SEL_GROUP).max(1.0)
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            ..
        } => {
            let l = estimate(left, ctx);
            let r = estimate(right, ctx);
            // Key-domain size: the largest NDV among key pairs whose columns
            // trace back to a base-table scan.
            let divisor = left_keys
                .iter()
                .zip(right_keys)
                .filter_map(|(lk, rk)| {
                    let dl = expr_ndv(left, lk, ctx);
                    let dr = expr_ndv(right, rk, ctx);
                    match (dl, dr) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (one, other) => one.or(other),
                    }
                })
                .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.max(d))));
            join_estimate(*kind, !left_keys.is_empty(), l, r, divisor)
        }
    }
}

/// Textbook join-cardinality estimate `|L|·|R| / V(key)`: `divisor` is the
/// key domain size (max NDV across key pairs) when statistics could resolve
/// it; otherwise the larger input stands in for the domain (the "key side
/// covers the domain" assumption).
fn join_estimate(kind: JKind, has_keys: bool, l: f64, r: f64, divisor: Option<f64>) -> f64 {
    let inner = if has_keys {
        let d = divisor.unwrap_or_else(|| l.max(r)).max(1.0);
        // Lower bound before upper: an empty input makes l*r = 0, and
        // f64::clamp(1.0, 0.0) would panic on the inverted range.
        (l * r / d).max(1.0).min((l * r).max(1.0))
    } else {
        (l * r).max(1.0)
    };
    match kind {
        JKind::Inner | JKind::Cross => inner,
        JKind::Left => inner.max(l),
        JKind::Right => inner.max(r),
        JKind::Full => inner.max(l).max(r),
        JKind::Semi | JKind::Anti => (l * 0.5).max(1.0),
    }
}

/// Distinct-count estimate of a bare-column key expression, traced through
/// filters, projections and joins down to a base-table scan. `None` when the
/// column's provenance leaves the statistics' reach. Pushed-down filters do
/// not scale the NDV (domain preservation: join keys keep their domain).
fn expr_ndv(plan: &LogicalPlan, key: &BExpr, ctx: &StatsCatalog<'_>) -> Option<f64> {
    match key {
        BExpr::Col(i) => col_ndv(plan, *i, ctx),
        _ => None,
    }
}

fn col_ndv(plan: &LogicalPlan, i: usize, ctx: &StatsCatalog<'_>) -> Option<f64> {
    match plan {
        LogicalPlan::Scan {
            table, projection, ..
        } => {
            let (_, stats) = ctx.lookup(table);
            let stored = projection.as_ref().map_or(i, |p| p[i]);
            Some(stats?.columns.get(stored)?.distinct_estimate())
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => col_ndv(input, i, ctx),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(i)? {
            BExpr::Col(j) => col_ndv(input, *j, ctx),
            _ => None,
        },
        LogicalPlan::Join { left, right, .. } => {
            let lw = left.schema().len();
            if i < lw {
                col_ndv(left, i, ctx)
            } else {
                col_ndv(right, i - lw, ctx)
            }
        }
        _ => None,
    }
}

/// Estimated fraction of rows satisfying `pred`.
///
/// With `stats` (scan predicates, where column indices address the stored
/// table) equality uses `1/NDV`, ranges interpolate into the `[min, max]`
/// span, and NULL tests use the null fraction; without stats each shape falls
/// back to a fixed default.
pub fn selectivity(pred: &BExpr, stats: Option<&TableStats>) -> f64 {
    let s = match pred {
        BExpr::Lit(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        BExpr::Bin { op: BinOp::And, .. } => {
            // Conjuncts are taken as independent, except the two bounds of an
            // interval: `a <= c AND c < b` keeps P(c < b) − P(c < a) of the
            // column's span, not the product of two halves.
            let mut conjs = Vec::new();
            operands(pred, BinOp::And, &mut conjs);
            let mut s = 1.0;
            // Per column: the tightest lower-bound and upper-bound shares.
            let mut bounds: FxHashMap<usize, (f64, f64)> = FxHashMap::default();
            for c in conjs {
                match range_bound(c, stats) {
                    Some((col, lower, sel)) => {
                        let b = bounds.entry(col).or_insert((1.0, 1.0));
                        let side = if lower { &mut b.0 } else { &mut b.1 };
                        *side = side.min(sel);
                    }
                    None => s *= selectivity(c, stats),
                }
            }
            bounds
                .values()
                .fold(s, |s, (lo, hi)| s * (lo + hi - 1.0).max(0.0))
        }
        BExpr::Bin {
            op: BinOp::Or,
            l,
            r,
        } => selectivity(l, stats) + selectivity(r, stats),
        BExpr::Not(e) => 1.0 - selectivity(e, stats),
        BExpr::Bin { op, l, r } => match (col_of(l), lit_of(r), col_of(r), lit_of(l)) {
            (Some(c), Some(v), _, _) => cmp_selectivity(*op, c, v, stats),
            (_, _, Some(c), Some(v)) => cmp_selectivity(op.mirrored(), c, v, stats),
            _ => match op {
                BinOp::Eq => SEL_EQ,
                BinOp::Ne => 1.0 - SEL_EQ,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => SEL_RANGE,
                _ => SEL_OTHER,
            },
        },
        BExpr::InList { e, list, negated } => {
            let eq = col_of(e)
                .map(|c| eq_selectivity(c, stats))
                .unwrap_or(SEL_EQ);
            let s = eq * list.len() as f64;
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        BExpr::IsNull { e, negated } => {
            let frac = match (col_of(e), stats) {
                (Some(c), Some(st)) if c < st.columns.len() && st.row_count > 0 => {
                    st.columns[c].null_count as f64 / st.row_count as f64
                }
                _ => 0.05,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        BExpr::Like { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        _ => SEL_OTHER,
    };
    s.clamp(0.0, 1.0)
}

/// The operands of a chain of `op` (`AND` → conjuncts, `OR` → disjuncts).
fn operands<'e>(e: &'e BExpr, op: BinOp, out: &mut Vec<&'e BExpr>) {
    match e {
        BExpr::Bin { op: o, l, r } if *o == op => {
            operands(l, op, out);
            operands(r, op, out);
        }
        other => out.push(other),
    }
}

fn col_of(e: &BExpr) -> Option<usize> {
    match e {
        BExpr::Col(i) => Some(*i),
        _ => None,
    }
}

fn lit_of(e: &BExpr) -> Option<&Value> {
    match e {
        BExpr::Lit(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

fn eq_selectivity(col: usize, stats: Option<&TableStats>) -> f64 {
    match stats {
        Some(st) if col < st.columns.len() => 1.0 / st.columns[col].distinct_estimate(),
        _ => SEL_EQ,
    }
}

fn cmp_selectivity(op: BinOp, col: usize, lit: &Value, stats: Option<&TableStats>) -> f64 {
    match op {
        BinOp::Eq => eq_selectivity(col, stats),
        BinOp::Ne => 1.0 - eq_selectivity(col, stats),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            range_selectivity(op, col, lit, stats).unwrap_or(SEL_RANGE)
        }
        _ => SEL_OTHER,
    }
}

/// Share of the column's `[min, max]` span a one-sided range keeps, when
/// the statistics can place the literal in it.
fn range_selectivity(
    op: BinOp,
    col: usize,
    lit: &Value,
    stats: Option<&TableStats>,
) -> Option<f64> {
    let cs = stats?.columns.get(col)?;
    let (min, max, v) = (cs.min.as_f64()?, cs.max.as_f64()?, lit.as_f64()?);
    if max <= min {
        return None;
    }
    let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
    Some(match op {
        BinOp::Lt | BinOp::Le => frac,
        _ => 1.0 - frac,
    })
}

/// A column-vs-literal range conjunct the statistics can interpolate:
/// `(column, is a lower bound, selectivity)`.
fn range_bound(pred: &BExpr, stats: Option<&TableStats>) -> Option<(usize, bool, f64)> {
    let BExpr::Bin { op, l, r } = pred else {
        return None;
    };
    let (op, col, lit) = match (col_of(l), lit_of(r), col_of(r), lit_of(l)) {
        (Some(c), Some(v), _, _) => (*op, c, v),
        (_, _, Some(c), Some(v)) => (op.mirrored(), c, v),
        _ => return None,
    };
    let lower = match op {
        BinOp::Gt | BinOp::Ge => true,
        BinOp::Lt | BinOp::Le => false,
        _ => return None,
    };
    Some((col, lower, range_selectivity(op, col, lit, stats)?))
}

// ---------------- cost-based join ordering ----------------

/// Largest join region the reorderer flattens (inputs are tracked in a
/// 64-bit set; regions beyond this are left untouched).
const MAX_REGION_INPUTS: usize = 32;
/// A rewritten region must be at least this much cheaper to be kept.
const COST_IMPROVEMENT: f64 = 0.99;

/// Greedy cost-based join-order rewrite.
///
/// Contiguous regions of inner/cross joins (and the filters between them)
/// are flattened into base inputs plus equi-join edges, then rebuilt
/// left-deep: start from the cheapest connected pair, then repeatedly attach
/// the input that minimizes estimated build + output cost. Outer joins,
/// semi/anti joins, aggregates — anything that is not an inner/cross join —
/// are barriers: they become atomic region inputs and their subtrees are
/// reordered independently. The rewrite keeps the original plan unless the
/// new order's estimated cost strictly improves, and re-establishes the
/// original output column order with a closing projection.
pub fn reorder_joins(plan: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            kind: JKind::Inner | JKind::Cross,
            ..
        } if region_size(&plan) <= MAX_REGION_INPUTS => reorder_region(plan, ctx),
        // Top-down, so a nested region is flattened from its topmost join.
        other => other.map_children(|c| reorder_joins(c, ctx)),
    }
}

/// Number of base inputs an inner/cross-join region would flatten into.
/// Oversized regions (beyond the input bitmask) are skipped whole; their
/// nested sub-regions still get visited through the generic recursion.
fn region_size(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JKind::Inner | JKind::Cross,
            ..
        } => region_size(left) + region_size(right),
        LogicalPlan::Filter { input, .. }
            if matches!(
                **input,
                LogicalPlan::Join {
                    kind: JKind::Inner | JKind::Cross,
                    ..
                }
            ) =>
        {
            region_size(input)
        }
        _ => 1,
    }
}

/// One base input of a flattened join region, with its column span in the
/// region's global (original concatenation) column space.
struct RegionInput {
    base: usize,
    width: usize,
    plan: LogicalPlan,
}

/// One equi-join edge between region inputs, in global column space.
struct Edge {
    l: BExpr,
    r: BExpr,
}

/// Estimated cost of every join in a subtree: hash build (the side estimated
/// smaller — [`choose_build_sides`] plans exactly that side for the kinds a
/// region holds) plus output cardinality.
fn plan_cost(plan: &LogicalPlan, ctx: &StatsCatalog<'_>) -> f64 {
    let own = match plan {
        LogicalPlan::Join { left, right, .. } => {
            let l = estimate(left, ctx);
            let r = estimate(right, ctx);
            l.min(r) + estimate(plan, ctx)
        }
        _ => 0.0,
    };
    own + plan
        .children()
        .iter()
        .map(|c| plan_cost(c, ctx))
        .sum::<f64>()
}

fn reorder_region(plan: LogicalPlan, ctx: &StatsCatalog<'_>) -> LogicalPlan {
    let orig_schema = plan.schema().clone();
    let total = orig_schema.len();
    let orig_cost = plan_cost(&plan, ctx);
    // Keep the original tree (bushy shapes included) for the no-improvement
    // path; only its children still need the recursive rewrite then.
    let original = plan.clone();
    let mut inputs: Vec<RegionInput> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut filters: Vec<BExpr> = Vec::new();
    flatten_region(plan, 0, &mut inputs, &mut edges, &mut filters, ctx);
    let n = inputs.len();
    let identity: Vec<usize> = (0..n).collect();
    if (2..=MAX_REGION_INPUTS).contains(&n) {
        let est: Vec<f64> = inputs.iter().map(|i| estimate(&i.plan, ctx)).collect();
        let order = greedy_order(&inputs, &edges, &est, ctx);
        if order != identity {
            let candidate = build_region(&order, &inputs, &edges, &filters, total, &orig_schema);
            if plan_cost(&candidate, ctx) < orig_cost * COST_IMPROVEMENT {
                return candidate;
            }
        }
    }
    // No strict improvement: return the original shape; sub-regions and
    // barrier subtrees are still rewritten through the child recursion.
    original.map_children(|c| reorder_joins(c, ctx))
}

/// Flattens a maximal inner/cross-join region into base inputs, global-space
/// equi edges, and global-space residual filter conjuncts. Non-region nodes
/// become inputs after being reordered recursively themselves.
fn flatten_region(
    plan: LogicalPlan,
    base: usize,
    inputs: &mut Vec<RegionInput>,
    edges: &mut Vec<Edge>,
    filters: &mut Vec<BExpr>,
    ctx: &StatsCatalog<'_>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JKind::Inner | JKind::Cross,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let lw = left.schema().len();
            let rbase = base + lw;
            flatten_region(*left, base, inputs, edges, filters, ctx);
            flatten_region(*right, rbase, inputs, edges, filters, ctx);
            for (mut lk, mut rk) in left_keys.into_iter().zip(right_keys) {
                lk.remap_columns(&|i| i + base);
                rk.remap_columns(&|i| i + rbase);
                edges.push(Edge { l: lk, r: rk });
            }
            if let Some(mut res) = residual {
                res.remap_columns(&|i| i + base);
                split_and(res, filters);
            }
        }
        LogicalPlan::Filter { input, pred }
            if matches!(
                *input,
                LogicalPlan::Join {
                    kind: JKind::Inner | JKind::Cross,
                    ..
                }
            ) =>
        {
            let mut p = pred;
            p.remap_columns(&|i| i + base);
            split_and(p, filters);
            flatten_region(*input, base, inputs, edges, filters, ctx);
        }
        other => {
            let width = other.schema().len();
            inputs.push(RegionInput {
                base,
                width,
                plan: reorder_joins(other, ctx),
            });
        }
    }
}

/// Bitmask of region inputs whose span contains any of `cols`.
fn input_mask(cols: &[usize], inputs: &[RegionInput]) -> u64 {
    let mut mask = 0u64;
    for &c in cols {
        for (i, inp) in inputs.iter().enumerate() {
            if c >= inp.base && c < inp.base + inp.width {
                mask |= 1 << i;
                break;
            }
        }
    }
    mask
}

/// Greedy join order: cheapest connected pair first, then repeatedly attach
/// the input minimizing estimated build-side + output cost. Ties keep the
/// original (flatten) order so symmetric estimates never churn plans.
fn greedy_order(
    inputs: &[RegionInput],
    edges: &[Edge],
    est: &[f64],
    ctx: &StatsCatalog<'_>,
) -> Vec<usize> {
    let n = inputs.len();
    let identity: Vec<usize> = (0..n).collect();
    if edges.is_empty() {
        return identity;
    }
    let masks: Vec<(u64, u64)> = edges
        .iter()
        .map(|e| {
            (
                input_mask(&cols_of(&e.l), inputs),
                input_mask(&cols_of(&e.r), inputs),
            )
        })
        .collect();
    // Key-domain (NDV) divisor per edge, resolved against the base inputs.
    let edge_div: Vec<Option<f64>> = edges
        .iter()
        .map(|e| {
            let side = |expr: &BExpr| -> Option<f64> {
                let cols = cols_of(expr);
                let [g] = cols[..] else { return None };
                let inp = inputs
                    .iter()
                    .find(|i| g >= i.base && g < i.base + i.width)?;
                expr_ndv_local(&inp.plan, expr, g, inp.base, ctx)
            };
            match (side(&e.l), side(&e.r)) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (one, other) => one.or(other),
            }
        })
        .collect();
    // Strongest (max-NDV) edge between the included set and one candidate.
    let pair_div = |inc: u64, kb: u64| -> (bool, Option<f64>) {
        let mut connected = false;
        let mut div: Option<f64> = None;
        for ((lm, rm), d) in masks.iter().zip(&edge_div) {
            let usable =
                (*lm != 0 && lm & !inc == 0 && *rm != 0 && rm & !(inc | kb) == 0 && rm & kb != 0)
                    || (*rm != 0
                        && rm & !inc == 0
                        && *lm != 0
                        && lm & !(inc | kb) == 0
                        && lm & kb != 0);
            if usable {
                connected = true;
                if let Some(d) = d {
                    div = Some(div.map_or(*d, |a: f64| a.max(*d)));
                }
            }
        }
        (connected, div)
    };
    // Completes a greedy order from a start pair, returning (order, cost):
    // each step attaches the input minimizing build-side + output estimate.
    let complete = |a: usize, b: usize| -> (Vec<usize>, f64) {
        let mut order = vec![a, b];
        let mut included: u64 = (1 << a) | (1 << b);
        let (_, start_div) = pair_div(1 << a, 1 << b);
        let mut cur_est = join_estimate(JKind::Inner, true, est[a], est[b], start_div);
        let mut total = est[a].min(est[b]) + cur_est;
        while order.len() < n {
            let mut best: Option<(f64, usize, f64)> = None; // (cost, input, out)
            for (k, &k_est) in est.iter().enumerate() {
                if included & (1 << k) != 0 {
                    continue;
                }
                let kb = 1u64 << k;
                let (connected, div) = pair_div(included, kb);
                let out = join_estimate(JKind::Inner, connected, cur_est, k_est, div);
                let cost = cur_est.min(k_est) + out;
                if best.map_or(true, |(c, bk, _)| cost < c || (cost == c && k < bk)) {
                    best = Some((cost, k, out));
                }
            }
            let (cost, k, out) = best.expect("region has >= 1 remaining input");
            order.push(k);
            included |= 1 << k;
            cur_est = out;
            total += cost;
        }
        (order, total)
    };
    // Tournament over start pairs: a locally-cheapest first join can force a
    // huge input through a wide intermediate later (the classic greedy trap),
    // so every connected two-input pair seeds a full greedy order and the
    // cheapest complete order wins. Ties keep the earliest pair.
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut seen_pairs: Vec<(usize, usize)> = Vec::new();
    for (lm, rm) in &masks {
        if lm.count_ones() == 1 && rm.count_ones() == 1 && lm != rm {
            let (a, b) = (lm.trailing_zeros() as usize, rm.trailing_zeros() as usize);
            let (a, b) = (a.min(b), a.max(b));
            if seen_pairs.contains(&(a, b)) {
                continue;
            }
            seen_pairs.push((a, b));
            let (order, cost) = complete(a, b);
            if best.as_ref().map_or(true, |(c, _)| cost < *c) {
                best = Some((cost, order));
            }
        }
    }
    best.map_or(identity, |(_, order)| order)
}

/// NDV of a global-space bare-column edge expression within one region input.
fn expr_ndv_local(
    plan: &LogicalPlan,
    expr: &BExpr,
    global: usize,
    base: usize,
    ctx: &StatsCatalog<'_>,
) -> Option<f64> {
    match expr {
        BExpr::Col(_) => col_ndv(plan, global - base, ctx),
        _ => None,
    }
}

/// Rebuilds a flattened region left-deep in `order`, wiring each equi edge
/// and residual filter at the first join where all its inputs are available,
/// and restoring the original column order with a closing projection when the
/// order changed.
fn build_region(
    order: &[usize],
    inputs: &[RegionInput],
    edges: &[Edge],
    filters: &[BExpr],
    total: usize,
    orig_schema: &Schema,
) -> LogicalPlan {
    // Global column -> position in the current concatenation.
    let mut map: Vec<usize> = vec![usize::MAX; total];
    let first = &inputs[order[0]];
    for g in 0..first.width {
        map[first.base + g] = g;
    }
    let mut cur = first.plan.clone();
    let mut included: u64 = 1 << order[0];
    let mut edge_used = vec![false; edges.len()];
    let mut filter_used = vec![false; filters.len()];
    for &k in &order[1..] {
        let cand = &inputs[k];
        let lw = cur.schema().len();
        let avail = included | (1 << k);
        let in_cand = |g: usize| g >= cand.base && g < cand.base + cand.width;
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual_conjs: Vec<BExpr> = Vec::new();
        // Remap a global-space expression into the join output (cur ++ cand).
        let joint_remap = |e: &BExpr| {
            let mut e = e.clone();
            e.remap_columns(&|g| {
                if in_cand(g) {
                    lw + (g - cand.base)
                } else {
                    map[g]
                }
            });
            e
        };
        for (ei, edge) in edges.iter().enumerate() {
            if edge_used[ei] {
                continue;
            }
            let lm = input_mask(&cols_of(&edge.l), inputs);
            let rm = input_mask(&cols_of(&edge.r), inputs);
            if lm & !avail != 0 || rm & !avail != 0 {
                continue; // references an input not yet joined
            }
            edge_used[ei] = true;
            let kb = 1u64 << k;
            if lm & !included == 0 && rm & kb == rm && rm != 0 {
                // left side fully in current, right side fully in candidate
                left_keys.push(remap_into(&edge.l, &map));
                let mut rk = edge.r.clone();
                rk.remap_columns(&|g| g - cand.base);
                right_keys.push(rk);
            } else if rm & !included == 0 && lm & kb == lm && lm != 0 {
                right_keys.push({
                    let mut rk = edge.l.clone();
                    rk.remap_columns(&|g| g - cand.base);
                    rk
                });
                left_keys.push(remap_into(&edge.r, &map));
            } else {
                // Mixed-span equality: apply as a residual after the join.
                residual_conjs.push(BExpr::Bin {
                    op: BinOp::Eq,
                    l: Box::new(joint_remap(&edge.l)),
                    r: Box::new(joint_remap(&edge.r)),
                });
            }
        }
        for (fi, filt) in filters.iter().enumerate() {
            if filter_used[fi] {
                continue;
            }
            let fm = input_mask(&cols_of(filt), inputs);
            if fm & !avail == 0 {
                filter_used[fi] = true;
                residual_conjs.push(joint_remap(filt));
            }
        }
        let kind = if left_keys.is_empty() {
            JKind::Cross
        } else {
            JKind::Inner
        };
        let schema = cur.schema().concat(cand.plan.schema());
        cur = LogicalPlan::Join {
            left: Box::new(cur),
            right: Box::new(cand.plan.clone()),
            kind,
            left_keys,
            right_keys,
            residual: conjoin(residual_conjs),
            build_left: false,
            schema,
        };
        for g in 0..cand.width {
            map[cand.base + g] = lw + g;
        }
        included = avail;
    }
    // Restore the region's original output column order when it changed.
    if map.iter().enumerate().any(|(g, &p)| g != p) {
        cur = LogicalPlan::Project {
            exprs: (0..total).map(|g| BExpr::Col(map[g])).collect(),
            input: Box::new(cur),
            schema: orig_schema.clone(),
        };
    }
    cur
}

fn remap_into(e: &BExpr, map: &[usize]) -> BExpr {
    let mut e = e.clone();
    e.remap_columns(&|g| map[g]);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use pytond_common::{DType, Value};

    fn scan(cols: usize) -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(
                (0..cols)
                    .map(|i| Field::new(format!("c{i}"), DType::Int))
                    .collect(),
            ),
            projection: None,
            pred: None,
        }
    }

    fn col_eq_lit(i: usize, v: i64) -> BExpr {
        BExpr::Bin {
            op: BinOp::Eq,
            l: Box::new(BExpr::Col(i)),
            r: Box::new(BExpr::Lit(Value::Int(v))),
        }
    }

    /// A typed `Date` literal interpolates into the column's min/max span;
    /// the untyped string it was written as falls back to the fixed guess.
    #[test]
    fn range_selectivity_reads_date_literals() {
        let dates = pytond_common::Column::from_dates((0..1000).collect());
        let stats = TableStats::compute(&[&dates]);
        let typed = cmp_selectivity(BinOp::Lt, 0, &Value::Date(250), Some(&stats));
        assert!((typed - 250.0 / 999.0).abs() < 1e-9, "{typed}");
        let mirrored = selectivity(
            &BExpr::Bin {
                op: BinOp::Lt,
                l: Box::new(BExpr::Lit(Value::Date(250))),
                r: Box::new(BExpr::Col(0)),
            },
            Some(&stats),
        );
        assert!(
            (mirrored - (1.0 - 250.0 / 999.0)).abs() < 1e-9,
            "{mirrored}"
        );
        let untyped = Value::Str(pytond_common::date::format(250));
        assert_eq!(
            cmp_selectivity(BinOp::Lt, 0, &untyped, Some(&stats)),
            SEL_RANGE
        );
    }

    #[test]
    fn filter_pushes_into_join_sides() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(2)),
            right: Box::new(scan(2)),
            kind: JKind::Inner,
            left_keys: vec![BExpr::Col(0)],
            right_keys: vec![BExpr::Col(0)],
            residual: None,
            build_left: false,
            schema: scan(2).schema().concat(scan(2).schema()),
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            pred: BExpr::Bin {
                op: BinOp::And,
                l: Box::new(col_eq_lit(1, 5)), // left side
                r: Box::new(col_eq_lit(3, 7)), // right side
            },
        };
        let out = push_filters(filtered);
        // Top node is the join now; both sides gained filters.
        match out {
            LogicalPlan::Join { left, right, .. } => {
                assert!(matches!(*left, LogicalPlan::Filter { .. }));
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected join on top, got {}", other.name()),
        }
    }

    #[test]
    fn cross_join_promoted_to_inner() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            kind: JKind::Cross,
            left_keys: vec![],
            right_keys: vec![],
            residual: None,
            build_left: false,
            schema: scan(1).schema().concat(scan(1).schema()),
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            pred: BExpr::Bin {
                op: BinOp::Eq,
                l: Box::new(BExpr::Col(0)),
                r: Box::new(BExpr::Col(1)),
            },
        };
        match push_filters(filtered) {
            LogicalPlan::Join {
                kind, left_keys, ..
            } => {
                assert_eq!(kind, JKind::Inner);
                assert_eq!(left_keys.len(), 1);
            }
            other => panic!("expected join, got {}", other.name()),
        }
    }

    #[test]
    fn prune_narrows_scan() {
        let project = LogicalPlan::Project {
            input: Box::new(scan(10)),
            exprs: vec![BExpr::Col(7), BExpr::Col(2)],
            schema: Schema::new(vec![
                Field::new("a", DType::Int),
                Field::new("b", DType::Int),
            ]),
        };
        let out = optimize(project);
        fn find_scan(p: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(p, LogicalPlan::Scan { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_scan)
        }
        match find_scan(&out).unwrap() {
            LogicalPlan::Scan { projection, .. } => {
                assert_eq!(projection.as_deref(), Some(&[2usize, 7][..]));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn sink_scan_filters_folds_filter_into_scan() {
        let filtered = LogicalPlan::Filter {
            input: Box::new(scan(3)),
            pred: col_eq_lit(2, 9),
        };
        match sink_scan_filters(filtered) {
            LogicalPlan::Scan { pred: Some(p), .. } => {
                // Predicate columns address the stored table.
                assert_eq!(cols_of(&p), vec![2]);
            }
            other => panic!("expected scan with pred, got {}", other.name()),
        }
        // Through an existing projection the predicate remaps to stored space.
        let projected_scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![Field::new("c5", DType::Int)]),
            projection: Some(vec![5]),
            pred: None,
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(projected_scan),
            pred: col_eq_lit(0, 1),
        };
        match sink_scan_filters(filtered) {
            LogicalPlan::Scan { pred: Some(p), .. } => assert_eq!(cols_of(&p), vec![5]),
            other => panic!("expected scan with pred, got {}", other.name()),
        }
    }

    #[test]
    fn estimate_uses_table_stats() {
        use crate::stats::TableStats;
        use pytond_common::Column;
        let col = Column::from_i64((0..1000).collect());
        let stats = TableStats::compute(&[&col]);
        let mut ctx = StatsCatalog::empty();
        ctx.add_table("t", &stats);
        let plain = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![Field::new("c0", DType::Int)]),
            projection: None,
            pred: None,
        };
        assert_eq!(estimate(&plain, &ctx), 1000.0);
        // Equality selectivity ≈ 1/NDV.
        let eq = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![Field::new("c0", DType::Int)]),
            projection: None,
            pred: Some(col_eq_lit(0, 5)),
        };
        let est = estimate(&eq, &ctx);
        assert!((0.5..=10.0).contains(&est), "eq estimate {est}");
        // Unknown tables fall back to the default row count.
        assert_eq!(estimate(&scan(1), &ctx), 1000.0);
    }

    #[test]
    fn reorder_without_stats_keeps_plan_shape() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(2)),
            right: Box::new(scan(2)),
            kind: JKind::Inner,
            left_keys: vec![BExpr::Col(0)],
            right_keys: vec![BExpr::Col(0)],
            residual: None,
            build_left: false,
            schema: scan(2).schema().concat(scan(2).schema()),
        };
        let out = reorder_joins(join, &StatsCatalog::empty());
        // Identical estimates on both sides: identity order, no restore
        // projection, same scan sequence.
        assert_eq!(out.scan_order(), vec!["t", "t"]);
        assert!(matches!(out, LogicalPlan::Join { .. }), "{}", out.name());
    }

    #[test]
    fn filter_not_pushed_through_limit() {
        let limited = LogicalPlan::Limit {
            input: Box::new(scan(2)),
            n: 5,
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(limited),
            pred: col_eq_lit(0, 1),
        };
        match push_filters(filtered) {
            LogicalPlan::Filter { input, .. } => {
                assert!(matches!(*input, LogicalPlan::Limit { .. }));
            }
            other => panic!("expected filter above limit, got {}", other.name()),
        }
    }

    fn named_scan(table: &str, cols: usize) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            schema: Schema::new(
                (0..cols)
                    .map(|i| Field::new(format!("{table}{i}"), DType::Int))
                    .collect(),
            ),
            projection: None,
            pred: None,
        }
    }

    fn join(
        kind: JKind,
        left: LogicalPlan,
        right: LogicalPlan,
        keys: Option<(usize, usize)>,
    ) -> LogicalPlan {
        let schema = if matches!(kind, JKind::Semi | JKind::Anti) {
            left.schema().clone()
        } else {
            left.schema().concat(right.schema())
        };
        let (left_keys, right_keys) = match keys {
            Some((l, r)) => (vec![BExpr::Col(l)], vec![BExpr::Col(r)]),
            None => (vec![], vec![]),
        };
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            left_keys,
            right_keys,
            residual: None,
            build_left: false,
            schema,
        }
    }

    fn bin(op: BinOp, l: BExpr, r: BExpr) -> BExpr {
        BExpr::Bin {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    /// The predicate each scan of `plan` carries after the pushdown, by
    /// table name (`None` = no filter directly above it).
    fn scan_filters(plan: &LogicalPlan) -> Vec<(String, Option<BExpr>)> {
        let mut out = Vec::new();
        fn rec(p: &LogicalPlan, out: &mut Vec<(String, Option<BExpr>)>) {
            match p {
                LogicalPlan::Filter { input, pred } => {
                    if let LogicalPlan::Scan { table, .. } = &**input {
                        out.push((table.clone(), Some(pred.clone())));
                        return;
                    }
                }
                LogicalPlan::Scan { table, .. } => out.push((table.clone(), None)),
                _ => {}
            }
            p.children().into_iter().for_each(|c| rec(c, out));
        }
        rec(plan, &mut out);
        out
    }

    /// `(a.0 = 1 AND b.0 = 2) OR (a.0 = 3 AND b.0 = 4)` over `a ⋈ b`:
    /// each side gets its own disjunction, the original conjunct stays
    /// above the join, and a second pushdown adds nothing.
    #[test]
    fn cross_side_disjunction_derives_per_side_filters_once() {
        let j = join(
            JKind::Inner,
            named_scan("a", 2),
            named_scan("b", 2),
            Some((1, 1)),
        );
        let or = bin(
            BinOp::Or,
            bin(BinOp::And, col_eq_lit(0, 1), col_eq_lit(2, 2)),
            bin(BinOp::And, col_eq_lit(0, 3), col_eq_lit(2, 4)),
        );
        let once = push_filters(LogicalPlan::Filter {
            input: Box::new(j),
            pred: or.clone(),
        });
        let LogicalPlan::Filter { pred, .. } = &once else {
            panic!("the conjunct stays above the join:\n{}", once.explain());
        };
        assert_eq!(*pred, or);
        let a_side = bin(BinOp::Or, col_eq_lit(0, 1), col_eq_lit(0, 3));
        let b_side = bin(BinOp::Or, col_eq_lit(0, 2), col_eq_lit(0, 4));
        assert_eq!(
            scan_filters(&once),
            vec![("a".into(), Some(a_side)), ("b".into(), Some(b_side))]
        );
        let twice = push_filters(once.clone());
        assert_eq!(format!("{twice:?}"), format!("{once:?}"));
    }

    /// A disjunct with no atom local to a side leaves that side alone (the
    /// other side still gets its consequence); so does a cross-side atom,
    /// which is local to neither.
    #[test]
    fn no_derivation_when_a_disjunct_misses_the_side() {
        let j = join(JKind::Cross, named_scan("a", 2), named_scan("b", 2), None);
        // (a.0 = 1 AND b.0 = 2) OR b.1 = 5: `a` is missing from the second.
        let or = bin(
            BinOp::Or,
            bin(BinOp::And, col_eq_lit(0, 1), col_eq_lit(2, 2)),
            col_eq_lit(3, 5),
        );
        let out = push_filters(LogicalPlan::Filter {
            input: Box::new(j.clone()),
            pred: or,
        });
        let b_side = bin(BinOp::Or, col_eq_lit(0, 2), col_eq_lit(1, 5));
        assert_eq!(
            scan_filters(&out),
            vec![("a".into(), None), ("b".into(), Some(b_side))]
        );
        // (a.0 = b.0 AND b.1 = 1) OR a.1 = 2: the equality reads both.
        let or = bin(
            BinOp::Or,
            bin(
                BinOp::And,
                bin(BinOp::Eq, BExpr::Col(0), BExpr::Col(2)),
                col_eq_lit(3, 1),
            ),
            col_eq_lit(1, 2),
        );
        let out = push_filters(LogicalPlan::Filter {
            input: Box::new(j),
            pred: or,
        });
        assert_eq!(
            scan_filters(&out),
            vec![("a".into(), None), ("b".into(), None)]
        );
    }

    /// `Semi(Project(orders ⋈ lineitem), keys on orders)`: the join keeps
    /// every `orders` row (4 K lineitem rows over 1 K orders), so the semi
    /// moves through the bare projection onto the `orders` scan, its key
    /// re-addressed through the projection.
    #[test]
    fn semi_sinks_below_a_join_that_keeps_its_rows() {
        let mut ctx = StatsCatalog::empty();
        ctx.set_rows("orders", 1000.0);
        ctx.set_rows("lineitem", 4000.0);
        ctx.set_rows("big", 100.0);
        let j = join(
            JKind::Inner,
            named_scan("orders", 3),
            named_scan("lineitem", 2),
            Some((0, 0)),
        );
        let proj = LogicalPlan::Project {
            schema: Schema::new(vec![
                Field::new("l1", DType::Int),
                Field::new("o2", DType::Int),
            ]),
            exprs: vec![BExpr::Col(4), BExpr::Col(2)],
            input: Box::new(j),
        };
        let semi = join(JKind::Semi, proj, named_scan("big", 1), Some((1, 0)));
        let out = sink_semi_joins(semi, &ctx);
        let LogicalPlan::Project { input, .. } = &out else {
            panic!("{}", out.explain());
        };
        let LogicalPlan::Join {
            left,
            kind: JKind::Inner,
            ..
        } = &**input
        else {
            panic!("{}", out.explain());
        };
        match &**left {
            LogicalPlan::Join {
                left,
                kind: JKind::Semi,
                left_keys,
                ..
            } => {
                assert_eq!(left.scan_order(), vec!["orders"]);
                assert_eq!(*left_keys, vec![BExpr::Col(2)]);
            }
            other => panic!("{}", other.explain()),
        }
    }

    /// The Q21 shape: the inner join filters its big input down (100 rows
    /// out of 1 000), so a semi on that input's key stays above the join.
    #[test]
    fn semi_stays_above_a_shrinking_join() {
        let mut ctx = StatsCatalog::empty();
        ctx.set_rows("v2", 1000.0);
        ctx.set_rows("supplier", 100.0);
        ctx.set_rows("sub", 50.0);
        let j = join(
            JKind::Inner,
            named_scan("supplier", 2),
            named_scan("v2", 2),
            Some((0, 1)),
        );
        let semi = join(JKind::Semi, j, named_scan("sub", 1), Some((2, 0)));
        let before = semi.explain();
        assert_eq!(sink_semi_joins(semi, &ctx).explain(), before);
    }

    /// An anti join whose residual reads the other join input stays put,
    /// however little the join shrinks.
    #[test]
    fn anti_join_reading_both_inputs_stays() {
        let mut ctx = StatsCatalog::empty();
        ctx.set_rows("a", 100.0);
        ctx.set_rows("b", 1000.0);
        let j = join(
            JKind::Inner,
            named_scan("a", 2),
            named_scan("b", 2),
            Some((0, 0)),
        );
        let mut anti = join(JKind::Anti, j, named_scan("x", 1), Some((0, 0)));
        if let LogicalPlan::Join { residual, .. } = &mut anti {
            // a.1 < x.0 AND b.1 <> x.0: the anti's left input is 4 wide.
            *residual = Some(bin(
                BinOp::And,
                bin(BinOp::Lt, BExpr::Col(1), BExpr::Col(4)),
                bin(BinOp::Ne, BExpr::Col(3), BExpr::Col(4)),
            ));
        }
        let before = anti.explain();
        assert_eq!(sink_semi_joins(anti, &ctx).explain(), before);
    }
}
