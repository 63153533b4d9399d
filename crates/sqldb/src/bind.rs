//! Binder: SQL AST → logical plan.
//!
//! Responsibilities:
//!
//! * name resolution against base tables, CTEs and FROM aliases;
//! * building the join tree — explicit `JOIN ... ON` syntax directly,
//!   comma-list FROM items greedily connected through WHERE equi-predicates
//!   (cross join only when no connecting predicate exists);
//! * `IN (subquery)` / `EXISTS` conjuncts → semi/anti joins;
//! * uncorrelated scalar subqueries → cross-joined 1-row inputs;
//! * the two-phase aggregate rewrite (aggregate node, then a post-projection
//!   evaluating the select items over group keys and aggregate results);
//! * `SELECT DISTINCT` → an aggregate whose group keys are every output
//!   column, with no aggregates;
//! * refusals ([`Error::Unsupported`]) for what the executor cannot
//!   compute: `SUM`/`AVG`/`MIN`/`MAX(DISTINCT …)`, and outer joins whose ON
//!   clause is not all equalities between the two sides;
//! * `row_number() OVER` → window node;
//! * ORDER BY over output aliases (hidden sort columns appended when a key is
//!   not part of the projection).

use crate::ast::*;
use crate::db::Snapshot;
use crate::expr::{BExpr, LikePattern, SFunc};
use crate::plan::{BAgg, BoundQuery, JKind, LogicalPlan};
use crate::table::{Field, Schema};
use pytond_common::{date, DType, Error, Result, Value};
use std::cell::RefCell;

/// Binds a parsed query against the database catalog.
///
/// A CTE that is referenced exactly once is **inlined**: its bound plan is
/// spliced into the reference site, re-qualified under the reference's alias
/// exactly like a derived table, so the optimizer and the pipeline extractor
/// see through it. [`BoundQuery::ctes`] keeps only the CTEs referenced more
/// than once (materialized once, scanned by name); unreferenced ones are
/// dropped. The executor resolves scans by name, so a query whose CTE names
/// shadow a base table or one another keeps every CTE as a temporary — a
/// spliced plan must never land where one of its names means something else.
pub fn bind_query(db: &Snapshot, q: &Query) -> Result<BoundQuery> {
    let mut binder = Binder {
        db,
        ctes: Vec::new(),
    };
    let uses = cte_uses(db, q);
    for (cte, uses) in q.ctes.iter().zip(uses) {
        let mut plan = binder.bind_select(&cte.select)?;
        if let Some(cols) = &cte.columns {
            if cols.len() != plan.schema().len() {
                return Err(Error::Plan(format!(
                    "CTE '{}' declares {} columns but produces {}",
                    cte.name,
                    cols.len(),
                    plan.schema().len()
                )));
            }
            plan = rename_output(plan, cols);
        }
        binder.ctes.push(BoundCte {
            name: cte.name.clone(),
            schema: plan.schema().clone(),
            uses,
            plan: RefCell::new(Some(plan)),
        });
    }
    let root = binder.bind_select(&q.body)?;
    let ctes = binder.ctes.into_iter().filter(|c| c.uses > 1);
    Ok(BoundQuery {
        ctes: ctes
            .filter_map(|c| Some((c.name, c.plan.into_inner()?)))
            .collect(),
        root,
    })
}

/// How many times each CTE of `q` is referenced — by a later CTE, a subquery
/// or the body — with a name resolving to the latest earlier definition, as
/// [`Binder::relation`] resolves it. When a CTE name shadows a base table or
/// another CTE, every CTE counts as shared (see [`bind_query`]).
fn cte_uses(db: &Snapshot, q: &Query) -> Vec<usize> {
    let same = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
    let shadows = q.ctes.iter().enumerate().any(|(i, c)| {
        db.table(&c.name).is_some() || q.ctes[..i].iter().any(|e| same(&e.name, &c.name))
    });
    if shadows {
        return vec![usize::MAX; q.ctes.len()];
    }
    let mut uses = vec![0; q.ctes.len()];
    let selects = q.ctes.iter().map(|c| &c.select).chain([&q.body]);
    for (visible, select) in selects.enumerate() {
        table_names(select, &mut |name| {
            if let Some(i) = q.ctes[..visible].iter().position(|c| same(&c.name, name)) {
                uses[i] += 1;
            }
        });
    }
    uses
}

/// Calls `f` with the name of every table reference in `s`, at any depth:
/// FROM items, derived tables, join trees and subquery predicates.
fn table_names(s: &Select, f: &mut impl FnMut(&str)) {
    fn in_ref(tr: &TableRef, f: &mut impl FnMut(&str)) {
        match tr {
            TableRef::Table { name, .. } => f(name),
            TableRef::Subquery { query, .. } => table_names(query, f),
            TableRef::Join {
                left, right, on, ..
            } => {
                in_ref(left, f);
                in_ref(right, f);
                if let Some(on) = on {
                    in_expr(on, f);
                }
            }
        }
    }
    fn in_expr(e: &SqlExpr, f: &mut impl FnMut(&str)) {
        e.any(&mut |x| {
            if let SqlExpr::InSubquery { query, .. }
            | SqlExpr::Exists { query, .. }
            | SqlExpr::ScalarSubquery(query) = x
            {
                table_names(query, f);
            }
            false
        });
    }
    s.from.iter().for_each(|tr| in_ref(tr, f));
    let items = s.items.iter().filter_map(|i| match i {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    let exprs = items
        .chain(&s.where_clause)
        .chain(&s.group_by)
        .chain(&s.having)
        .chain(s.order_by.iter().map(|(e, _)| e));
    exprs.for_each(|e| in_expr(e, f));
}

/// `plan` with its output columns qualified by `alias`: what a derived table
/// or a spliced CTE looks like from the FROM clause that names it.
fn requalified(plan: LogicalPlan, alias: &str) -> LogicalPlan {
    let schema = plan.schema().requalify(alias);
    match plan {
        // Re-qualification only changes the schema.
        LogicalPlan::Project { input, exprs, .. } => LogicalPlan::Project {
            input,
            exprs,
            schema,
        },
        other => LogicalPlan::Project {
            exprs: (0..schema.len()).map(BExpr::Col).collect(),
            input: Box::new(other),
            schema,
        },
    }
}

/// Wraps a plan so its output field names become `names` (unqualified).
fn rename_output(plan: LogicalPlan, names: &[String]) -> LogicalPlan {
    let schema = Schema::new(
        names
            .iter()
            .zip(&plan.schema().fields)
            .map(|(n, f)| Field::new(n.clone(), f.dtype))
            .collect(),
    );
    let exprs = (0..names.len()).map(BExpr::Col).collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

struct Binder<'a> {
    db: &'a Snapshot,
    ctes: Vec<BoundCte>,
}

/// One CTE bound so far.
struct BoundCte {
    name: String,
    schema: Schema,
    /// References to it in the rest of the query ([`cte_uses`]).
    uses: usize,
    /// Its plan, until the single reference takes it.
    plan: RefCell<Option<LogicalPlan>>,
}

/// Aggregate-binding context used while rewriting select items over the
/// aggregate node's output.
struct AggCtx {
    /// Bound group-key expressions (over the pre-aggregate schema).
    group_keys: Vec<BExpr>,
    /// Their source SQL form, for structural matching.
    group_sql: Vec<SqlExpr>,
    /// Collected aggregate specs (deduplicated).
    aggs: Vec<BAgg>,
}

impl<'a> Binder<'a> {
    /// Resolves a FROM name under `alias`: the latest CTE of that name —
    /// spliced in when this is its only reference, scanned otherwise — or a
    /// base table.
    fn relation(&self, name: &str, alias: &str) -> Result<LogicalPlan> {
        let cte = self
            .ctes
            .iter()
            .rev()
            .find(|c| c.name.eq_ignore_ascii_case(name));
        let schema = match cte {
            Some(cte) if cte.uses == 1 => {
                let plan = cte.plan.borrow_mut().take().ok_or_else(|| {
                    Error::Internal(format!("CTE '{name}' was counted as referenced once"))
                })?;
                return Ok(requalified(plan, alias));
            }
            Some(cte) => &cte.schema,
            None => match self.db.table(name) {
                Some(t) => &t.schema,
                None => return Err(Error::Plan(format!("unknown table '{name}'"))),
            },
        };
        Ok(LogicalPlan::Scan {
            table: name.to_string(),
            schema: schema.requalify(alias),
            projection: None,
            pred: None,
        })
    }

    fn bind_select(&self, s: &Select) -> Result<LogicalPlan> {
        if let Some(rows) = &s.values {
            return self.bind_values(rows);
        }
        // ---- FROM ----
        let (mut plan, consumed_where) = self.bind_from(s)?;

        // ---- WHERE residue (subquery predicates + unconsumed conjuncts) ----
        for conj in consumed_where.remaining {
            plan = self.apply_predicate(plan, &conj)?;
        }

        // ---- aggregate detection ----
        let has_agg = !s.group_by.is_empty()
            || s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_agg(),
                _ => false,
            })
            || s.having.as_ref().is_some_and(|h| h.contains_agg())
            || s.order_by.iter().any(|(e, _)| e.contains_agg());

        let (mut plan, mut items): (LogicalPlan, Vec<(BExpr, String)>) = if has_agg {
            self.bind_aggregate_select(plan, s)?
        } else {
            let schema = plan.schema().clone();
            let mut items = Vec::new();
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => {
                        for (i, f) in schema.fields.iter().enumerate() {
                            items.push((BExpr::Col(i), f.name.clone()));
                        }
                    }
                    SelectItem::QualifiedWildcard(q) => {
                        for (i, f) in schema.fields.iter().enumerate() {
                            if f.qualifier
                                .as_deref()
                                .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                            {
                                items.push((BExpr::Col(i), f.name.clone()));
                            }
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let (bexpr, plan2) = self.bind_with_windows(expr, plan)?;
                        plan = plan2;
                        let name = alias.clone().unwrap_or_else(|| default_name(expr));
                        items.push((bexpr, name));
                    }
                }
            }
            (plan, items)
        };

        // ---- HAVING (non-agg path; agg path handles it internally) ----
        if !has_agg {
            if let Some(h) = &s.having {
                let pred = self.bind_expr(h, plan.schema(), None)?;
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    pred,
                };
            }
        }

        // ---- ORDER BY: resolve over output items, append hidden keys ----
        let mut sort_keys: Vec<(usize, bool)> = Vec::new();
        let n_visible = items.len();
        for (key, asc) in &s.order_by {
            let bound = match self.resolve_order_key(key, s, &items, plan.schema(), has_agg)? {
                OrderKey::Existing(i) => i,
                OrderKey::Hidden(bexpr) => {
                    items.push((bexpr, format!("__sort{}", items.len())));
                    items.len() - 1
                }
            };
            sort_keys.push((bound, *asc));
        }

        // ---- projection (with hidden sort columns) ----
        let in_types: Vec<DType> = plan.schema().fields.iter().map(|f| f.dtype).collect();
        let schema = Schema::new(
            items
                .iter()
                .map(|(e, n)| Field::new(n.clone(), e.dtype(&in_types)))
                .collect(),
        );
        let mut out = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: items.iter().map(|(e, _)| e.clone()).collect(),
            schema,
        };

        if s.distinct {
            // DISTINCT is a key-only aggregate: every column a group key.
            let schema = out.schema().clone();
            out = LogicalPlan::Aggregate {
                input: Box::new(out),
                group: (0..schema.len()).map(BExpr::Col).collect(),
                aggs: Vec::new(),
                schema,
            };
        }
        if !sort_keys.is_empty() {
            out = LogicalPlan::Sort {
                input: Box::new(out),
                keys: sort_keys
                    .iter()
                    .map(|(i, asc)| (BExpr::Col(*i), *asc))
                    .collect(),
            };
        }
        if let Some(n) = s.limit {
            out = LogicalPlan::Limit {
                input: Box::new(out),
                n,
            };
        }
        // Drop hidden sort columns.
        if items.len() > n_visible {
            let schema = Schema::new(out.schema().fields[..n_visible].to_vec());
            out = LogicalPlan::Project {
                input: Box::new(out),
                exprs: (0..n_visible).map(BExpr::Col).collect(),
                schema,
            };
        }
        Ok(out)
    }

    fn bind_values(&self, rows: &[Vec<SqlExpr>]) -> Result<LogicalPlan> {
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in rows {
            let mut vals = Vec::with_capacity(row.len());
            for e in row {
                vals.push(literal_value(e)?);
            }
            out_rows.push(vals);
        }
        let ncols = out_rows.first().map_or(0, |r| r.len());
        let fields: Vec<Field> = (0..ncols)
            .map(|i| {
                let dtype = out_rows
                    .iter()
                    .find_map(|r| r[i].dtype())
                    .unwrap_or(DType::Int);
                Field::new(format!("col{i}"), dtype)
            })
            .collect();
        Ok(LogicalPlan::Values {
            schema: Schema::new(fields),
            rows: out_rows,
        })
    }

    // ---------------- FROM handling ----------------

    fn bind_from(&self, s: &Select) -> Result<(LogicalPlan, WhereResidue)> {
        let conjuncts = s
            .where_clause
            .as_ref()
            .map(split_conjuncts)
            .unwrap_or_default();
        if s.from.is_empty() {
            // SELECT <exprs> with no FROM: single-row dummy input.
            let plan = LogicalPlan::Values {
                schema: Schema::new(vec![Field::new("__dummy", DType::Int)]),
                rows: vec![vec![Value::Int(0)]],
            };
            return Ok((
                plan,
                WhereResidue {
                    remaining: conjuncts,
                },
            ));
        }
        // Bind each top-level FROM item.
        let mut parts: Vec<LogicalPlan> = Vec::new();
        for tr in &s.from {
            parts.push(self.bind_table_ref(tr)?);
        }
        // Greedy connection of comma-separated parts via equi-predicates.
        let mut used = vec![false; conjuncts.len()];
        let mut current = parts.remove(0);
        while !parts.is_empty() {
            let cur_schema = current.schema().clone();
            let mut pick: Option<usize> = None;
            'outer: for (pi, part) in parts.iter().enumerate() {
                for conj in &conjuncts {
                    if equi_pair(conj, &cur_schema, part.schema()).is_some() {
                        pick = Some(pi);
                        break 'outer;
                    }
                }
            }
            let idx = pick.unwrap_or(0);
            let part = parts.remove(idx);
            // Collect all applicable equi-keys between current and part.
            let mut lkeys = Vec::new();
            let mut rkeys = Vec::new();
            for (ci, conj) in conjuncts.iter().enumerate() {
                if used[ci] {
                    continue;
                }
                if let Some((le, re)) = equi_pair(conj, current.schema(), part.schema()) {
                    lkeys.push(le);
                    rkeys.push(re);
                    used[ci] = true;
                }
            }
            let kind = if lkeys.is_empty() {
                JKind::Cross
            } else {
                JKind::Inner
            };
            let schema = current.schema().concat(part.schema());
            current = LogicalPlan::Join {
                left: Box::new(current),
                right: Box::new(part),
                kind,
                left_keys: lkeys,
                right_keys: rkeys,
                residual: None,
                build_left: false,
                schema,
            };
        }
        let remaining: Vec<SqlExpr> = conjuncts
            .into_iter()
            .zip(used)
            .filter_map(|(c, u)| (!u).then_some(c))
            .collect();
        Ok((current, WhereResidue { remaining }))
    }

    fn bind_table_ref(&self, tr: &TableRef) -> Result<LogicalPlan> {
        match tr {
            TableRef::Table { name, alias } => {
                self.relation(name, alias.as_deref().unwrap_or(name))
            }
            TableRef::Subquery { query, alias } => Ok(requalified(self.bind_select(query)?, alias)),
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                let schema = l.schema().concat(r.schema());
                let jkind = match kind {
                    JoinKind::Inner => JKind::Inner,
                    JoinKind::Left => JKind::Left,
                    JoinKind::Right => JKind::Right,
                    JoinKind::Full => JKind::Full,
                    JoinKind::Cross => JKind::Cross,
                };
                let mut lkeys = Vec::new();
                let mut rkeys = Vec::new();
                let mut residual: Option<BExpr> = None;
                if let Some(on) = on {
                    for conj in split_conjuncts(on) {
                        if let Some((le, re)) = equi_pair(&conj, l.schema(), r.schema()) {
                            lkeys.push(le);
                            rkeys.push(re);
                        } else {
                            let bound = self.bind_expr(&conj, &schema, None)?;
                            residual = Some(match residual {
                                None => bound,
                                Some(prev) => BExpr::Bin {
                                    op: BinOp::And,
                                    l: Box::new(prev),
                                    r: Box::new(bound),
                                },
                            });
                        }
                    }
                }
                // The probe keeps an outer row unmatched by its keys alone:
                // a residual or a keyless ON clause would need it to see
                // every candidate pair.
                let outer = matches!(jkind, JKind::Left | JKind::Right | JKind::Full);
                if outer && (residual.is_some() || lkeys.is_empty()) {
                    let kind = format!("{jkind:?}").to_uppercase();
                    return Err(Error::Unsupported(format!(
                        "{kind} JOIN: only equalities between the two sides may join them"
                    )));
                }
                Ok(LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: jkind,
                    left_keys: lkeys,
                    right_keys: rkeys,
                    residual,
                    build_left: false,
                    schema,
                })
            }
        }
    }

    /// Applies one WHERE conjunct: plain predicates filter; subquery
    /// predicates become semi/anti joins; scalar subqueries cross-join.
    fn apply_predicate(&self, plan: LogicalPlan, conj: &SqlExpr) -> Result<LogicalPlan> {
        match conj {
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let sub = self.bind_select(query)?;
                if sub.schema().len() != 1 {
                    return Err(Error::Plan(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                let key = self.bind_expr(expr, plan.schema(), None)?;
                let schema = plan.schema().clone();
                Ok(LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(sub),
                    kind: if *negated { JKind::Anti } else { JKind::Semi },
                    left_keys: vec![key],
                    right_keys: vec![BExpr::Col(0)],
                    residual: None,
                    build_left: false,
                    schema,
                })
            }
            SqlExpr::Exists { query, negated } => {
                // Uncorrelated EXISTS: all-or-nothing semi join without keys.
                let sub = self.bind_select(query)?;
                let schema = plan.schema().clone();
                Ok(LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(sub),
                    kind: if *negated { JKind::Anti } else { JKind::Semi },
                    left_keys: Vec::new(),
                    right_keys: Vec::new(),
                    residual: None,
                    build_left: false,
                    schema,
                })
            }
            other => {
                // Scalar subqueries inside the predicate: cross join each as a
                // one-row input, then rewrite the expression.
                let mut plan = plan;
                let mut expr = other.clone();
                while let Some(sub) = find_scalar_subquery(&expr) {
                    let mut sub_plan = self.bind_select(&sub)?;
                    if sub_plan.schema().len() != 1 {
                        return Err(Error::Plan(
                            "scalar subquery must produce one column".into(),
                        ));
                    }
                    let col_index = plan.schema().len();
                    // Name the appended column so the rewritten predicate can
                    // resolve it unambiguously.
                    sub_plan = rename_output(sub_plan, &[scalar_col_name(col_index)]);
                    let schema = plan.schema().concat(sub_plan.schema());
                    plan = LogicalPlan::Join {
                        left: Box::new(plan),
                        right: Box::new(sub_plan),
                        kind: JKind::Cross,
                        left_keys: Vec::new(),
                        right_keys: Vec::new(),
                        residual: None,
                        build_left: false,
                        schema,
                    };
                    expr = replace_scalar_subquery(expr, col_index);
                }
                let pred = self.bind_expr(&expr, plan.schema(), None)?;
                Ok(LogicalPlan::Filter {
                    input: Box::new(plan),
                    pred,
                })
            }
        }
    }

    // ---------------- aggregation ----------------

    fn bind_aggregate_select(
        &self,
        input: LogicalPlan,
        s: &Select,
    ) -> Result<(LogicalPlan, Vec<(BExpr, String)>)> {
        let in_schema = input.schema().clone();
        let mut ctx = AggCtx {
            group_keys: Vec::new(),
            group_sql: Vec::new(),
            aggs: Vec::new(),
        };
        for g in &s.group_by {
            let bound = self.bind_expr(g, &in_schema, None)?;
            ctx.group_keys.push(bound);
            ctx.group_sql.push(g.clone());
        }
        // Bind the items over the (virtual) aggregate output.
        let mut items = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(Error::Plan("SELECT * is not valid with GROUP BY".into()));
                }
                SelectItem::Expr { expr, alias } => {
                    let bexpr = self.bind_expr(expr, &in_schema, Some(&mut ctx))?;
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    items.push((bexpr, name));
                }
            }
        }
        let having = s
            .having
            .as_ref()
            .map(|h| self.bind_expr(h, &in_schema, Some(&mut ctx)))
            .transpose()?;

        // Order keys that aren't resolvable over the projection also need the
        // agg rewrite; bind them now so their aggregates get registered.
        let mut bound_order: Vec<Option<BExpr>> = Vec::new();
        for (key, _) in &s.order_by {
            if order_key_as_output(key, &items).is_some() {
                bound_order.push(None);
            } else {
                bound_order.push(Some(self.bind_expr(key, &in_schema, Some(&mut ctx))?));
            }
        }
        let _ = bound_order; // re-resolved by the caller via resolve_order_key

        // Build the aggregate node schema: group keys then aggregates.
        let in_types: Vec<DType> = in_schema.fields.iter().map(|f| f.dtype).collect();
        let mut fields = Vec::new();
        for (i, g) in ctx.group_keys.iter().enumerate() {
            let name = match &s.group_by[i] {
                SqlExpr::Column { name, .. } => name.clone(),
                _ => format!("__grp{i}"),
            };
            fields.push(Field::new(name, g.dtype(&in_types)));
        }
        for (i, a) in ctx.aggs.iter().enumerate() {
            let dtype = agg_output_type(a, &in_types);
            fields.push(Field::new(format!("__agg{i}"), dtype));
        }
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: ctx.group_keys.clone(),
            aggs: ctx.aggs.clone(),
            schema: Schema::new(fields),
        };
        if let Some(h) = having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                pred: h,
            };
        }
        Ok((plan, items))
    }

    /// Window-function handling for non-aggregate selects: each
    /// `row_number()` in an item appends a Window node and the expression
    /// becomes a reference to the appended column.
    fn bind_with_windows(&self, expr: &SqlExpr, plan: LogicalPlan) -> Result<(BExpr, LogicalPlan)> {
        if let SqlExpr::RowNumber { order_by } = expr {
            let keys = order_by
                .iter()
                .map(|(e, asc)| Ok((self.bind_expr(e, plan.schema(), None)?, *asc)))
                .collect::<Result<Vec<_>>>()?;
            let idx = plan.schema().len();
            let mut fields = plan.schema().fields.clone();
            fields.push(Field::new(format!("__rownum{idx}"), DType::Int));
            let plan = LogicalPlan::Window {
                input: Box::new(plan),
                order: keys,
                schema: Schema::new(fields),
            };
            return Ok((BExpr::Col(idx), plan));
        }
        if expr.contains_window() {
            return Err(Error::Plan(
                "window functions are only supported as top-level select items".into(),
            ));
        }
        let bound = self.bind_expr(expr, plan.schema(), None)?;
        Ok((bound, plan))
    }

    fn resolve_order_key(
        &self,
        key: &SqlExpr,
        s: &Select,
        items: &[(BExpr, String)],
        pre_schema: &Schema,
        has_agg: bool,
    ) -> Result<OrderKey> {
        if let Some(i) = order_key_as_output(key, items) {
            return Ok(OrderKey::Existing(i));
        }
        // Structural match against the original select-item expressions
        // (covers `ORDER BY SUM(x)` when `SUM(x)` is also projected).
        for (i, item) in s.items.iter().enumerate() {
            if let SelectItem::Expr { expr, .. } = item {
                if expr == key {
                    return Ok(OrderKey::Existing(i));
                }
            }
        }
        if has_agg {
            return Err(Error::Plan(format!(
                "ORDER BY key {key:?} must reference an output column in aggregate queries"
            )));
        }
        let bound = self.bind_expr(key, pre_schema, None)?;
        // Structural match against projected expressions.
        if let Some(i) = items.iter().position(|(e, _)| *e == bound) {
            return Ok(OrderKey::Existing(i));
        }
        Ok(OrderKey::Hidden(bound))
    }

    // ---------------- expression binding ----------------

    fn bind_expr(
        &self,
        e: &SqlExpr,
        schema: &Schema,
        mut agg: Option<&mut AggCtx>,
    ) -> Result<BExpr> {
        // In aggregate context, check group-key structural match first.
        if let Some(ctx) = agg.as_deref_mut() {
            if let Some(i) = ctx.group_sql.iter().position(|g| g == e) {
                return Ok(BExpr::Col(i));
            }
            if let SqlExpr::Agg {
                func,
                arg,
                distinct,
            } = e
            {
                // The accumulators keep distinct value sets for counting
                // only.
                if *distinct && *func != AggName::Count {
                    return Err(Error::Unsupported(format!(
                        "{}(DISTINCT ...): only COUNT(DISTINCT ...) is supported",
                        func.name()
                    )));
                }
                let mut bound_arg = arg
                    .as_ref()
                    .map(|a| self.bind_expr(a, schema, None))
                    .transpose()?;
                if let Some(a) = &mut bound_arg {
                    order_commutative(a, &operand_types(schema, None));
                }
                let spec = BAgg {
                    func: *func,
                    arg: bound_arg,
                    distinct: *distinct,
                };
                let idx = match ctx.aggs.iter().position(|a| *a == spec) {
                    Some(i) => i,
                    None => {
                        ctx.aggs.push(spec);
                        ctx.aggs.len() - 1
                    }
                };
                return Ok(BExpr::Col(ctx.group_keys.len() + idx));
            }
            // Plain column in aggregate context: allowed only if it matches a
            // group key by resolution.
            if let SqlExpr::Column { qualifier, name } = e {
                let i = schema.resolve(qualifier.as_deref(), name)?;
                if let Some(g) = ctx.group_keys.iter().position(|k| *k == BExpr::Col(i)) {
                    return Ok(BExpr::Col(g));
                }
                return Err(Error::Plan(format!(
                    "column '{name}' must appear in GROUP BY or inside an aggregate"
                )));
            }
        }
        match e {
            SqlExpr::Column { qualifier, name } => {
                let i = schema.resolve(qualifier.as_deref(), name)?;
                Ok(BExpr::Col(i))
            }
            SqlExpr::Int(i) => Ok(BExpr::Lit(Value::Int(*i))),
            SqlExpr::Float(f) => Ok(BExpr::Lit(Value::Float(*f))),
            SqlExpr::Str(s) => Ok(BExpr::Lit(Value::Str(s.clone()))),
            SqlExpr::Bool(b) => Ok(BExpr::Lit(Value::Bool(*b))),
            SqlExpr::Null => Ok(BExpr::Lit(Value::Null)),
            SqlExpr::DateLit(d) => Ok(BExpr::Lit(Value::Date(*d))),
            SqlExpr::Bin { op, left, right } => {
                // Fold `expr ± INTERVAL_*` into date functions.
                if let SqlExpr::Func { name, args } = right.as_ref() {
                    if let Some(unit) = name.strip_prefix("INTERVAL_") {
                        let n = match args.first() {
                            Some(SqlExpr::Int(n)) => *n,
                            _ => return Err(Error::Plan("bad INTERVAL argument".into())),
                        };
                        let n = if *op == BinOp::Sub { -n } else { n };
                        let f = match unit {
                            "MONTH" | "MONTHS" => SFunc::AddMonths,
                            "YEAR" | "YEARS" => SFunc::AddYears,
                            "DAY" | "DAYS" => SFunc::AddDays,
                            other => {
                                return Err(Error::Plan(format!(
                                    "unsupported INTERVAL unit '{other}'"
                                )))
                            }
                        };
                        let base = self.bind_expr(left, schema, agg)?;
                        return Ok(BExpr::Func {
                            f,
                            args: vec![base, BExpr::Lit(Value::Int(n))],
                        });
                    }
                }
                let l = self.bind_expr(left, schema, agg.as_deref_mut())?;
                let r = self.bind_expr(right, schema, agg.as_deref_mut())?;
                Ok(if op.is_comparison() {
                    typed_cmp(*op, l, r, &operand_types(schema, agg.as_deref()))
                } else {
                    BExpr::Bin {
                        op: *op,
                        l: Box::new(l),
                        r: Box::new(r),
                    }
                })
            }
            SqlExpr::Neg(inner) => Ok(BExpr::Neg(Box::new(self.bind_expr(inner, schema, agg)?))),
            SqlExpr::Not(inner) => Ok(BExpr::Not(Box::new(self.bind_expr(inner, schema, agg)?))),
            SqlExpr::IsNull { expr, negated } => Ok(BExpr::IsNull {
                e: Box::new(self.bind_expr(expr, schema, agg)?),
                negated: *negated,
            }),
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => Ok(BExpr::Like {
                e: Box::new(self.bind_expr(expr, schema, agg)?),
                pattern: LikePattern::compile(pattern),
                negated: *negated,
            }),
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.bind_expr(expr, schema, agg.as_deref_mut())?;
                let dtype = e.dtype(&operand_types(schema, agg.as_deref()));
                let vals = list
                    .iter()
                    .map(|v| Ok(coerce_literal(literal_value(v)?, dtype)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(BExpr::InList {
                    e: Box::new(e),
                    list: vals,
                    negated: *negated,
                })
            }
            SqlExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.bind_expr(expr, schema, agg.as_deref_mut())?;
                let lo = self.bind_expr(low, schema, agg.as_deref_mut())?;
                let hi = self.bind_expr(high, schema, agg.as_deref_mut())?;
                let types = operand_types(schema, agg.as_deref());
                let both = BExpr::Bin {
                    op: BinOp::And,
                    l: Box::new(typed_cmp(BinOp::Ge, e.clone(), lo, &types)),
                    r: Box::new(typed_cmp(BinOp::Le, e, hi, &types)),
                };
                Ok(if *negated {
                    BExpr::Not(Box::new(both))
                } else {
                    both
                })
            }
            SqlExpr::Case { arms, else_value } => {
                let mut bound_arms = Vec::with_capacity(arms.len());
                for (c, v) in arms {
                    let bc = self.bind_expr(c, schema, agg.as_deref_mut())?;
                    let bv = self.bind_expr(v, schema, agg.as_deref_mut())?;
                    bound_arms.push((bc, bv));
                }
                let be = else_value
                    .as_ref()
                    .map(|e| self.bind_expr(e, schema, agg))
                    .transpose()?
                    .map(Box::new);
                Ok(BExpr::Case {
                    arms: bound_arms,
                    else_value: be,
                })
            }
            SqlExpr::Func { name, args } => {
                let f = SFunc::parse(name)
                    .ok_or_else(|| Error::Plan(format!("unknown function '{name}'")))?;
                let mut bound = Vec::with_capacity(args.len());
                for a in args {
                    bound.push(self.bind_expr(a, schema, agg.as_deref_mut())?);
                }
                Ok(BExpr::Func { f, args: bound })
            }
            SqlExpr::Cast { expr, ty } => {
                let to = match ty.as_str() {
                    "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => DType::Int,
                    "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => DType::Float,
                    "VARCHAR" | "TEXT" | "CHAR" | "STRING" => DType::Str,
                    "DATE" => DType::Date,
                    "BOOL" | "BOOLEAN" => DType::Bool,
                    other => return Err(Error::Plan(format!("unsupported cast to {other}"))),
                };
                Ok(BExpr::Cast {
                    e: Box::new(self.bind_expr(expr, schema, agg)?),
                    to,
                })
            }
            SqlExpr::Agg { .. } => Err(Error::Plan(
                "aggregate used outside GROUP BY context".into(),
            )),
            SqlExpr::RowNumber { .. } => Err(Error::Plan(
                "window function not allowed in this position".into(),
            )),
            SqlExpr::InSubquery { .. } | SqlExpr::Exists { .. } | SqlExpr::ScalarSubquery(_) => {
                Err(Error::Plan(
                    "subquery predicates are only supported as top-level WHERE conjuncts".into(),
                ))
            }
        }
    }
}

enum OrderKey {
    Existing(usize),
    Hidden(BExpr),
}

struct WhereResidue {
    remaining: Vec<SqlExpr>,
}

/// Splits an expression on top-level ANDs.
fn split_conjuncts(e: &SqlExpr) -> Vec<SqlExpr> {
    match e {
        SqlExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// If `conj` is `a = b` with `a` resolvable only in `left` and `b` only in
/// `right` (or vice versa), returns the bound equi-key pair.
fn equi_pair(conj: &SqlExpr, left: &Schema, right: &Schema) -> Option<(BExpr, BExpr)> {
    let SqlExpr::Bin {
        op: BinOp::Eq,
        left: a,
        right: b,
    } = conj
    else {
        return None;
    };
    let bind_side = |e: &SqlExpr, s: &Schema| -> Option<BExpr> {
        match e {
            SqlExpr::Column { qualifier, name } => {
                s.resolve(qualifier.as_deref(), name).ok().map(BExpr::Col)
            }
            _ => None,
        }
    };
    if let (Some(l), Some(r)) = (bind_side(a, left), bind_side(b, right)) {
        return Some((l, r));
    }
    match (bind_side(b, left), bind_side(a, right)) {
        (Some(l), Some(r)) => Some((l, r)),
        _ => None,
    }
}

fn order_key_as_output(key: &SqlExpr, items: &[(BExpr, String)]) -> Option<usize> {
    if let SqlExpr::Column {
        qualifier: None,
        name,
    } = key
    {
        return items.iter().position(|(_, n)| n.eq_ignore_ascii_case(name));
    }
    None
}

fn default_name(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
        _ => "expr".to_string(),
    }
}

/// The column types bound operands index into: the input schema, or —
/// inside an aggregate context, where bound columns address the aggregate
/// node's output — the group keys followed by the aggregates collected so
/// far.
fn operand_types(schema: &Schema, agg: Option<&AggCtx>) -> Vec<DType> {
    let input: Vec<DType> = schema.fields.iter().map(|f| f.dtype).collect();
    match agg {
        None => input,
        Some(ctx) => ctx
            .group_keys
            .iter()
            .map(|g| g.dtype(&input))
            .chain(ctx.aggs.iter().map(|a| agg_output_type(a, &input)))
            .collect(),
    }
}

/// Orders the operands of commutative `*` / `+` nodes over two numeric
/// (`Int`/`Float`) operands canonically — lower column index first, a bare
/// column before anything else — so the aggregate dedup above computes
/// `SUM(a * b)` and `SUM(b * a)` once. Only the two operands of one node
/// ever swap (IEEE and wrapping-integer `*` and `+` commute exactly; nothing
/// is re-associated), so every value is bit-identical to the written order.
/// Date arithmetic is left alone: its kernels are not symmetric.
fn order_commutative(e: &mut BExpr, types: &[DType]) {
    let rank = |e: &BExpr| match e {
        BExpr::Col(i) => (0, *i),
        _ => (1, 0),
    };
    e.for_each_child_mut(|c| order_commutative(c, types));
    if let BExpr::Bin { op, l, r } = e {
        if matches!(op, BinOp::Add | BinOp::Mul)
            && rank(l) > rank(r)
            && l.dtype(types).is_numeric()
            && r.dtype(types).is_numeric()
        {
            std::mem::swap(l, r);
        }
    }
}

/// Types a literal to the expression it is compared against, once, so no
/// kernel, zone test or selectivity estimate has to reinterpret it per row:
///
/// | literal | other side | becomes |
/// |---|---|---|
/// | `Str` that [`date::parse`] accepts | `Date` | `Value::Date` |
/// | `Int` | `Float` | `Value::Float` |
///
/// Everything else — unparsable strings included — is left alone and keeps
/// the row-wise [`Value::sql_cmp`] semantics. Both folds are exactly what
/// `sql_cmp` would compute per row, so results cannot change.
fn coerce_literal(lit: Value, other: DType) -> Value {
    match (&lit, other) {
        (Value::Str(s), DType::Date) => date::parse(s).map_or(lit, Value::Date),
        (Value::Int(i), DType::Float) => Value::Float(*i as f64),
        _ => lit,
    }
}

/// Builds the comparison `l op r`, typing a literal operand to the other
/// side's static dtype (see [`coerce_literal`]).
fn typed_cmp(op: BinOp, l: BExpr, r: BExpr, types: &[DType]) -> BExpr {
    let (l, r) = match (l, r) {
        (BExpr::Lit(a), BExpr::Lit(b)) => (BExpr::Lit(a), BExpr::Lit(b)),
        (e, BExpr::Lit(v)) => {
            let v = coerce_literal(v, e.dtype(types));
            (e, BExpr::Lit(v))
        }
        (BExpr::Lit(v), e) => (BExpr::Lit(coerce_literal(v, e.dtype(types))), e),
        other => other,
    };
    BExpr::Bin {
        op,
        l: Box::new(l),
        r: Box::new(r),
    }
}

fn literal_value(e: &SqlExpr) -> Result<Value> {
    Ok(match e {
        SqlExpr::Int(i) => Value::Int(*i),
        SqlExpr::Float(f) => Value::Float(*f),
        SqlExpr::Str(s) => Value::Str(s.clone()),
        SqlExpr::Bool(b) => Value::Bool(*b),
        SqlExpr::Null => Value::Null,
        SqlExpr::DateLit(d) => Value::Date(*d),
        other => return Err(Error::Plan(format!("expected a literal, found {other:?}"))),
    })
}

fn find_scalar_subquery(e: &SqlExpr) -> Option<Select> {
    let mut found = None;
    e.any(&mut |x| {
        if let SqlExpr::ScalarSubquery(q) = x {
            if found.is_none() {
                found = Some((**q).clone());
            }
            true
        } else {
            false
        }
    });
    found
}

/// Replaces the first scalar subquery with a column reference.
fn replace_scalar_subquery(e: SqlExpr, col: usize) -> SqlExpr {
    fn rec(e: SqlExpr, col: usize, done: &mut bool) -> SqlExpr {
        if *done {
            return e;
        }
        match e {
            SqlExpr::ScalarSubquery(_) => {
                *done = true;
                SqlExpr::Column {
                    qualifier: None,
                    name: format!("__scalar_col_{col}"),
                }
            }
            SqlExpr::Bin { op, left, right } => {
                let l = rec(*left, col, done);
                let r = rec(*right, col, done);
                SqlExpr::Bin {
                    op,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
            SqlExpr::Not(inner) => SqlExpr::Not(Box::new(rec(*inner, col, done))),
            SqlExpr::Neg(inner) => SqlExpr::Neg(Box::new(rec(*inner, col, done))),
            other => other,
        }
    }
    let mut done = false;

    rec(e, col, &mut done)
}

/// Scalar-subquery cross joins name their appended column specially so the
/// rewritten predicate can find it regardless of schema ambiguity.
pub(crate) fn scalar_col_name(col: usize) -> String {
    format!("__scalar_col_{col}")
}

fn agg_output_type(a: &BAgg, in_types: &[DType]) -> DType {
    match a.func {
        AggName::Count => DType::Int,
        AggName::Avg => DType::Float,
        AggName::Sum | AggName::Min | AggName::Max => a
            .arg
            .as_ref()
            .map(|e| e.dtype(in_types))
            .unwrap_or(DType::Float),
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use pytond_common::{Column, Relation};

    /// The bound (un-optimized) plan of `sql`, `Debug`-rendered.
    fn explain(sql: &str) -> String {
        let db = Database::new();
        db.register(
            "t",
            Relation::new(vec![
                ("d".into(), Column::from_dates(vec![0, 400, 9000])),
                ("f".into(), Column::from_f64(vec![0.5, 1.5, 2.5])),
                ("i".into(), Column::from_i64(vec![1, 2, 3])),
                ("s".into(), Column::from_strs(&["a", "b", "c"])),
            ])
            .unwrap(),
        );
        let query = crate::parser::parse_sql(sql).unwrap();
        format!("{:?}", super::bind_query(&db.snapshot(), &query).unwrap())
    }

    /// A database with `t(k, f)` and `u(k, w)`, and what one statement binds
    /// to: the names of the CTEs kept as temporaries, the EXPLAIN of the
    /// prepared plan, and the result.
    fn bound(sql: &str) -> (Vec<String>, String, Relation) {
        let db = Database::new();
        db.register(
            "t",
            Relation::new(vec![
                ("k".into(), Column::from_i64(vec![1, 2, 2, 3])),
                ("f".into(), Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            ])
            .unwrap(),
        );
        db.register(
            "u",
            Relation::new(vec![
                ("k".into(), Column::from_i64(vec![2, 3, 4])),
                ("w".into(), Column::from_i64(vec![20, 30, 40])),
            ])
            .unwrap(),
        );
        let query = crate::parser::parse_sql(sql).unwrap();
        let q = super::bind_query(&db.snapshot(), &query).unwrap();
        let kept = q.ctes.iter().map(|(n, _)| n.clone()).collect();
        let explain = db.explain_sql(sql).unwrap();
        let out = db
            .execute_sql(sql, &crate::db::EngineConfig::default())
            .unwrap();
        (kept, explain, out)
    }

    fn ints(rel: &Relation, col: &str) -> Vec<i64> {
        rel.column(col).unwrap().as_int().to_vec()
    }

    /// Commutative operands are ordered under every operator, `IS NULL` and
    /// `IN` included, so the two spellings below are one aggregate.
    #[test]
    fn commuted_operands_under_any_operator_share_one_aggregate() {
        for test in ["IS NULL", "IN (40, 90)"] {
            let (_, explain, out) = bound(&format!(
                "SELECT SUM(CASE WHEN (w * k) {test} THEN 0 ELSE 1 END) AS x, \
                        SUM(CASE WHEN (k * w) {test} THEN 0 ELSE 1 END) AS y FROM u"
            ));
            assert!(explain.contains("1 aggs"), "{test}: {explain}");
            assert_eq!(ints(&out, "x"), ints(&out, "y"), "{test}");
        }
    }

    /// The rule-per-CTE chain PyTond emits: every CTE referenced once, so
    /// none is left and the plan is one tree the optimizer sees through
    /// (the filter of `v2` lands in the scan under `v1`).
    #[test]
    fn single_use_chain_is_spliced_into_one_tree() {
        let (kept, explain, out) = bound(
            "WITH v1 AS (SELECT k, f * 2.0 AS g FROM t), \
                  v2 AS (SELECT k, g FROM v1 WHERE k >= 2), \
                  v3 AS (SELECT k, SUM(g) AS sg FROM v2 GROUP BY k) \
             SELECT * FROM v3 ORDER BY k",
        );
        assert!(kept.is_empty(), "{kept:?}");
        assert!(!explain.contains("CTE "), "{explain}");
        assert!(explain.contains("Scan t [2 cols] where"), "{explain}");
        assert_eq!(ints(&out, "k"), [2, 3]);
        assert_eq!(out.column("sg").unwrap().as_float(), &[8.0, 7.0]);
    }

    /// A CTE referenced twice is materialized once and scanned by name; one
    /// referenced once *inside* it is spliced into it; one nobody references
    /// is dropped.
    #[test]
    fn shared_ctes_stay_and_dead_ones_go() {
        let (kept, explain, out) = bound(
            "WITH a AS (SELECT k, f FROM t WHERE k >= 2), \
                  b AS (SELECT k, SUM(f) AS sf FROM a GROUP BY k), \
                  dead AS (SELECT k FROM u) \
             SELECT x.k, x.sf + y.sf AS both FROM b AS x, b AS y WHERE x.k = y.k ORDER BY x.k",
        );
        assert_eq!(kept, ["b"]);
        assert!(
            explain.contains("CTE b:") && !explain.contains("CTE a:"),
            "{explain}"
        );
        assert!(!explain.contains("Scan u"), "{explain}");
        assert_eq!(explain.matches("Scan b").count(), 2, "{explain}");
        assert_eq!(ints(&out, "k"), [2, 3]);
        assert_eq!(out.column("both").unwrap().as_float(), &[8.0, 7.0]);
    }

    /// References are counted wherever a table name can stand: derived
    /// tables, join trees and subquery predicates.
    #[test]
    fn references_inside_subqueries_count() {
        let (kept, _, out) = bound(
            "WITH a AS (SELECT k FROM u) \
             SELECT k FROM t WHERE k IN (SELECT k FROM a) AND k NOT IN \
               (SELECT d.k FROM (SELECT k FROM a WHERE k > 2) AS d) ORDER BY k",
        );
        assert_eq!(kept, ["a"]);
        assert_eq!(ints(&out, "k"), [2, 2]);
        let (kept, _, out) = bound(
            "WITH a AS (SELECT k FROM u WHERE k < 4) \
             SELECT t.k FROM t WHERE t.f > (SELECT AVG(w) / 20.0 FROM u) \
               AND EXISTS (SELECT k FROM a) ORDER BY t.k",
        );
        assert!(kept.is_empty(), "{kept:?}");
        assert_eq!(ints(&out, "k"), [2, 3]);
    }

    /// A declared column list renames the spliced plan's output, and the
    /// reference's alias qualifies it.
    #[test]
    fn declared_columns_and_aliases_survive_splicing() {
        let (kept, explain, out) = bound(
            "WITH v(key, total) AS (SELECT k, SUM(f) FROM t GROUP BY k) \
             SELECT s.key, s.total, u.w FROM v AS s, u WHERE s.key = u.k ORDER BY s.key",
        );
        assert!(kept.is_empty() && !explain.contains("CTE "), "{explain}");
        assert_eq!(out.names(), ["key", "total", "w"]);
        assert_eq!(ints(&out, "key"), [2, 3]);
        assert_eq!(ints(&out, "w"), [20, 30]);
    }

    /// The executor resolves scans by name, so a spliced plan must never
    /// land where one of its names means something else: a query whose CTE
    /// names shadow a table (or each other) keeps every CTE a temporary.
    #[test]
    fn shadowing_names_keep_their_temporaries() {
        // `y` reads the *table* `u`; the CTE `u` defined after it must not
        // capture that scan when `y`'s only reference is the body's.
        let (kept, _, out) = bound(
            "WITH y AS (SELECT k FROM u WHERE k >= 3), \
                  u AS (SELECT k FROM t WHERE k = 1) \
             SELECT y.k AS yk, u.k AS uk FROM y, u ORDER BY y.k",
        );
        assert_eq!(kept, ["y", "u"]);
        assert_eq!(ints(&out, "yk"), [3, 4]);
        assert_eq!(ints(&out, "uk"), [1, 1]);
        let (kept, _, out) =
            bound("WITH t AS (SELECT k FROM t WHERE k > 1) SELECT k FROM t ORDER BY k");
        assert_eq!(kept, ["t"]);
        assert_eq!(ints(&out, "k"), [2, 2, 3]);
    }

    /// The literal typing table of [`super::coerce_literal`], through every
    /// arm that compares: `Bin`, `BETWEEN`, `IN`, either side, and inside an
    /// aggregate context (where operands address the aggregate's output).
    #[test]
    fn comparison_literals_are_typed_to_the_other_side() {
        let plan = explain("SELECT i FROM t WHERE d >= '1994-01-01' AND '1995-01-01' > d");
        assert!(
            plan.contains("Date(8766)") && plan.contains("Date(9131)"),
            "{plan}"
        );
        assert!(!plan.contains("Str("), "{plan}");
        let plan = explain("SELECT i FROM t WHERE d BETWEEN '1994-01-01' AND '1994-12-31'");
        assert!(
            plan.contains("Date(8766)") && !plan.contains("Str("),
            "{plan}"
        );
        let plan = explain("SELECT i FROM t WHERE f > 1 AND 2 >= f AND f BETWEEN 0 AND 3");
        assert!(
            plan.contains("Float(1.0)") && plan.contains("Float(2.0)"),
            "{plan}"
        );
        assert!(
            plan.contains("Float(3.0)") && !plan.contains("Int("),
            "{plan}"
        );
        let plan = explain("SELECT s, SUM(f) AS x FROM t GROUP BY s HAVING SUM(f) > 1");
        assert!(plan.contains("Float(1.0)"), "{plan}");
        let plan = explain("SELECT s, MAX(d) AS x FROM t GROUP BY s HAVING MAX(d) < '1995-01-01'");
        assert!(plan.contains("Date(9131)"), "{plan}");
    }

    /// What does not fold: unparsable date strings, strings against string
    /// columns, ints against int columns, and arithmetic operands.
    #[test]
    fn other_literals_stay_as_written() {
        let plan = explain("SELECT i FROM t WHERE d <> 'soon' AND s = '1994-01-01' AND i < 3");
        assert!(plan.contains("Str(\"soon\")"), "{plan}");
        assert!(plan.contains("Str(\"1994-01-01\")"), "{plan}");
        assert!(plan.contains("Int(3)"), "{plan}");
        let plan = explain("SELECT f + 1 AS g FROM t");
        assert!(!plan.contains("Float(1.0)"), "{plan}");
    }

    /// `IN` lists type element-wise (EXPLAIN prints only their length, so
    /// this one checks results).
    #[test]
    fn in_list_literals_are_typed() {
        let db = Database::new();
        db.register(
            "t",
            Relation::new(vec![("d".into(), Column::from_dates(vec![0, 8766, 9131]))]).unwrap(),
        );
        let sql = "SELECT d FROM t WHERE d IN ('1994-01-01', 'soon', '1995-01-01')";
        let out = db
            .execute_sql(sql, &crate::db::EngineConfig::default())
            .unwrap();
        assert_eq!(out.column("d").unwrap().as_date(), &[8766, 9131]);
    }
}
