//! Logical query plans.

use crate::ast::AggName;
use crate::expr::BExpr;
use crate::table::Schema;
use pytond_common::Value;

/// Join kinds at the plan level (includes semi/anti from IN-subqueries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JKind {
    /// Inner equi-join (+ optional residual).
    Inner,
    /// Left outer.
    Left,
    /// Right outer.
    Right,
    /// Full outer.
    Full,
    /// Cartesian product.
    Cross,
    /// Left semi (EXISTS / IN).
    Semi,
    /// Left anti (NOT EXISTS / NOT IN).
    Anti,
}

/// One bound aggregate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BAgg {
    /// Aggregate function.
    pub func: AggName,
    /// Argument (`None` = COUNT(*)).
    pub arg: Option<BExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
}

/// A logical plan node. Every node can report its output [`Schema`].
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan of a base table or materialized CTE.
    Scan {
        /// Table / CTE name.
        table: String,
        /// Output schema (possibly pruned).
        schema: Schema,
        /// Column positions kept from the stored table (`None` = all).
        projection: Option<Vec<usize>>,
        /// Pushed-down row predicate over the **stored** table's column
        /// indices (not the projected output). Zone-prunable conjuncts let
        /// the executor skip whole morsels before evaluating the rest.
        pred: Option<BExpr>,
    },
    /// Inline constant rows.
    Values {
        /// Output schema.
        schema: Schema,
        /// Row values.
        rows: Vec<Vec<Value>>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        pred: BExpr,
    },
    /// Expression projection.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<BExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Kind.
        kind: JKind,
        /// Equi-join keys on the left schema.
        left_keys: Vec<BExpr>,
        /// Equi-join keys on the right schema.
        right_keys: Vec<BExpr>,
        /// Residual predicate over the concatenated schema.
        residual: Option<BExpr>,
        /// Which input the hash index is built over: `false` (what the
        /// binder emits) builds the right input and streams the left through
        /// the probe, `true` the reverse. Decided once, by
        /// [`crate::optimize::optimize_with`] from its cardinality
        /// estimates; every profile honours it and the output order (left
        /// row major, right rows ascending) is the same either way.
        build_left: bool,
        /// Output schema (left ++ right; left only for semi/anti).
        schema: Schema,
    },
    /// Hash aggregation (scalar aggregation when `group` is empty). With
    /// every input column a group key and no aggregates it is `SELECT
    /// DISTINCT`: one row per distinct input row, in first-occurrence order.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-key expressions over the input schema.
        group: Vec<BExpr>,
        /// Aggregates over the input schema.
        aggs: Vec<BAgg>,
        /// Output schema: group keys then aggregates.
        schema: Schema,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// `(key, ascending)` pairs over the input schema.
        keys: Vec<(BExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// `row_number() OVER (ORDER BY ...)`: appends one Int column.
    Window {
        /// Input.
        input: Box<LogicalPlan>,
        /// Ordering keys (empty = natural order).
        order: Vec<(BExpr, bool)>,
        /// Output schema (input ++ row_number field).
        schema: Schema,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Window { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Single-line operator name (for EXPLAIN-style rendering).
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Window { .. } => "Window",
        }
    }

    /// Children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => Vec::new(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Window { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This node with `f` applied to each child, left before right (the
    /// order of [`LogicalPlan::children`]); a leaf comes back as it is.
    /// Every plan rewrite recurses through it.
    pub fn map_children(mut self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut apply = |child: &mut Box<LogicalPlan>| {
            let empty = LogicalPlan::Values {
                schema: Schema::default(),
                rows: Vec::new(),
            };
            let taken = std::mem::replace(&mut **child, empty);
            **child = f(taken);
        };
        match &mut self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Window { input, .. } => apply(input),
            LogicalPlan::Join { left, right, .. } => {
                apply(left);
                apply(right);
            }
        }
        self
    }

    /// Indented multi-line plan rendering.
    pub fn explain(&self) -> String {
        fn rec(p: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            match p {
                LogicalPlan::Scan {
                    table,
                    schema,
                    pred,
                    ..
                } => match pred {
                    Some(p) => {
                        out.push_str(&format!("Scan {table} [{} cols] where {p}\n", schema.len()));
                    }
                    None => out.push_str(&format!("Scan {table} [{} cols]\n", schema.len())),
                },
                LogicalPlan::Join {
                    kind,
                    left_keys,
                    right_keys,
                    build_left,
                    ..
                } => {
                    let keys: Vec<String> = left_keys
                        .iter()
                        .zip(right_keys)
                        .map(|(l, r)| format!("{l}={r}"))
                        .collect();
                    let build = if *build_left { " build=left" } else { "" };
                    if keys.is_empty() {
                        out.push_str(&format!("Join {kind:?}\n"));
                    } else {
                        out.push_str(&format!("Join {kind:?}{build} on [{}]\n", keys.join(", ")));
                    }
                }
                LogicalPlan::Aggregate { group, aggs, .. } => {
                    out.push_str(&format!(
                        "Aggregate [{} groups, {} aggs]\n",
                        group.len(),
                        aggs.len()
                    ));
                }
                other => out.push_str(&format!("{}\n", other.name())),
            }
            for c in p.children() {
                rec(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        rec(self, 0, &mut s);
        s
    }

    /// Table names of every `Scan` in depth-first (left-to-right) order —
    /// the executor's join order for left-deep trees. Tests use this to
    /// assert cost-based join-order decisions.
    pub fn scan_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn rec(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan { table, .. } = p {
                out.push(table.clone());
            }
            for c in p.children() {
                rec(c, out);
            }
        }
        rec(self, &mut out);
        out
    }

    /// Number of plan nodes (used by optimizer tests).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// A fully bound query: CTEs (materialized in order) plus the root plan.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// `(name, plan)` pairs, to materialize in order.
    pub ctes: Vec<(String, LogicalPlan)>,
    /// Root plan.
    pub root: LogicalPlan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use pytond_common::DType;

    #[test]
    fn schema_passthrough_nodes() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![Field::new("a", DType::Int)]),
            projection: None,
            pred: None,
        };
        let filter = LogicalPlan::Filter {
            input: Box::new(scan),
            pred: BExpr::Lit(pytond_common::Value::Bool(true)),
        };
        assert_eq!(filter.schema().len(), 1);
        assert_eq!(filter.node_count(), 2);
        assert!(filter.explain().contains("Scan t"));
    }
}
