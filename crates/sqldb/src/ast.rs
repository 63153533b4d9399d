//! SQL abstract syntax tree for the dialect subset the PyTond code generator
//! emits (plus enough generality for hand-written test queries).

/// A top-level query: optional WITH chain plus the final select.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Common table expressions, in definition order.
    pub ctes: Vec<Cte>,
    /// The final select.
    pub body: Select,
}

/// One `name (cols) AS (select)` CTE.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name.
    pub name: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Defining select.
    pub select: Select,
}

/// A SELECT statement (or VALUES list).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause (empty for `SELECT <exprs>` or VALUES).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate.
    pub having: Option<SqlExpr>,
    /// ORDER BY keys (expr, ascending).
    pub order_by: Vec<(SqlExpr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// VALUES rows when this "select" is a VALUES constructor.
    pub values: Option<Vec<Vec<SqlExpr>>>,
}

impl Select {
    /// An empty select skeleton.
    pub fn empty() -> Select {
        Select {
            distinct: false,
            items: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            values: None,
        }
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// `expr [AS alias]`.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [AS alias]`.
    Table {
        /// Table or CTE name.
        name: String,
        /// Alias (defaults to the name).
        alias: Option<String>,
    },
    /// `(select) AS alias`.
    Subquery {
        /// The subquery.
        query: Box<Select>,
        /// Mandatory alias.
        alias: String,
    },
    /// `left JOIN right ON cond` (all join kinds).
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (`None` only for CROSS).
        on: Option<SqlExpr>,
    },
}

/// SQL join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
    /// RIGHT \[OUTER\] JOIN.
    Right,
    /// FULL \[OUTER\] JOIN.
    Full,
    /// CROSS JOIN.
    Cross,
}

impl JoinKind {
    /// The SQL spelling of the join keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Full => "FULL OUTER JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `||`
    Concat,
}

impl BinOp {
    /// `true` for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }

    /// The operator with its operands swapped (`5 < x` ⇒ `x > 5`);
    /// symmetric operators return themselves.
    pub fn mirrored(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    /// SUM
    Sum,
    /// MIN
    Min,
    /// MAX
    Max,
    /// AVG
    Avg,
    /// COUNT (`COUNT(*)` when the argument is `None`)
    Count,
}

impl AggName {
    /// The SQL spelling of the function name.
    pub fn name(self) -> &'static str {
        match self {
            AggName::Sum => "SUM",
            AggName::Min => "MIN",
            AggName::Max => "MAX",
            AggName::Avg => "AVG",
            AggName::Count => "COUNT",
        }
    }
}

/// A SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified.
    Column {
        /// Table alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// NULL literal.
    Null,
    /// `DATE 'YYYY-MM-DD'`.
    DateLit(i32),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: String,
        /// `true` for NOT LIKE.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Candidate literals.
        list: Vec<SqlExpr>,
        /// `true` for NOT IN.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// One-column subquery.
        query: Box<Select>,
        /// `true` for NOT IN.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        query: Box<Select>,
        /// `true` for NOT EXISTS.
        negated: bool,
    },
    /// Uncorrelated scalar subquery `(SELECT one-value)`.
    ScalarSubquery(Box<Select>),
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Lower bound (inclusive).
        low: Box<SqlExpr>,
        /// Upper bound (inclusive).
        high: Box<SqlExpr>,
        /// `true` for NOT BETWEEN.
        negated: bool,
    },
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, value)` arms.
        arms: Vec<(SqlExpr, SqlExpr)>,
        /// ELSE value (NULL when absent).
        else_value: Option<Box<SqlExpr>>,
    },
    /// Aggregate call.
    Agg {
        /// Function.
        func: AggName,
        /// Argument (`None` = `COUNT(*)`).
        arg: Option<Box<SqlExpr>>,
        /// `DISTINCT` modifier.
        distinct: bool,
    },
    /// Scalar function call (`ABS`, `ROUND`, `SUBSTRING`, `YEAR`, ...).
    Func {
        /// Upper-cased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
    },
    /// `row_number() OVER ([ORDER BY keys])`.
    RowNumber {
        /// Ordering keys (expr, ascending); empty = natural order.
        order_by: Vec<(SqlExpr, bool)>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Source expression.
        expr: Box<SqlExpr>,
        /// Target type name (upper-cased).
        ty: String,
    },
}

impl SqlExpr {
    /// Column shorthand.
    pub fn col(name: &str) -> SqlExpr {
        SqlExpr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Qualified column shorthand.
    pub fn qcol(q: &str, name: &str) -> SqlExpr {
        SqlExpr::Column {
            qualifier: Some(q.to_string()),
            name: name.to_string(),
        }
    }

    /// Binary op shorthand.
    pub fn bin(op: BinOp, l: SqlExpr, r: SqlExpr) -> SqlExpr {
        SqlExpr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// `true` if any node satisfies `f`.
    pub fn any(&self, f: &mut impl FnMut(&SqlExpr) -> bool) -> bool {
        if f(self) {
            return true;
        }
        match self {
            SqlExpr::Bin { left, right, .. } => left.any(f) || right.any(f),
            SqlExpr::Neg(e) | SqlExpr::Not(e) | SqlExpr::Cast { expr: e, .. } => e.any(f),
            SqlExpr::IsNull { expr, .. } | SqlExpr::Like { expr, .. } => expr.any(f),
            SqlExpr::InList { expr, list, .. } => expr.any(f) || list.iter().any(|e| e.any(f)),
            SqlExpr::InSubquery { expr, .. } => expr.any(f),
            SqlExpr::Between {
                expr, low, high, ..
            } => expr.any(f) || low.any(f) || high.any(f),
            SqlExpr::Case { arms, else_value } => {
                arms.iter().any(|(c, v)| c.any(f) || v.any(f))
                    || else_value.as_ref().is_some_and(|e| e.any(f))
            }
            SqlExpr::Agg { arg, .. } => arg.as_ref().is_some_and(|a| a.any(f)),
            SqlExpr::Func { args, .. } => args.iter().any(|a| a.any(f)),
            SqlExpr::RowNumber { order_by } => order_by.iter().any(|(e, _)| e.any(f)),
            _ => false,
        }
    }

    /// `true` when the expression contains an aggregate call.
    pub fn contains_agg(&self) -> bool {
        self.any(&mut |e| matches!(e, SqlExpr::Agg { .. }))
    }

    /// `true` when the expression contains a window function.
    pub fn contains_window(&self) -> bool {
        self.any(&mut |e| matches!(e, SqlExpr::RowNumber { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_agg_traverses_case() {
        let e = SqlExpr::Case {
            arms: vec![(
                SqlExpr::bin(BinOp::Gt, SqlExpr::col("a"), SqlExpr::Int(1)),
                SqlExpr::Agg {
                    func: AggName::Sum,
                    arg: Some(Box::new(SqlExpr::col("b"))),
                    distinct: false,
                },
            )],
            else_value: None,
        };
        assert!(e.contains_agg());
        assert!(!SqlExpr::col("a").contains_agg());
    }

    #[test]
    fn contains_window_detects_row_number() {
        let e = SqlExpr::RowNumber {
            order_by: vec![(SqlExpr::col("a"), true)],
        };
        assert!(e.contains_window());
    }
}
