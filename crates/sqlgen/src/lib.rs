//! SQL text for the paper's real backends: a dialect printer over the
//! engine's SQL AST (paper, Section III-E and "Backend Adaptation").
//!
//! There is one TondIR → SQL lowering, `pytond_sqldb::lower::lower_program`
//! (one CTE per rule, `VALUES` CTEs for constant relations, `WHERE`
//! equalities for implicit joins, `[NOT] IN (SELECT ...)` for `exists`,
//! `row_number() OVER (...)` for `uid()`). The in-process engine binds that
//! [`Query`]; this crate prints the same [`Query`] for an external engine
//! ([`render`], or [`generate_sql`] straight from TondIR).
//!
//! The [`Dialect`] decides only how five external functions are spelled (the
//! paper's "minor details, mostly in the interface of their external
//! functions"): [`Dialect::DuckDb`] writes `substr(s, start, len)`,
//! `year(d)`/`month(d)`/`day(d)` and `length(s)`; [`Dialect::Hyper`] and
//! [`Dialect::LingoDb`] write `SUBSTRING(s FROM start FOR len)`,
//! `EXTRACT(YEAR FROM d)` and `CHAR_LENGTH(s)`. Everything else is shared,
//! and chosen so that `parse_sql(&render(&q, d)) == q` for every tree the
//! engine's parser can produce: parentheses follow the parser's precedence
//! levels, identifiers are quoted unless plain ([`quote_ident`]), strings
//! double their `'`, floats keep a `.` or an exponent. LingoDB's *semantic*
//! gaps (window functions, aggregates over disjunctive CASE conditions) are
//! the engine's bind-time gate, not text.

use pytond_common::{date, Result};
use pytond_sqldb::ast::{BinOp, Query, Select, SelectItem, SqlExpr, TableRef};
use pytond_tondir::{Catalog, Program};
use std::fmt::{self, Display, Formatter, Write};

/// Target SQL dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dialect {
    /// DuckDB-style spellings (`substr`, `year(d)`).
    #[default]
    DuckDb,
    /// Hyper-style spellings (`SUBSTRING ... FROM ... FOR`, `EXTRACT`).
    Hyper,
    /// LingoDB-style (standard-leaning, like Hyper).
    LingoDb,
}

/// The SQL statement for a TondIR program: the lowered [`Query`], printed.
pub fn generate_sql(program: &Program, catalog: &Catalog, dialect: Dialect) -> Result<String> {
    Ok(render(
        &pytond_sqldb::lower::lower_program(program, catalog)?,
        dialect,
    ))
}

/// Prints a query: a clause per line inside each CTE, the final select on one.
pub fn render(query: &Query, dialect: Dialect) -> String {
    let mut out = String::new();
    for (i, cte) in query.ctes.iter().enumerate() {
        out.push_str(if i == 0 { "WITH " } else { ",\n" });
        out.push_str(&quote_ident(&cte.name));
        if let Some(cols) = &cte.columns {
            write!(out, "({})", List(cols, |f, c| f.write_str(&quote_ident(c)))).unwrap();
        }
        write!(out, " AS (\n  {}\n)", Sql(&cte.select, dialect, "\n  ")).unwrap();
    }
    let gap = if query.ctes.is_empty() { "" } else { "\n" };
    write!(out, "{gap}{}", Sql(&query.body, dialect, " ")).unwrap();
    out
}

const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "join", "inner", "left",
    "right", "full", "cross", "on", "and", "or", "not", "in", "is", "between", "like", "exists",
    "union", "as", "asc", "desc", "distinct", "with", "when", "then", "else", "end", "values",
    "case", "null", "true", "false", "date", "cast", "interval", "extract", "sum", "min", "max",
    "avg", "count",
];

/// Quotes an identifier when it is not a plain non-reserved word.
pub fn quote_ident(name: &str) -> String {
    let word = name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let plain = word && !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit());
    if plain && !RESERVED.contains(&name.to_lowercase().as_str()) {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// `items` comma-separated, each printed by `each`.
struct List<'a, T, F: Fn(&mut Formatter<'_>, &T) -> fmt::Result>(&'a [T], F);

impl<T, F: Fn(&mut Formatter<'_>, &T) -> fmt::Result> Display for List<'_, T, F> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { ", " })?;
            (self.1)(f, item)?;
        }
        Ok(())
    }
}

fn exprs(items: &[SqlExpr], d: Dialect) -> impl Display + '_ {
    List(items, move |f, e| Sql(e, d, OR).fmt(f))
}

fn order_keys(keys: &[(SqlExpr, bool)], d: Dialect) -> impl Display + '_ {
    let direction = |asc: bool| if asc { "ASC" } else { "DESC" };
    List(keys, move |f, (e, asc)| {
        write!(f, "{} {}", Sql(e, d, OR), direction(*asc))
    })
}

/// ` AS alias`, when there is one.
fn alias(alias: &Option<String>) -> String {
    let quoted = alias.as_deref().map(quote_ident);
    quoted.map_or(String::new(), |a| format!(" AS {a}"))
}

// Binding strength, in the parser's grammar levels: an operand prints bare
// where its level is at least what its position needs.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;
const NEG: u8 = 7;
const ATOM: u8 = 8;

fn level(e: &SqlExpr) -> u8 {
    use SqlExpr::*;
    match e {
        Bin { op, .. } => match op {
            BinOp::Or => OR,
            BinOp::And => AND,
            BinOp::Add | BinOp::Sub | BinOp::Concat => ADD,
            BinOp::Mul | BinOp::Div | BinOp::Mod => MUL,
            _ => CMP,
        },
        Not(_) | Exists { negated: true, .. } => NOT,
        IsNull { .. } | Like { .. } | InList { .. } | InSubquery { .. } | Between { .. } => CMP,
        // A negative literal reads back through the unary-minus rule.
        Neg(_) => NEG,
        Int(i) if *i < 0 => NEG,
        Float(x) if x.is_sign_negative() => NEG,
        _ => ATOM,
    }
}

/// An AST node as it prints in a dialect, with what its position adds: the
/// clause separator of a [`Select`], the level an [`SqlExpr`] must bind at
/// (it is parenthesised when it binds looser). Join chains print left-deep,
/// as the parser builds them.
struct Sql<'a, T, C = ()>(&'a T, Dialect, C);

impl Display for Sql<'_, Select, &str> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let Sql(s, d, sep) = *self;
        if let Some(rows) = &s.values {
            let rows = List(rows, |f, row| write!(f, "({})", exprs(row, d)));
            return write!(f, "VALUES {rows}");
        }
        let items = List(&s.items, |f, item| match item {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{}.*", quote_ident(q)),
            SelectItem::Expr { expr, alias: a } => write!(f, "{}{}", Sql(expr, d, OR), alias(a)),
        });
        let distinct = if s.distinct { "DISTINCT " } else { "" };
        write!(f, "SELECT {distinct}{items}")?;
        if !s.from.is_empty() {
            let from = List(&s.from, |f, t| Sql(t, d, ()).fmt(f));
            write!(f, "{sep}FROM {from}")?;
        }
        if let Some(e) = &s.where_clause {
            write!(f, "{sep}WHERE {}", Sql(e, d, OR))?;
        }
        if !s.group_by.is_empty() {
            write!(f, "{sep}GROUP BY {}", exprs(&s.group_by, d))?;
        }
        if let Some(e) = &s.having {
            write!(f, "{sep}HAVING {}", Sql(e, d, OR))?;
        }
        if !s.order_by.is_empty() {
            write!(f, "{sep}ORDER BY {}", order_keys(&s.order_by, d))?;
        }
        s.limit.iter().try_for_each(|n| write!(f, "{sep}LIMIT {n}"))
    }
}

impl Display for Sql<'_, TableRef> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let Sql(t, d, ()) = *self;
        match t {
            TableRef::Table { name, alias: a } => write!(f, "{}{}", quote_ident(name), alias(a)),
            TableRef::Subquery { query, alias } => {
                write!(f, "({}) AS {}", Sql(&**query, d, " "), quote_ident(alias))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (left, right) = (Sql(&**left, d, ()), Sql(&**right, d, ()));
                write!(f, "{left} {} {right}", kind.keyword())?;
                on.iter()
                    .try_for_each(|cond| write!(f, " ON {}", Sql(cond, d, OR)))
            }
        }
    }
}

/// Backend adaptation: the five functions whose spelling is the dialect.
fn func(f: &mut Formatter<'_>, d: Dialect, name: &str, args: &[SqlExpr]) -> fmt::Result {
    let all = exprs(args, d);
    match (d == Dialect::DuckDb, name, args) {
        (true, "SUBSTRING", _) => write!(f, "substr({all})"),
        (true, "LENGTH", _) => write!(f, "length({all})"),
        (true, "YEAR" | "MONTH" | "DAY", _) => write!(f, "{}({all})", name.to_lowercase()),
        (false, "SUBSTRING", [s, start, len]) => {
            let (s, start, len) = (Sql(s, d, OR), Sql(start, d, OR), Sql(len, d, OR));
            write!(f, "SUBSTRING({s} FROM {start} FOR {len})")
        }
        (false, "LENGTH", _) => write!(f, "CHAR_LENGTH({all})"),
        (false, "YEAR" | "MONTH" | "DAY", [_]) => write!(f, "EXTRACT({name} FROM {all})"),
        _ => write!(f, "{name}({all})"),
    }
}

impl<'a> Display for Sql<'a, SqlExpr, u8> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        use SqlExpr::*;
        let Sql(e, d, min) = *self;
        let at = |e: &'a SqlExpr, min| Sql(e, d, min);
        let sub = |s: &'a Select| Sql(s, d, " ");
        let not = |negated: &bool| if *negated { "NOT " } else { "" };
        if level(e) < min {
            return write!(f, "({})", at(e, OR));
        }
        // The negatable predicates share their head, `operand [NOT] `.
        if let Like { expr, negated, .. }
        | InList { expr, negated, .. }
        | InSubquery { expr, negated, .. }
        | Between { expr, negated, .. } = e
        {
            write!(f, "{} {}", at(expr, ADD), not(negated))?;
        }
        match e {
            Column { qualifier, name } => {
                let qualifier = qualifier.iter().map(|q| quote_ident(q) + ".");
                write!(f, "{}{}", qualifier.collect::<String>(), quote_ident(name))
            }
            Int(i) => write!(f, "{i}"),
            // `{:?}` keeps a `.0` or an exponent, so a float reads back as one.
            Float(x) => write!(f, "{x:?}"),
            Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Null => f.write_str("NULL"),
            DateLit(days) => write!(f, "DATE '{}'", date::format(*days)),
            Bin { op, left, right } => {
                // Left-associative chains; comparisons do not chain at all.
                let lvl = level(e);
                let left = at(left, lvl + u8::from(op.is_comparison()));
                write!(f, "{left} {} {}", op.symbol(), at(right, lvl + 1))
            }
            Neg(x) => write!(f, "-{}", at(x, ATOM)),
            Not(x) => write!(f, "NOT {}", at(x, NOT)),
            IsNull { expr, negated } => write!(f, "{} IS {}NULL", at(expr, ADD), not(negated)),
            Like { pattern, .. } => write!(f, "LIKE '{}'", pattern.replace('\'', "''")),
            InList { list, .. } => write!(f, "IN ({})", exprs(list, d)),
            InSubquery { query, .. } => write!(f, "IN ({})", sub(query)),
            Between { low, high, .. } => {
                write!(f, "BETWEEN {} AND {}", at(low, ADD), at(high, ADD))
            }
            Exists { query, negated } => write!(f, "{}EXISTS ({})", not(negated), sub(query)),
            ScalarSubquery(query) => write!(f, "({})", sub(query)),
            Case { arms, else_value } => {
                f.write_str("CASE")?;
                for (cond, value) in arms {
                    write!(f, " WHEN {} THEN {}", at(cond, OR), at(value, OR))?;
                }
                if let Some(e) = else_value {
                    write!(f, " ELSE {}", at(e, OR))?;
                }
                f.write_str(" END")
            }
            Agg {
                func,
                arg,
                distinct,
            } => {
                let distinct = if *distinct { "DISTINCT " } else { "" };
                let arg = arg.as_ref().map_or("*".into(), |a| at(a, OR).to_string());
                write!(f, "{}({distinct}{arg})", func.name())
            }
            Func { name, args } => func(f, d, name, args),
            RowNumber { order_by } => {
                let by = if order_by.is_empty() { "" } else { "ORDER BY " };
                write!(f, "row_number() OVER ({by}{})", order_keys(order_by, d))
            }
            Cast { expr, ty } => write!(f, "CAST({} AS {ty})", at(expr, OR)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::DType;
    use pytond_sqldb::ast::AggName;
    use pytond_tondir::builder::*;
    use pytond_tondir::{AggFunc, Atom, Const, Head, OuterKind, ScalarOp, TableSchema, Term};

    fn catalog() -> Catalog {
        Catalog::new().with(TableSchema::new(
            "r",
            vec![
                ("a".into(), DType::Int),
                ("b".into(), DType::Float),
                ("c".into(), DType::Float),
            ],
        ))
    }

    #[test]
    fn paper_example_aggregation_rule() {
        // R1(a, s) :- R(a, b, c), (s=sum(b)).  →  WITH R1(a, s) AS (SELECT ...)
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "r1".into(),
                    cols: vec![("a".into(), "a".into()), ("s".into(), "s".into())],
                    group: Some(vec!["a".into()]),
                    sort: None,
                    limit: None,
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("WITH r1(a, s) AS ("), "{sql}");
        assert!(sql.contains("SUM(r.b) AS s"), "{sql}");
        assert!(sql.contains("GROUP BY r.a"), "{sql}");
        assert!(sql.trim_end().ends_with("SELECT * FROM r1"), "{sql}");
    }

    #[test]
    fn implicit_join_becomes_where_equality() {
        let p = Program {
            rules: vec![rule(
                head("out", &["x"]),
                vec![
                    rel("r", "t1", &["k", "x", "c1"]),
                    rel("r", "t2", &["k", "y", "c2"]),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("FROM r AS t1, r AS t2"), "{sql}");
        assert!(sql.contains("WHERE t1.a = t2.a"), "{sql}");
    }

    #[test]
    fn filters_and_sort_limit() {
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "out".into(),
                    cols: vec![("a".into(), "a".into())],
                    group: None,
                    sort: Some(vec![("a".into(), false)]),
                    limit: Some(10),
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    cmp(ScalarOp::Gt, Term::var("b"), Term::float(5.0)),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("WHERE r.b > 5.0"), "{sql}");
        assert!(sql.contains("ORDER BY r.a DESC"), "{sql}");
        assert!(sql.contains("LIMIT 10"), "{sql}");
    }

    #[test]
    fn const_rel_hoisted_as_values_cte() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a", "c0"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::ConstRel {
                        vars: vec!["c0".into()],
                        rows: vec![vec![Const::Int(0)], vec![Const::Int(1)]],
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("const_rel_1(c0) AS (\n  VALUES (0), (1)\n)"),
            "{sql}"
        );
        assert!(sql.contains("FROM r, const_rel_1"), "{sql}");
    }

    #[test]
    fn exists_becomes_in_subquery() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::Exists {
                        body: pytond_tondir::Body::new(vec![
                            rel("r", "inner1", &["a2", "b2", "c2"]),
                            cmp(ScalarOp::Gt, Term::var("b2"), Term::float(1.0)),
                        ]),
                        keys: vec![("a".into(), "a2".into())],
                        negated: true,
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("r.a NOT IN (SELECT inner1.a FROM r AS inner1 WHERE inner1.b > 1.0)"),
            "{sql}"
        );
    }

    #[test]
    fn outer_join_marker_becomes_left_join() {
        let p = Program {
            rules: vec![rule(
                head("out", &["x", "y"]),
                vec![
                    rel("r", "t1", &["k1", "x", "c1"]),
                    rel("r", "t2", &["k2", "y", "c2"]),
                    Atom::OuterJoin {
                        kind: OuterKind::Left,
                        left: "t1".into(),
                        right: "t2".into(),
                        on: vec![("k1".into(), "k2".into())],
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("FROM r AS t1 LEFT JOIN r AS t2 ON t1.a = t2.a"),
            "{sql}"
        );
    }

    #[test]
    fn dialects_differ_in_ext_functions() {
        let p = Program {
            rules: vec![rule(
                head("out", &["y"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "y",
                        Term::Ext {
                            func: "substr".into(),
                            args: vec![Term::var("a"), Term::int(1), Term::int(2)],
                        },
                    ),
                ],
            )],
        };
        let duck = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        let hyper = generate_sql(&p, &catalog(), Dialect::Hyper).unwrap();
        assert!(duck.contains("substr(r.a, 1, 2)"), "{duck}");
        assert!(hyper.contains("SUBSTRING(r.a FROM 1 FOR 2)"), "{hyper}");
    }

    #[test]
    fn uid_renders_row_number() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a", "id"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "id",
                        Term::Ext {
                            func: "uid".into(),
                            args: vec![],
                        },
                    ),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("row_number() OVER ()"), "{sql}");
    }

    #[test]
    fn duplicate_rule_names_rejected() {
        let r1 = rule(head("dup", &["a"]), vec![rel("r", "r", &["a", "b", "c"])]);
        let p = Program {
            rules: vec![r1.clone(), r1],
        };
        assert!(generate_sql(&p, &catalog(), Dialect::DuckDb).is_err());
    }

    #[test]
    fn quoting_of_odd_identifiers() {
        assert_eq!(quote_ident("abc"), "abc");
        assert_eq!(quote_ident("select"), "\"select\"");
        assert_eq!(quote_ident("7"), "\"7\"");
        assert_eq!(quote_ident("my col"), "\"my col\"");
    }

    #[test]
    fn if_renders_case_when() {
        let p = Program {
            rules: vec![rule(
                head("out", &["v"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "v",
                        Term::If {
                            cond: Box::new(Term::bin(ScalarOp::Eq, Term::var("a"), Term::int(1))),
                            then: Box::new(Term::var("b")),
                            els: Box::new(Term::int(0)),
                        },
                    ),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("CASE WHEN r.a = 1 THEN r.b ELSE 0 END"),
            "{sql}"
        );
    }

    // ---------------- round trip: parse_sql(render(q, d)) == q ----------------

    use proptest::prelude::*;
    use pytond_sqldb::parser::parse_sql;

    const DIALECTS: [Dialect; 3] = [Dialect::DuckDb, Dialect::Hyper, Dialect::LingoDb];

    /// `SELECT <expr> AS x FROM t`.
    fn select_of(expr: SqlExpr) -> Select {
        let mut s = Select::empty();
        s.items.push(SelectItem::Expr {
            expr,
            alias: Some("x".into()),
        });
        s.from.push(TableRef::Table {
            name: "t".into(),
            alias: None,
        });
        s
    }

    fn assert_round_trips(expr: SqlExpr) -> String {
        let query = Query {
            ctes: vec![],
            body: select_of(expr),
        };
        for d in DIALECTS {
            let text = render(&query, d);
            let back = parse_sql(&text).unwrap_or_else(|e| panic!("{d:?}: {e}\n{text}"));
            assert_eq!(back, query, "{d:?} printed\n{text}");
        }
        render(&query, Dialect::Hyper)
    }

    /// Builds expression trees the parser can produce from a byte stream
    /// (an exhausted stream yields leaves, so every tree is finite).
    struct Gen<'a>(std::slice::Iter<'a, u8>);

    impl Gen<'_> {
        fn next(&mut self) -> usize {
            self.0.next().copied().unwrap_or(0) as usize
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.next() % from.len()].clone()
        }

        fn ident(&mut self) -> String {
            self.pick(&[
                "a",
                "B_2",
                "my col",
                "select",
                "7",
                "it\"s",
                "exists",
                "caf\u{e9}",
            ])
            .to_string()
        }

        fn boxed(&mut self, depth: u32) -> Box<SqlExpr> {
            Box::new(self.expr(depth))
        }

        fn exprs(&mut self, depth: u32, n: usize) -> Vec<SqlExpr> {
            (0..n).map(|_| self.expr(depth)).collect()
        }

        fn keys(&mut self, depth: u32) -> Vec<(SqlExpr, bool)> {
            let n = self.next() % 3;
            (0..n)
                .map(|_| (self.expr(depth), self.next() % 2 == 0))
                .collect()
        }

        fn subquery(&mut self, depth: u32) -> Box<Select> {
            let mut s = select_of(self.expr(depth));
            if self.next() % 2 == 0 {
                s.where_clause = Some(self.expr(depth));
            }
            Box::new(s)
        }

        fn leaf(&mut self) -> SqlExpr {
            match self.next() % 8 {
                0 => SqlExpr::col(&self.ident()),
                1 => SqlExpr::qcol(&self.ident(), &self.ident()),
                2 => SqlExpr::Int(self.pick(&[0, 1, 42, -1, -7, i64::MAX])),
                3 => SqlExpr::Float(self.pick(&[5.0, 0.05, -2.5, 1e21, 1.5e-7, -0.0])),
                4 => SqlExpr::Str(self.pick(&["it's", "", "%", "caf\u{e9}", "a\"b"]).into()),
                5 => SqlExpr::DateLit(self.pick(&[0, 8766, 10_000, 19_999])),
                6 => self.pick(&[SqlExpr::Null, SqlExpr::Bool(true), SqlExpr::Bool(false)]),
                _ => SqlExpr::Agg {
                    func: AggName::Count,
                    arg: None,
                    distinct: false,
                },
            }
        }

        fn expr(&mut self, depth: u32) -> SqlExpr {
            use BinOp::*;
            if depth == 0 {
                return self.leaf();
            }
            let d = depth - 1;
            let negated = self.next() % 2 == 0;
            match self.next() % 18 {
                0..=3 => {
                    let op = self.pick(&[
                        Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Concat,
                    ]);
                    SqlExpr::bin(op, self.expr(d), self.expr(d))
                }
                // The parser folds a minus into a numeric literal.
                4 => match self.expr(d) {
                    SqlExpr::Int(_) | SqlExpr::Float(_) => {
                        SqlExpr::Neg(Box::new(SqlExpr::col("a")))
                    }
                    other => SqlExpr::Neg(Box::new(other)),
                },
                5 => SqlExpr::Not(self.boxed(d)),
                6 => SqlExpr::IsNull {
                    expr: self.boxed(d),
                    negated,
                },
                7 => SqlExpr::Like {
                    expr: self.boxed(d),
                    pattern: self.pick(&["%it's_%", "x%", ""]).into(),
                    negated,
                },
                8 => SqlExpr::InList {
                    expr: self.boxed(d),
                    list: {
                        let n = 1 + self.next() % 3;
                        self.exprs(d, n)
                    },
                    negated,
                },
                9 => SqlExpr::InSubquery {
                    expr: self.boxed(d),
                    query: self.subquery(d),
                    negated,
                },
                10 => SqlExpr::Exists {
                    query: self.subquery(d),
                    negated: false,
                },
                11 => SqlExpr::ScalarSubquery(self.subquery(d)),
                12 => SqlExpr::Between {
                    expr: self.boxed(d),
                    low: self.boxed(d),
                    high: self.boxed(d),
                    negated,
                },
                13 => SqlExpr::Case {
                    arms: (0..1 + self.next() % 2)
                        .map(|_| (self.expr(d), self.expr(d)))
                        .collect(),
                    else_value: negated.then(|| self.boxed(d)),
                },
                14 => SqlExpr::Agg {
                    func: self.pick(&[AggName::Sum, AggName::Min, AggName::Avg, AggName::Count]),
                    arg: Some(self.boxed(d)),
                    distinct: negated,
                },
                15 => {
                    let (name, arity) = self.pick(&[
                        ("YEAR", 1),
                        ("DAY", 1),
                        ("LENGTH", 1),
                        ("SUBSTRING", 3),
                        ("SUBSTRING", 2),
                        ("ROUND", 2),
                        ("COALESCE", 3),
                    ]);
                    SqlExpr::Func {
                        name: name.into(),
                        args: self.exprs(d, arity),
                    }
                }
                16 => SqlExpr::RowNumber {
                    order_by: self.keys(d),
                },
                _ => SqlExpr::Cast {
                    expr: self.boxed(d),
                    ty: self.pick(&["INT", "DOUBLE"]).into(),
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_expressions_round_trip(bytes in prop::collection::vec(0u8..255, 0..160)) {
            assert_round_trips(Gen(bytes.iter()).expr(4));
        }
    }

    #[test]
    fn parentheses_follow_the_parser_levels() {
        use BinOp::*;
        let [a, b, c] = ["a", "b", "c"].map(SqlExpr::col);
        let bin = SqlExpr::bin;
        let printed = |e: SqlExpr| {
            let text = assert_round_trips(e);
            text["SELECT ".len()..text.len() - " AS x FROM t".len()].to_string()
        };
        // Right-nested `-` and `/` keep their parentheses, left-nested need none.
        let right = bin(Sub, a.clone(), bin(Sub, b.clone(), c.clone()));
        assert_eq!(printed(right), "a - (b - c)");
        let left = bin(Div, bin(Div, a.clone(), b.clone()), c.clone());
        assert_eq!(printed(left), "a / b / c");
        let mixed = bin(Mul, bin(Add, a.clone(), b.clone()), SqlExpr::Float(5.0));
        assert_eq!(printed(mixed), "(a + b) * 5.0");
        // NOT binds tighter than AND/OR, looser than a comparison.
        let not_and = SqlExpr::Not(Box::new(bin(And, a.clone(), b.clone())));
        assert_eq!(printed(not_and), "NOT (a AND b)");
        let not_cmp = SqlExpr::Not(Box::new(bin(Eq, a.clone(), SqlExpr::Int(-1))));
        assert_eq!(printed(bin(Or, not_cmp, c.clone())), "NOT a = -1 OR c");
        // Unary minus over a minus must not become a `--` comment.
        let neg = SqlExpr::Neg(Box::new(SqlExpr::Neg(Box::new(a.clone()))));
        assert_eq!(printed(bin(Sub, b, neg)), "b - -(-a)");
        let date = bin(Lt, a, SqlExpr::DateLit(8766));
        assert_eq!(printed(date), "a < DATE '1994-01-01'");
        assert_eq!(printed(SqlExpr::Str("it's".into())), "'it''s'");
        assert_eq!(
            printed(SqlExpr::qcol("my t", "select")),
            "\"my t\".\"select\""
        );
    }
}
