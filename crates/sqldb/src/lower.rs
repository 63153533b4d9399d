//! The TondIR → SQL lowering (paper, Section III-E): the one walk over
//! TondIR rules, shared by the in-process engine and the SQL export.
//!
//! [`lower_program`] turns an optimized TondIR [`Program`] into the engine's
//! structured [`crate::ast::Query`] — one CTE per rule, constant relations
//! hoisted as `VALUES` CTEs, implicit joins as `WHERE` equalities, outer-join
//! markers as explicit `JOIN ... ON`, `exists` atoms as `[NOT] IN (SELECT
//! ...)`, `uid()` as `row_number() OVER (...)`. From there the two consumers
//! part ways: [`crate::Database::prepare_query`] binds and plans the tree
//! directly (no SQL text, lexer or parser on the product path), and
//! `pytond-sqlgen` prints the same tree as DuckDB / Hyper / LingoDB text for
//! an external engine. The printed text parses back to the tree it came from
//! (`tests/differential_prepare.rs`), so text and tree cannot disagree.
//!
//! The tree is dialect-independent: external functions lower to one
//! canonical name each (`SUBSTRING`, `LENGTH`, `YEAR`, ...), the names the
//! parser folds every dialect's spelling onto, so one lowered query serves
//! all three backend profiles (profile-specific *semantic* gates, e.g.
//! LingoDB's window-function rejection, run at prepare time).

use crate::ast::{AggName, BinOp, Cte, JoinKind, Query, Select, SelectItem, SqlExpr, TableRef};
use pytond_common::{Error, Result};
use pytond_tondir::analysis::SchemaEnv;
use pytond_tondir::{
    AggFunc, Atom, Body, Catalog, Const, OuterKind, Program, Rule, ScalarOp, Term,
};
use std::collections::HashMap;

/// Lowers a TondIR program into the engine's SQL AST (no text): each rule
/// becomes one CTE (constant relations hoisted as `VALUES` CTEs), and the
/// program's last rule feeds a final `SELECT *`.
pub fn lower_program(program: &Program, catalog: &Catalog) -> Result<Query> {
    let Some(last) = program.rules.last() else {
        return Err(Error::CodeGen("empty program".into()));
    };
    let mut lowerer = RuleLower {
        env: SchemaEnv::from_catalog(catalog),
        ctes: Vec::new(),
        const_counter: 0,
    };
    for rule in &program.rules {
        if lowerer.ctes.iter().any(|c| c.name == rule.head.rel) {
            return Err(Error::CodeGen(format!(
                "relation '{}' defined twice; the translator must uniquify rule names",
                rule.head.rel
            )));
        }
        let select = lowerer.lower_rule(rule).map_err(|e| match e {
            Error::CodeGen(m) => Error::CodeGen(format!("rule '{}': {m}", rule.head.rel)),
            other => other,
        })?;
        lowerer.ctes.push(Cte {
            name: rule.head.rel.clone(),
            columns: Some(rule.head.cols.iter().map(|(n, _)| n.clone()).collect()),
            select,
        });
        lowerer.env.define(&rule.head);
    }
    let mut body = Select::empty();
    body.items.push(SelectItem::Wildcard);
    body.from.push(table(&last.head.rel, &last.head.rel));
    Ok(Query {
        ctes: lowerer.ctes,
        body,
    })
}

/// Folds conjuncts into one left-associative AND chain (the same tree the
/// parser builds from `c1 AND c2 AND c3`).
fn and_join(conds: Vec<SqlExpr>) -> Option<SqlExpr> {
    conds
        .into_iter()
        .reduce(|acc, c| SqlExpr::bin(BinOp::And, acc, c))
}

/// `name [AS alias]` (no alias when it would repeat the name).
fn table(name: &str, alias: &str) -> TableRef {
    TableRef::Table {
        name: name.to_string(),
        alias: (alias != name).then(|| alias.to_string()),
    }
}

/// A `VALUES` body over constant rows.
fn values(rows: &[Vec<Const>]) -> Select {
    let mut s = Select::empty();
    let row = |r: &Vec<Const>| r.iter().map(lower_const).collect();
    s.values = Some(rows.iter().map(row).collect());
    s
}

/// What one rule body (or `exists` body) accumulates: its FROM items in
/// atom order, the expression each variable stands for, and its conjuncts.
#[derive(Default)]
struct Scope {
    from: Vec<TableRef>,
    bindings: HashMap<String, SqlExpr>,
    conditions: Vec<SqlExpr>,
}

impl Scope {
    /// The expression `var` stands for; `role` names the variable in the
    /// error when it has none.
    fn get(&self, role: &str, var: &str) -> Result<SqlExpr> {
        let bound = self.bindings.get(var).cloned();
        bound.ok_or_else(|| Error::CodeGen(format!("{role} '{var}' unbound")))
    }

    /// A relation access: one FROM item whose columns bind `vars` in order.
    /// A variable bound before is an implicit join — it adds an equality
    /// with its first binding instead.
    fn access(&mut self, rel: &str, alias: &str, cols: &[String], vars: &[String]) -> Result<()> {
        if cols.len() != vars.len() {
            return Err(Error::CodeGen(format!(
                "relation '{rel}' has {} columns, access binds {}",
                cols.len(),
                vars.len()
            )));
        }
        self.from.push(table(rel, alias));
        for (col, var) in cols.iter().zip(vars) {
            let expr = SqlExpr::qcol(alias, col);
            match self.bindings.get(var) {
                Some(prev) => {
                    let join = SqlExpr::bin(BinOp::Eq, prev.clone(), expr);
                    self.conditions.push(join);
                }
                None => {
                    self.bindings.insert(var.clone(), expr);
                }
            }
        }
        Ok(())
    }

    /// Index in `from` of the relation accessed under `alias`.
    fn position(&self, alias: &str) -> Result<usize> {
        let named = |t: &TableRef| matches!(t, TableRef::Table { name, alias: a } if a.as_deref().unwrap_or(name) == alias);
        let found = self.from.iter().position(named);
        found.ok_or_else(|| Error::CodeGen(format!("outer join alias '{alias}' unknown")))
    }
}

struct RuleLower {
    env: SchemaEnv,
    /// The CTEs lowered so far, hoisted constant relations included.
    ctes: Vec<Cte>,
    const_counter: usize,
}

impl RuleLower {
    /// Lowers one rule body + head into a [`Select`], pushing any hoisted
    /// constant-relation CTEs.
    fn lower_rule(&mut self, rule: &Rule) -> Result<Select> {
        // Pure constant rule: R(c0) :- (c0 = [...]) becomes a VALUES body.
        if let [Atom::ConstRel { rows, .. }] = rule.body.atoms.as_slice() {
            return Ok(values(rows));
        }
        let mut scope = Scope::default();
        for atom in &rule.body.atoms {
            match atom {
                Atom::ConstRel { vars, rows } => {
                    self.const_counter += 1;
                    let name = format!("const_rel_{}", self.const_counter);
                    scope.access(&name, &name, vars, vars)?;
                    self.ctes.push(Cte {
                        name,
                        columns: Some(vars.clone()),
                        select: values(rows),
                    });
                }
                Atom::Exists {
                    body,
                    keys,
                    negated,
                } => {
                    let test = self.lower_exists(body, keys, *negated, &scope)?;
                    scope.conditions.push(test);
                }
                // Spliced into the FROM clause below.
                Atom::OuterJoin { .. } => {}
                other => self.lower_atom(&mut scope, other)?,
            }
        }
        let mut s = Select::empty();
        s.distinct = rule.head.distinct;
        for (name, var) in &rule.head.cols {
            s.items.push(SelectItem::Expr {
                expr: scope.get("head variable", var)?,
                alias: Some(name.clone()),
            });
        }
        for v in rule.head.group.iter().flatten() {
            s.group_by.push(scope.get("group variable", v)?);
        }
        for (v, asc) in rule.head.sort.iter().flatten() {
            s.order_by.push((scope.get("sort variable", v)?, *asc));
        }
        s.limit = rule.head.limit;
        s.from = outer_from(&rule.body, &scope)?;
        s.where_clause = and_join(scope.conditions);
        Ok(s)
    }

    /// The atoms any body may hold: relation accesses, assignments and
    /// predicates.
    fn lower_atom(&self, scope: &mut Scope, atom: &Atom) -> Result<()> {
        match atom {
            Atom::Rel { rel, alias, vars } => {
                let cols = self.env.columns(rel);
                let cols = cols.map_err(|e| Error::CodeGen(e.message().to_string()))?;
                scope.access(rel, alias, cols, vars)
            }
            Atom::Assign { var, term } => {
                let lowered = self.lower_term(term, scope)?;
                scope.bindings.insert(var.clone(), lowered);
                Ok(())
            }
            Atom::Pred(term) => {
                let lowered = self.lower_term(term, scope)?;
                scope.conditions.push(lowered);
                Ok(())
            }
            other => Err(Error::CodeGen(format!(
                "unsupported atom inside exists: {other:?}"
            ))),
        }
    }

    /// `exists(B)` / `not exists(B)` → `key [NOT] IN (SELECT inner ...)`.
    fn lower_exists(
        &self,
        body: &Body,
        keys: &[(String, String)],
        negated: bool,
        outer: &Scope,
    ) -> Result<SqlExpr> {
        let [(outer_var, inner_var)] = keys else {
            return Err(Error::CodeGen(
                "exists atoms must correlate on exactly one key (isin)".into(),
            ));
        };
        let mut inner = Scope::default();
        for atom in &body.atoms {
            self.lower_atom(&mut inner, atom)?;
        }
        let mut sub = Select::empty();
        sub.items.push(SelectItem::Expr {
            expr: inner.get("exists inner key", inner_var)?,
            alias: None,
        });
        sub.from = inner.from;
        sub.where_clause = and_join(inner.conditions);
        Ok(SqlExpr::InSubquery {
            expr: Box::new(outer.get("exists outer key", outer_var)?),
            query: Box::new(sub),
            negated,
        })
    }

    // ---------------- terms ----------------

    fn lower_term(&self, t: &Term, scope: &Scope) -> Result<SqlExpr> {
        Ok(match t {
            Term::Var(v) => scope.get("variable", v)?,
            Term::Const(c) => lower_const(c),
            Term::Agg { func, arg } => {
                // count over a bare "1" constant means COUNT(*).
                let star = *func == AggFunc::Count && matches!(**arg, Term::Const(Const::Int(1)));
                SqlExpr::Agg {
                    func: match func {
                        AggFunc::Sum => AggName::Sum,
                        AggFunc::Min => AggName::Min,
                        AggFunc::Max => AggName::Max,
                        AggFunc::Avg => AggName::Avg,
                        AggFunc::Count | AggFunc::CountDistinct => AggName::Count,
                    },
                    arg: if star {
                        None
                    } else {
                        Some(Box::new(self.lower_term(arg, scope)?))
                    },
                    distinct: *func == AggFunc::CountDistinct,
                }
            }
            Term::Ext { func, args } => self.lower_ext(func, args, scope)?,
            Term::If { cond, then, els } => SqlExpr::Case {
                arms: vec![(self.lower_term(cond, scope)?, self.lower_term(then, scope)?)],
                else_value: Some(Box::new(self.lower_term(els, scope)?)),
            },
            Term::Bin { op, lhs, rhs } => {
                if matches!(op, ScalarOp::Like | ScalarOp::NotLike) {
                    let Term::Const(Const::Str(pattern)) = rhs.as_ref() else {
                        return Err(Error::CodeGen(
                            "LIKE requires a string-literal pattern".into(),
                        ));
                    };
                    return Ok(SqlExpr::Like {
                        expr: Box::new(self.lower_term(lhs, scope)?),
                        pattern: pattern.clone(),
                        negated: matches!(op, ScalarOp::NotLike),
                    });
                }
                SqlExpr::bin(
                    lower_op(*op),
                    self.lower_term(lhs, scope)?,
                    self.lower_term(rhs, scope)?,
                )
            }
            Term::Not(inner) => SqlExpr::Not(Box::new(self.lower_term(inner, scope)?)),
            Term::IsNull(inner) => SqlExpr::IsNull {
                expr: Box::new(self.lower_term(inner, scope)?),
                negated: false,
            },
        })
    }

    /// External functions lower to their canonical names (see module docs).
    fn lower_ext(&self, func: &str, args: &[Term], scope: &Scope) -> Result<SqlExpr> {
        let lowered: Vec<SqlExpr> = args
            .iter()
            .map(|a| self.lower_term(a, scope))
            .collect::<Result<_>>()?;
        let name = match func {
            "uid" => {
                let order_by = lowered.into_iter().take(1).map(|e| (e, true)).collect();
                return Ok(SqlExpr::RowNumber { order_by });
            }
            "substr" => "SUBSTRING".to_string(),
            "strlen" => "LENGTH".to_string(),
            "year" | "month" | "day" | "round" | "abs" | "floor" | "ceil" | "sqrt" | "power"
            | "upper" | "lower" | "coalesce" | "add_months" | "add_years" | "add_days"
            | "strpos" => func.to_uppercase(),
            other => {
                return Err(Error::CodeGen(format!(
                    "unknown external function '{other}'"
                )))
            }
        };
        Ok(SqlExpr::Func {
            name,
            args: lowered,
        })
    }
}

/// The FROM clause of a body: its outer-join marker atoms splice the
/// relations they name into one JOIN chain; relations no marker touches
/// stay separate (comma-join) FROM items, in atom order.
fn outer_from(body: &Body, scope: &Scope) -> Result<Vec<TableRef>> {
    let mut joined = vec![false; scope.from.len()];
    let mut chain: Option<TableRef> = None;
    for atom in &body.atoms {
        let Atom::OuterJoin {
            kind,
            left,
            right,
            on,
        } = atom
        else {
            continue;
        };
        let (li, ri) = (scope.position(left)?, scope.position(right)?);
        let mut conds = Vec::with_capacity(on.len());
        for (l, r) in on {
            let (l, r) = (
                scope.get("join variable", l)?,
                scope.get("join variable", r)?,
            );
            conds.push(SqlExpr::bin(BinOp::Eq, l, r));
        }
        // Later markers extend the one chain; a left side that is not
        // already part of it would silently drop a relation, so reject
        // disjoint outer-join groups.
        if chain.is_some() && !joined[li] {
            return Err(Error::CodeGen(format!(
                "disjoint outer-join chains are not supported \
                 (alias '{left}' is not part of the join chain)"
            )));
        }
        chain = Some(TableRef::Join {
            left: Box::new(chain.unwrap_or_else(|| scope.from[li].clone())),
            right: Box::new(scope.from[ri].clone()),
            kind: match kind {
                OuterKind::Left => JoinKind::Left,
                OuterKind::Right => JoinKind::Right,
                OuterKind::Full => JoinKind::Full,
            },
            on: and_join(conds),
        });
        joined[li] = true;
        joined[ri] = true;
    }
    let unjoined = scope.from.iter().zip(&joined).filter(|(_, j)| !**j);
    Ok(chain
        .into_iter()
        .chain(unjoined.map(|(t, _)| t.clone()))
        .collect())
}

fn lower_op(op: ScalarOp) -> BinOp {
    match op {
        ScalarOp::Add => BinOp::Add,
        ScalarOp::Sub => BinOp::Sub,
        ScalarOp::Mul => BinOp::Mul,
        ScalarOp::Div => BinOp::Div,
        ScalarOp::Mod => BinOp::Mod,
        ScalarOp::Eq => BinOp::Eq,
        ScalarOp::Ne => BinOp::Ne,
        ScalarOp::Lt => BinOp::Lt,
        ScalarOp::Le => BinOp::Le,
        ScalarOp::Gt => BinOp::Gt,
        ScalarOp::Ge => BinOp::Ge,
        ScalarOp::And => BinOp::And,
        ScalarOp::Or => BinOp::Or,
        ScalarOp::Concat => BinOp::Concat,
        // LIKE / NOT LIKE are handled structurally in `lower_term`.
        ScalarOp::Like | ScalarOp::NotLike => unreachable!("LIKE lowered structurally"),
    }
}

fn lower_const(c: &Const) -> SqlExpr {
    match c {
        Const::Int(i) => SqlExpr::Int(*i),
        Const::Float(f) => SqlExpr::Float(*f),
        Const::Bool(b) => SqlExpr::Bool(*b),
        Const::Str(s) => SqlExpr::Str(s.clone()),
        Const::Date(d) => SqlExpr::DateLit(*d),
        Const::Null => SqlExpr::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, EngineConfig, Profile};
    use pytond_common::{Column, DType, Relation, Value};
    use pytond_tondir::builder::{assign, cmp, head, rel, rule};
    use pytond_tondir::{Head, TableSchema};

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

    fn db() -> Database {
        let db = Database::new();
        db.register(
            "r",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![1, 2, 3, 4])),
                ("b".into(), Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
                ("c".into(), Column::from_f64(vec![0.5, 0.5, 0.5, 0.5])),
            ])
            .unwrap(),
        );
        db
    }

    #[test]
    fn aggregation_rule_lowers_and_runs() {
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "r1".into(),
                    cols: vec![("a".into(), "a".into()), ("s".into(), "s".into())],
                    group: Some(vec!["a".into()]),
                    sort: Some(vec![("a".into(), true)]),
                    limit: None,
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
                ],
            )],
        };
        let db = db();
        let query = lower_program(&p, &catalog()).unwrap();
        let prepared = db.prepare_query(&query, Profile::Vectorized).unwrap();
        let out = db
            .execute_prepared(&prepared, &EngineConfig::default())
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.names(), vec!["a", "s"]);
        assert_eq!(out.column("s").unwrap().get(0), Value::Float(1.0));
    }

    #[test]
    fn lowered_ast_matches_parsed_sql() {
        // The lowered AST for a filter + sort rule is exactly what parsing
        // the equivalent hand-written SQL yields.
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
        let lowered = lower_program(&p, &catalog()).unwrap();
        let parsed = crate::parser::parse_sql(
            "WITH out(a) AS (SELECT r.a AS a FROM r WHERE r.b > 5.0 ORDER BY r.a DESC LIMIT 10) \
             SELECT * FROM out",
        )
        .unwrap();
        assert_eq!(lowered, parsed);
    }

    #[test]
    fn duplicate_rule_names_rejected() {
        let r1 = rule(head("dup", &["a"]), vec![rel("r", "r", &["a", "b", "c"])]);
        let p = Program {
            rules: vec![r1.clone(), r1],
        };
        assert!(lower_program(&p, &catalog()).is_err());
    }

    #[test]
    fn empty_program_rejected() {
        assert!(lower_program(&Program::default(), &catalog()).is_err());
    }

    #[test]
    fn exists_lowers_to_in_subquery() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::Exists {
                        body: Body::new(vec![
                            rel("r", "inner1", &["a2", "b2", "c2"]),
                            cmp(ScalarOp::Gt, Term::var("b2"), Term::float(1.0)),
                        ]),
                        keys: vec![("a".into(), "a2".into())],
                        negated: true,
                    },
                ],
            )],
        };
        let lowered = lower_program(&p, &catalog()).unwrap();
        let parsed = crate::parser::parse_sql(
            "WITH out(a) AS (SELECT r.a AS a FROM r WHERE r.a NOT IN \
             (SELECT inner1.a FROM r AS inner1 WHERE inner1.b > 1.0)) SELECT * FROM out",
        )
        .unwrap();
        assert_eq!(lowered, parsed);
    }

    #[test]
    fn const_rel_hoists_values_cte() {
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
        let lowered = lower_program(&p, &catalog()).unwrap();
        assert_eq!(lowered.ctes.len(), 2);
        assert_eq!(lowered.ctes[0].name, "const_rel_1");
        let db = db();
        let query = lower_program(&p, &catalog()).unwrap();
        let prepared = db.prepare_query(&query, Profile::Vectorized).unwrap();
        let out = db
            .execute_prepared(&prepared, &EngineConfig::default())
            .unwrap();
        assert_eq!(out.num_rows(), 8); // 4 rows × 2 constants
    }
}
