//! Core data model of TondIR (Table IV of the paper).

use pytond_common::DType;

/// A TondIR program: an ordered list of rules. The head relation of the last
/// rule is the program's result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Rules in dependency order (a rule may only reference base tables and
    /// relations defined by earlier rules).
    pub rules: Vec<Rule>,
}

impl Program {
    /// The relation produced by the program (head of the last rule).
    pub fn output_relation(&self) -> Option<&str> {
        self.rules.last().map(|r| r.head.rel.as_str())
    }

    /// Finds the *last* rule defining `rel` (relations may be redefined by
    /// consecutive rules, e.g. when UID columns are attached).
    pub fn defining_rule(&self, rel: &str) -> Option<&Rule> {
        self.rules.iter().rev().find(|r| r.head.rel == rel)
    }
}

/// A rule `H :- B.`
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The head (output relation, optional group/sort/limit).
    pub head: Head,
    /// The body (chain of atoms).
    pub body: Body,
}

/// A rule head: `X(col=var, ...) [group(vars)] [sort(vars) [limit(n)]]`.
///
/// Each head column pairs the **output column name** with the body variable
/// or assignment that produces it. In the paper's notation the variable name
/// *is* the column name; keeping the pair explicit keeps code generation
/// sound when optimization renames variables (Section III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Head {
    /// Output relation name.
    pub rel: String,
    /// `(output column name, body variable)` pairs, in schema order.
    pub cols: Vec<(String, String)>,
    /// Optional `group(vars)` clause: grouping variables.
    pub group: Option<Vec<String>>,
    /// Optional `sort(var, ascending)` clause.
    pub sort: Option<Vec<(String, bool)>>,
    /// Optional `limit(n)` clause (requires `sort` per the grammar).
    pub limit: Option<u64>,
    /// Distinct projection (`unique` in the paper's flow-breaker table).
    pub distinct: bool,
}

impl Head {
    /// A plain head with neither grouping nor ordering.
    pub fn simple(rel: impl Into<String>, cols: Vec<(String, String)>) -> Head {
        Head {
            rel: rel.into(),
            cols,
            group: None,
            sort: None,
            limit: None,
            distinct: false,
        }
    }

    /// Output column names in order.
    pub fn col_names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The body variable feeding output column `name`.
    pub fn var_of(&self, name: &str) -> Option<&str> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A rule body: a conjunctive chain of atoms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    /// Atoms, in source order (order is semantically irrelevant except that
    /// assignments must precede uses; the translator maintains this).
    pub atoms: Vec<Atom>,
}

impl Body {
    /// Creates a body from atoms.
    pub fn new(atoms: Vec<Atom>) -> Body {
        Body { atoms }
    }

    /// All relation-access atoms as `(alias, rel, vars)`.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &str, &[String])> {
        self.atoms.iter().filter_map(|a| match a {
            Atom::Rel { rel, alias, vars } => Some((alias.as_str(), rel.as_str(), vars.as_slice())),
            _ => None,
        })
    }
}

/// Outer-join kinds carried by the marker atoms of Section III-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterKind {
    /// `outer_left(x)`.
    Left,
    /// `outer_right(x)`.
    Right,
    /// `outer_full(x)`.
    Full,
}

/// A body atom.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// Access to relation `rel`, binding each of its columns positionally to
    /// a variable. `alias` is the unique per-rule instance name (paper:
    /// "Relation Access Renaming").
    Rel {
        /// Source relation (base table or earlier rule's head).
        rel: String,
        /// Unique access alias within the rule.
        alias: String,
        /// One variable per source column, positional.
        vars: Vec<String>,
    },
    /// An inline constant relation `[<c>]`.
    ConstRel {
        /// One variable per column.
        vars: Vec<String>,
        /// Row values.
        rows: Vec<Vec<Const>>,
    },
    /// Existential containment filter `exists(B)` / its negation — the
    /// translation of `isin`. `keys` pairs outer variables with the inner
    /// body's variables they must match.
    Exists {
        /// Inner body.
        body: Body,
        /// `(outer var, inner var)` correlation pairs.
        keys: Vec<(String, String)>,
        /// `true` for `not exists` (anti-join).
        negated: bool,
    },
    /// A boolean filter predicate `x θ t`.
    Pred(Term),
    /// A fresh-variable assignment `x = t` (x not previously defined).
    Assign {
        /// Defined variable.
        var: String,
        /// Defining term.
        term: Term,
    },
    /// Outer-join marker (`ext` atom per Section III-C): relates two relation
    /// accesses of this body by alias with an equi-join condition.
    OuterJoin {
        /// Join kind.
        kind: OuterKind,
        /// Alias of the left relation access.
        left: String,
        /// Alias of the right relation access.
        right: String,
        /// `(left var, right var)` equi-join pairs.
        on: Vec<(String, String)>,
    },
}

/// Aggregation functions usable inside `agg(t)` terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
    /// Row count (`count(*)` when the argument is a bare variable).
    Count,
    /// Count of distinct values.
    CountDistinct,
}

impl AggFunc {
    /// Lower-case name as printed in IR and SQL.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
        }
    }
}

/// Binary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarOp {
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
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// SQL `LIKE` (pattern on the right).
    Like,
    /// SQL `NOT LIKE`.
    NotLike,
    /// String concatenation.
    Concat,
}

impl ScalarOp {
    /// `true` for operators producing booleans.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            ScalarOp::Eq
                | ScalarOp::Ne
                | ScalarOp::Lt
                | ScalarOp::Le
                | ScalarOp::Gt
                | ScalarOp::Ge
                | ScalarOp::And
                | ScalarOp::Or
                | ScalarOp::Like
                | ScalarOp::NotLike
        )
    }

    /// The SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            ScalarOp::Add => "+",
            ScalarOp::Sub => "-",
            ScalarOp::Mul => "*",
            ScalarOp::Div => "/",
            ScalarOp::Mod => "%",
            ScalarOp::Eq => "=",
            ScalarOp::Ne => "<>",
            ScalarOp::Lt => "<",
            ScalarOp::Le => "<=",
            ScalarOp::Gt => ">",
            ScalarOp::Ge => ">=",
            ScalarOp::And => "AND",
            ScalarOp::Or => "OR",
            ScalarOp::Like => "LIKE",
            ScalarOp::NotLike => "NOT LIKE",
            ScalarOp::Concat => "||",
        }
    }
}

/// A constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Date literal (days since epoch; printed as `date 'YYYY-MM-DD'`).
    Date(i32),
    /// SQL NULL.
    Null,
}

impl Const {
    /// The static type if known.
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Const::Int(_) => Some(DType::Int),
            Const::Float(_) => Some(DType::Float),
            Const::Bool(_) => Some(DType::Bool),
            Const::Str(_) => Some(DType::Str),
            Const::Date(_) => Some(DType::Date),
            Const::Null => None,
        }
    }
}

/// A scalar term.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Variable reference.
    Var(String),
    /// Constant.
    Const(Const),
    /// Aggregation `agg(t)`; only valid in rules whose head groups (or that
    /// aggregate to a single row).
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Aggregated term.
        arg: Box<Term>,
    },
    /// External function call `ext(x)`: `uid()`, `year(d)`, `round(x, n)`,
    /// `abs(x)`, `substr(s, a, b)`, `strlen(s)`, ...
    Ext {
        /// Function name (lower-case).
        func: String,
        /// Arguments.
        args: Vec<Term>,
    },
    /// Conditional `if(cond, then, else)`.
    If {
        /// Condition.
        cond: Box<Term>,
        /// Value when true.
        then: Box<Term>,
        /// Value when false.
        els: Box<Term>,
    },
    /// Binary operation `t ⋄ t`.
    Bin {
        /// Operator.
        op: ScalarOp,
        /// Left operand.
        lhs: Box<Term>,
        /// Right operand.
        rhs: Box<Term>,
    },
    /// Logical negation.
    Not(Box<Term>),
    /// NULL test (needed for outer-join results and `fillna`).
    IsNull(Box<Term>),
}

impl Term {
    /// Variable reference shorthand.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Integer constant shorthand.
    pub fn int(v: i64) -> Term {
        Term::Const(Const::Int(v))
    }

    /// Float constant shorthand.
    pub fn float(v: f64) -> Term {
        Term::Const(Const::Float(v))
    }

    /// String constant shorthand.
    pub fn str(v: impl Into<String>) -> Term {
        Term::Const(Const::Str(v.into()))
    }

    /// Binary operation shorthand.
    pub fn bin(op: ScalarOp, lhs: Term, rhs: Term) -> Term {
        Term::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Aggregation shorthand.
    pub fn agg(func: AggFunc, arg: Term) -> Term {
        Term::Agg {
            func,
            arg: Box::new(arg),
        }
    }

    /// `true` if any sub-term is an aggregation.
    pub fn contains_agg(&self) -> bool {
        let mut found = false;
        self.visit(&mut |t| {
            if matches!(t, Term::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Calls `f` on each direct sub-term, in operand order. The one place
    /// that lists a term's children; every walk recurses through it.
    pub fn for_each_child(&self, mut f: impl FnMut(&Term)) {
        match self {
            Term::Agg { arg: t, .. } | Term::Not(t) | Term::IsNull(t) => f(t),
            Term::Ext { args, .. } => args.iter().for_each(f),
            Term::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            Term::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Term::Var(_) | Term::Const(_) => {}
        }
    }

    /// [`Term::for_each_child`] with mutable access.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Term)) {
        match self {
            Term::Agg { arg: t, .. } | Term::Not(t) | Term::IsNull(t) => f(t),
            Term::Ext { args, .. } => args.iter_mut().for_each(f),
            Term::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            Term::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Term::Var(_) | Term::Const(_) => {}
        }
    }

    /// Pre-order visit of the term tree.
    pub fn visit(&self, f: &mut impl FnMut(&Term)) {
        f(self);
        self.for_each_child(|c| c.visit(f));
    }

    /// All variables referenced by the term, in first-use order.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        });
        out
    }

    /// Rewrites every variable through `f` (in place).
    pub fn rename_vars(&mut self, f: &mut impl FnMut(&str) -> Option<String>) {
        if let Term::Var(v) = self {
            if let Some(nv) = f(v) {
                *v = nv;
            }
        }
        self.for_each_child_mut(|c| c.rename_vars(f));
    }

    /// Substitutes whole sub-terms for variables (used by rule inlining).
    pub fn substitute(&mut self, f: &mut impl FnMut(&str) -> Option<Term>) {
        if let Term::Var(v) = self {
            if let Some(t) = f(v) {
                *self = t;
                // Substituted terms are already fully resolved; don't recurse.
                return;
            }
        }
        self.for_each_child_mut(|c| c.substitute(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_term() -> Term {
        // if(a > 1, sum(b * 2), c)
        Term::If {
            cond: Box::new(Term::bin(ScalarOp::Gt, Term::var("a"), Term::int(1))),
            then: Box::new(Term::agg(
                AggFunc::Sum,
                Term::bin(ScalarOp::Mul, Term::var("b"), Term::int(2)),
            )),
            els: Box::new(Term::var("c")),
        }
    }

    /// `f(sum(a), if(not b, isnull(c), d - e), 0)`: every variant, a distinct
    /// variable in every child slot.
    fn every_variant_term() -> Term {
        Term::Ext {
            func: "f".into(),
            args: vec![
                Term::agg(AggFunc::Sum, Term::var("a")),
                Term::If {
                    cond: Box::new(Term::Not(Box::new(Term::var("b")))),
                    then: Box::new(Term::IsNull(Box::new(Term::var("c")))),
                    els: Box::new(Term::bin(ScalarOp::Sub, Term::var("d"), Term::var("e"))),
                },
                Term::int(0),
            ],
        }
    }

    #[test]
    fn vars_collects_in_order_without_duplicates() {
        let t = Term::bin(
            ScalarOp::Add,
            Term::var("x"),
            Term::bin(ScalarOp::Mul, Term::var("y"), Term::var("x")),
        );
        assert_eq!(t.vars(), vec!["x", "y"]);
        assert_eq!(every_variant_term().vars(), vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn contains_agg_detects_nested_aggregates() {
        assert!(sample_term().contains_agg());
        assert!(every_variant_term().contains_agg());
        assert!(!Term::var("a").contains_agg());
    }

    #[test]
    fn rename_vars_rewrites_all_occurrences() {
        let mut t = sample_term();
        t.rename_vars(&mut |v| (v == "b").then(|| "renamed".to_string()));
        assert!(t.vars().contains(&"renamed".to_string()));
        assert!(!t.vars().contains(&"b".to_string()));
        let mut t = every_variant_term();
        t.rename_vars(&mut |v| Some(v.to_uppercase()));
        assert_eq!(t.vars(), vec!["A", "B", "C", "D", "E"]);
    }

    #[test]
    fn substitute_replaces_with_terms() {
        let mut t = Term::bin(ScalarOp::Add, Term::var("x"), Term::var("y"));
        t.substitute(&mut |v| (v == "x").then(|| Term::int(5)));
        assert_eq!(t, Term::bin(ScalarOp::Add, Term::int(5), Term::var("y")));
        let mut t = every_variant_term();
        t.substitute(&mut |_| Some(Term::int(5)));
        assert!(t.vars().is_empty(), "{t:?}");
    }

    #[test]
    fn head_lookup() {
        let h = Head::simple(
            "r",
            vec![("a".into(), "v1".into()), ("b".into(), "v2".into())],
        );
        assert_eq!(h.col_names(), vec!["a", "b"]);
        assert_eq!(h.var_of("b"), Some("v2"));
        assert_eq!(h.var_of("zz"), None);
    }

    #[test]
    fn program_output_and_defining_rule() {
        let r1 = Rule {
            head: Head::simple("t1", vec![("a".into(), "a".into())]),
            body: Body::default(),
        };
        let mut r2 = r1.clone();
        r2.head.rel = "t2".into();
        let p = Program {
            rules: vec![r1, r2],
        };
        assert_eq!(p.output_relation(), Some("t2"));
        assert_eq!(p.defining_rule("t1").unwrap().head.rel, "t1");
    }

    #[test]
    fn scalar_op_predicates() {
        assert!(ScalarOp::Eq.is_predicate());
        assert!(ScalarOp::Like.is_predicate());
        assert!(!ScalarOp::Add.is_predicate());
        assert_eq!(ScalarOp::Ne.sql(), "<>");
    }
}
