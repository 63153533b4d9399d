//! Small constructors that keep hand-written IR (tests, translator) terse.

use crate::ir::*;

/// Relation-access atom with explicit alias.
pub fn rel(relname: &str, alias: &str, vars: &[&str]) -> Atom {
    Atom::Rel {
        rel: relname.to_string(),
        alias: alias.to_string(),
        vars: vars.iter().map(|v| v.to_string()).collect(),
    }
}

/// Assignment atom.
pub fn assign(var: &str, term: Term) -> Atom {
    Atom::Assign {
        var: var.to_string(),
        term,
    }
}

/// Predicate atom.
pub fn pred(term: Term) -> Atom {
    Atom::Pred(term)
}

/// Comparison predicate atom `lhs op rhs`.
pub fn cmp(op: ScalarOp, lhs: Term, rhs: Term) -> Atom {
    Atom::Pred(Term::bin(op, lhs, rhs))
}

/// Head without modifiers, column names equal to variable names.
pub fn head(relname: &str, vars: &[&str]) -> Head {
    Head::simple(
        relname,
        vars.iter()
            .map(|v| (v.to_string(), v.to_string()))
            .collect(),
    )
}

/// A full rule.
pub fn rule(h: Head, atoms: Vec<Atom>) -> Rule {
    Rule {
        head: h,
        body: Body::new(atoms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let r = rule(
            head("R", &["a"]),
            vec![
                rel("T", "t1", &["a", "b"]),
                cmp(ScalarOp::Gt, Term::var("b"), Term::int(0)),
                assign("c", Term::var("a")),
            ],
        );
        assert_eq!(r.head.rel, "R");
        assert_eq!(r.body.atoms.len(), 3);
        assert!(matches!(&r.body.atoms[1], Atom::Pred(_)));
        assert!(matches!(&r.body.atoms[2], Atom::Assign { .. }));
    }
}
