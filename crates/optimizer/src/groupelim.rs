//! Group-aggregate elimination (paper, Section IV): grouping on a unique key
//! makes every group a single row, so aggregates collapse to identities.

use crate::uniqueness::infer_with_schemas;
use pytond_tondir::{AggFunc, Atom, Catalog, Program, Term};

/// Rewrites `R1(k, s) group(k) :- R(k, ...), (s=sum(b))` into
/// `R1(k, s) :- R(k, ...), (s=b)` when `k` is unique in `R`.
pub fn eliminate_group_aggregates(mut program: Program, catalog: &Catalog) -> Program {
    let unique = infer_with_schemas(&program, catalog);
    for rule in &mut program.rules {
        let Some(group) = rule.head.group.clone() else {
            continue;
        };
        // Single relation access, no const rels (cross joins break the
        // single-row-per-group argument).
        let accesses: Vec<(&String, &Vec<String>)> = rule
            .body
            .atoms
            .iter()
            .filter_map(|a| match a {
                Atom::Rel { rel, vars, .. } => Some((rel, vars)),
                _ => None,
            })
            .collect();
        if accesses.len() != 1
            || rule
                .body
                .atoms
                .iter()
                .any(|a| matches!(a, Atom::ConstRel { .. } | Atom::OuterJoin { .. }))
        {
            continue;
        }
        let (rel, vars) = accesses[0];
        // Group vars → source column names.
        let Some(schema) = unique.schemas.get(rel.as_str()) else {
            continue;
        };
        let mut group_cols = Vec::new();
        let mut resolvable = true;
        for g in &group {
            match vars.iter().position(|v| v == g) {
                Some(pos) => group_cols.push(schema[pos].clone()),
                None => {
                    resolvable = false;
                    break;
                }
            }
        }
        if !resolvable || !unique.cols_contain_key(rel, &group_cols) {
            continue;
        }
        // Rewrite: drop the group clause, aggregates become identities.
        rule.head.group = None;
        for atom in &mut rule.body.atoms {
            if let Atom::Assign { term, .. } = atom {
                strip_aggregates(term);
            }
        }
    }
    program
}

/// Replaces aggregates with their single-row equivalents:
/// `sum/min/max/avg(x)` → `x`, `count(x)` → `1`, `count_distinct(x)` → `1`.
fn strip_aggregates(term: &mut Term) {
    if let Term::Agg { func, arg } = term {
        *term = match func {
            AggFunc::Count | AggFunc::CountDistinct => Term::int(1),
            _ => (**arg).clone(),
        };
        strip_aggregates(term);
    } else {
        term.for_each_child_mut(strip_aggregates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::DType;
    use pytond_tondir::builder::*;
    use pytond_tondir::TableSchema;

    fn catalog() -> Catalog {
        Catalog::new().with(
            TableSchema::new(
                "r",
                vec![
                    ("id".into(), DType::Int),
                    ("a".into(), DType::Int),
                    ("b".into(), DType::Float),
                ],
            )
            .with_unique(&["id"]),
        )
    }

    fn grouped_rule(group_var: &str) -> Program {
        let mut r = rule(
            head("r1", &["k", "s"]),
            vec![
                rel("r", "r", &["id", "a", "b"]),
                assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
            ],
        );
        r.head.cols[0] = ("k".into(), group_var.into());
        r.head.group = Some(vec![group_var.to_string()]);
        Program { rules: vec![r] }
    }

    /// The paper's example: group-by-sum on the primary key disappears.
    #[test]
    fn eliminates_group_on_unique_key() {
        let out = eliminate_group_aggregates(grouped_rule("id"), &catalog());
        let r = &out.rules[0];
        assert!(r.head.group.is_none());
        assert!(matches!(
            &r.body.atoms[1],
            Atom::Assign { term: Term::Var(v), .. } if v == "b"
        ));
    }

    #[test]
    fn keeps_group_on_non_unique_column() {
        let out = eliminate_group_aggregates(grouped_rule("a"), &catalog());
        assert!(out.rules[0].head.group.is_some());
    }

    #[test]
    fn count_becomes_one() {
        let mut p = grouped_rule("id");
        p.rules[0].body.atoms[1] = assign("s", Term::agg(AggFunc::Count, Term::var("b")));
        let out = eliminate_group_aggregates(p, &catalog());
        assert!(matches!(
            &out.rules[0].body.atoms[1],
            Atom::Assign {
                term: Term::Const(pytond_tondir::Const::Int(1)),
                ..
            }
        ));
    }

    #[test]
    fn joins_are_not_rewritten() {
        let mut r = rule(
            head("r1", &["k", "s"]),
            vec![
                rel("r", "t1", &["id", "a", "b"]),
                rel("r", "t2", &["id", "a2", "b2"]),
                assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
            ],
        );
        r.head.cols[0] = ("k".into(), "id".into());
        r.head.group = Some(vec!["id".into()]);
        let p = Program { rules: vec![r] };
        let out = eliminate_group_aggregates(p, &catalog());
        assert!(out.rules[0].head.group.is_some());
    }
}
