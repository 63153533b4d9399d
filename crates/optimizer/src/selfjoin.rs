//! Self-join elimination (paper, Section IV): two accesses to the same
//! relation joined on a unique key collapse into one.

use crate::uniqueness::infer_with_schemas;
use pytond_common::hash::FxHashMap;
use pytond_tondir::{Atom, Catalog, Program, ScalarOp, Term};

/// Merges redundant self-joins. Two `Rel` atoms over the same relation that
/// share a variable bound at a unique-key position reference the *same row*;
/// the second access's variables are substituted by the first's. An equality
/// predicate that expressed the join (`k1 = k2`) becomes the reflexive
/// `k = k` under that substitution. Where the key is known non-null (see
/// [`crate::uniqueness`]) that is a tautology and is dropped; otherwise one
/// `k = k` stays (or is added, for the shared-variable form) as the filter
/// that drops the NULL key the join dropped.
pub fn eliminate_self_joins(mut program: Program, catalog: &Catalog) -> Program {
    let unique = infer_with_schemas(&program, catalog);
    for rule in &mut program.rules {
        while let Some((second, key, key_non_null, renames)) = find_mergeable(rule, &unique) {
            // Rename the second access's variables throughout the rule, then
            // delete the access.
            rule.body.atoms.remove(second);
            let rename = |v: &str| renames.get(v).cloned();
            for atom in &mut rule.body.atoms {
                rename_atom(atom, &rename);
            }
            let mut keep_one = !key_non_null;
            rule.body
                .atoms
                .retain(|a| !is_reflexive_eq(a, &key) || std::mem::take(&mut keep_one));
            if keep_one {
                let k = || Term::var(key.as_str());
                rule.body
                    .atoms
                    .push(Atom::Pred(Term::bin(ScalarOp::Eq, k(), k())));
            }
            for (_, v) in &mut rule.head.cols {
                if let Some(nv) = renames.get(v.as_str()) {
                    *v = nv.clone();
                }
            }
            if let Some(g) = &mut rule.head.group {
                for v in g {
                    if let Some(nv) = renames.get(v.as_str()) {
                        *v = nv.clone();
                    }
                }
            }
            if let Some(s) = &mut rule.head.sort {
                for (v, _) in s {
                    if let Some(nv) = renames.get(v.as_str()) {
                        *v = nv.clone();
                    }
                }
            }
        }
    }
    program
}

fn rename_atom(atom: &mut Atom, rename: &impl Fn(&str) -> Option<String>) {
    match atom {
        Atom::Rel { vars, .. } | Atom::ConstRel { vars, .. } => {
            for v in vars {
                if let Some(nv) = rename(v) {
                    *v = nv;
                }
            }
        }
        Atom::Pred(t) => t.rename_vars(&mut |v| rename(v)),
        Atom::Assign { term, .. } => term.rename_vars(&mut |v| rename(v)),
        Atom::Exists { keys, .. } => {
            for (outer, _) in keys {
                if let Some(nv) = rename(outer) {
                    *outer = nv;
                }
            }
        }
        Atom::OuterJoin { on, .. } => {
            for (l, r) in on {
                if let Some(nv) = rename(l) {
                    *l = nv;
                }
                if let Some(nv) = rename(r) {
                    *r = nv;
                }
            }
        }
    }
}

/// `true` for the predicate `key = key`.
fn is_reflexive_eq(atom: &Atom, key: &str) -> bool {
    let Atom::Pred(Term::Bin {
        op: ScalarOp::Eq,
        lhs,
        rhs,
    }) = atom
    else {
        return false;
    };
    matches!((lhs.as_ref(), rhs.as_ref()), (Term::Var(a), Term::Var(b)) if a == key && b == key)
}

/// Finds a pair of same-relation accesses joined on a unique position.
/// Returns (second access's index, the first access's variable at the unique
/// position that justified the merge, whether that position is known
/// non-null, second-vars → first-vars mapping).
fn find_mergeable(
    rule: &pytond_tondir::Rule,
    unique: &crate::uniqueness::SchemaUnique,
) -> Option<(usize, String, bool, FxHashMap<String, String>)> {
    // Outer-joined aliases must not be merged.
    let mut outer_aliases: Vec<&str> = Vec::new();
    for atom in &rule.body.atoms {
        if let Atom::OuterJoin { left, right, .. } = atom {
            outer_aliases.push(left);
            outer_aliases.push(right);
        }
    }
    let accesses: Vec<(usize, &String, &String, &Vec<String>)> = rule
        .body
        .atoms
        .iter()
        .enumerate()
        .filter_map(|(i, a)| match a {
            Atom::Rel { rel, alias, vars } => Some((i, rel, alias, vars)),
            _ => None,
        })
        .collect();
    // Equality predicates contribute additional join pairs: x = y.
    let mut eqs: Vec<(String, String)> = Vec::new();
    for atom in &rule.body.atoms {
        if let Atom::Pred(Term::Bin {
            op: ScalarOp::Eq,
            lhs,
            rhs,
        }) = atom
        {
            if let (Term::Var(a), Term::Var(b)) = (lhs.as_ref(), rhs.as_ref()) {
                eqs.push((a.clone(), b.clone()));
            }
        }
    }
    let joined = |a: &str, b: &str| -> bool {
        a == b
            || eqs
                .iter()
                .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
    };
    for (ai, (_, rel1, alias1, vars1)) in accesses.iter().enumerate() {
        for (i2, rel2, alias2, vars2) in accesses.iter().skip(ai + 1) {
            if rel1 != rel2 || vars1.len() != vars2.len() {
                continue;
            }
            if outer_aliases.contains(&alias1.as_str()) || outer_aliases.contains(&alias2.as_str())
            {
                continue;
            }
            // A shared (or equated) variable at the same unique position?
            let key = vars1
                .iter()
                .zip(vars2.iter())
                .enumerate()
                .find(|(p, (a, b))| joined(a, b) && unique.position_is_unique(rel1, *p))
                .map(|(p, (a, _))| (a.clone(), unique.position_is_non_null(rel1, p)));
            if let Some((key, key_non_null)) = key {
                let mut renames = FxHashMap::default();
                for (a, b) in vars1.iter().zip(vars2.iter()) {
                    if a != b {
                        renames.insert(b.clone(), a.clone());
                    }
                }
                return Some((*i2, key, key_non_null, renames));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::DType;
    use pytond_tondir::builder::*;
    use pytond_tondir::TableSchema;

    fn schema() -> TableSchema {
        TableSchema::new(
            "r",
            vec![
                ("a".into(), DType::Int),
                ("b".into(), DType::Int),
                ("c".into(), DType::Int),
                ("d".into(), DType::Int),
            ],
        )
        .with_unique(&["a"])
    }

    /// `r` with its key `a` recorded NULL-free.
    fn catalog() -> Catalog {
        Catalog::new().with(schema().with_not_null(&["a"]))
    }

    /// `r` with a declared key that may hold a NULL row.
    fn nullable_key_catalog() -> Catalog {
        Catalog::new().with(schema())
    }

    /// The paper's example: `R1(z) :- R(a,b1,c1,d1), R(a,b2,c2,d2), (z=b1*c2)`
    /// collapses to one access.
    #[test]
    fn merges_unique_key_self_join() {
        let p = Program {
            rules: vec![rule(
                head("r1", &["z"]),
                vec![
                    rel("r", "t1", &["a", "b1", "c1", "d1"]),
                    rel("r", "t2", &["a", "b2", "c2", "d2"]),
                    assign(
                        "z",
                        Term::bin(ScalarOp::Mul, Term::var("b1"), Term::var("c2")),
                    ),
                ],
            )],
        };
        let out = eliminate_self_joins(p, &catalog());
        let accesses = out.rules[0]
            .body
            .atoms
            .iter()
            .filter(|a| matches!(a, Atom::Rel { .. }))
            .count();
        assert_eq!(accesses, 1);
        // z now reads b1 * c1.
        match &out.rules[0].body.atoms[1] {
            Atom::Assign { term, .. } => {
                assert_eq!(
                    *term,
                    Term::bin(ScalarOp::Mul, Term::var("b1"), Term::var("c1"))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_predicate_joins_count() {
        let p = Program {
            rules: vec![rule(
                head("r1", &["b1"]),
                vec![
                    rel("r", "t1", &["a1", "b1", "c1", "d1"]),
                    rel("r", "t2", &["a2", "b2", "c2", "d2"]),
                    cmp(ScalarOp::Eq, Term::var("a1"), Term::var("a2")),
                ],
            )],
        };
        let out = eliminate_self_joins(p, &catalog());
        // One access left, and no reflexive `a1 = a1` where the join was.
        assert_eq!(
            out.rules[0].body.atoms,
            vec![rel("r", "t1", &["a1", "b1", "c1", "d1"])]
        );
    }

    /// A key that may be NULL: the merged access keeps exactly one `k = k`,
    /// the filter the join was — for both forms of the join.
    #[test]
    fn nullable_key_keeps_the_null_filter() {
        let eq_form = vec![
            rel("r", "t1", &["a1", "b1", "c1", "d1"]),
            rel("r", "t2", &["a2", "b2", "c2", "d2"]),
            cmp(ScalarOp::Eq, Term::var("a1"), Term::var("a2")),
        ];
        let shared_form = vec![
            rel("r", "t1", &["a1", "b1", "c1", "d1"]),
            rel("r", "t2", &["a1", "b2", "c2", "d2"]),
        ];
        for body in [eq_form, shared_form] {
            let p = Program {
                rules: vec![rule(head("r1", &["b1"]), body)],
            };
            let out = eliminate_self_joins(p, &nullable_key_catalog());
            assert_eq!(
                out.rules[0].body.atoms,
                vec![
                    rel("r", "t1", &["a1", "b1", "c1", "d1"]),
                    cmp(ScalarOp::Eq, Term::var("a1"), Term::var("a1")),
                ]
            );
        }
    }

    #[test]
    fn non_unique_join_keeps_both() {
        let p = Program {
            rules: vec![rule(
                head("r1", &["c1"]),
                vec![
                    rel("r", "t1", &["a1", "b", "c1", "d1"]),
                    rel("r", "t2", &["a2", "b", "c2", "d2"]), // join on b (not unique)
                ],
            )],
        };
        let out = eliminate_self_joins(p, &catalog());
        let accesses = out.rules[0]
            .body
            .atoms
            .iter()
            .filter(|a| matches!(a, Atom::Rel { .. }))
            .count();
        assert_eq!(accesses, 2);
    }

    #[test]
    fn different_relations_untouched() {
        let cat = catalog()
            .with(TableSchema::new("s", vec![("a".into(), DType::Int)]).with_unique(&["a"]));
        let p = Program {
            rules: vec![rule(
                head("r1", &["a"]),
                vec![
                    rel("r", "t1", &["a", "b", "c", "d"]),
                    rel("s", "t2", &["a"]),
                ],
            )],
        };
        let out = eliminate_self_joins(p, &cat);
        let accesses = out.rules[0]
            .body
            .atoms
            .iter()
            .filter(|a| matches!(a, Atom::Rel { .. }))
            .count();
        assert_eq!(accesses, 2);
    }
}
