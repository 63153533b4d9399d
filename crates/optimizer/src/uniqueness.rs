//! Uniqueness inference: which head columns of each rule form unique keys.
//!
//! Sources (paper, Section III-A): declared constraints in the catalog,
//! `uid()` columns, `group(...)` heads (group keys are unique per output
//! row), and `distinct` heads. Single-source rules propagate the source's
//! unique keys through their variable bindings.
//!
//! **Unique does not mean non-null.** A `group(...)`/`distinct` head keeps a
//! NULL group, and catalog keys are declared, not validated. Uniqueness only
//! says two accesses agreeing on the key read the same row; the join that
//! expressed the agreement also dropped the NULL key, so a consumer may only
//! forget that filter where the key is known non-null. That fact is tracked
//! separately ([`SchemaUnique::position_is_non_null`]): `uid()` columns,
//! catalog columns recorded NULL-free, and whatever a rule binds from such a
//! position of an access that is not outer-joined.

use pytond_common::hash::FxHashMap;
use pytond_tondir::{Atom, Catalog, Program, Rule, Term};

/// Schema-aware uniqueness inference (the entry point passes used by O2/O3).
pub fn infer_with_schemas(program: &Program, catalog: &Catalog) -> SchemaUnique {
    let mut schemas: FxHashMap<String, Vec<String>> = FxHashMap::default();
    for t in catalog.tables() {
        schemas.insert(
            t.name.clone(),
            t.cols.iter().map(|(c, _)| c.clone()).collect(),
        );
    }
    let mut map: FxHashMap<String, Vec<Vec<String>>> = FxHashMap::default();
    let mut non_null: FxHashMap<String, Vec<String>> = FxHashMap::default();
    for t in catalog.tables() {
        map.insert(t.name.clone(), t.unique.clone());
        non_null.insert(t.name.clone(), t.not_null.clone());
    }
    for rule in &program.rules {
        let keys = rule_keys(rule, &schemas, &map);
        let cols = rule_non_null(rule, &schemas, &non_null);
        non_null.insert(rule.head.rel.clone(), cols);
        schemas.insert(
            rule.head.rel.clone(),
            rule.head.cols.iter().map(|(c, _)| c.clone()).collect(),
        );
        map.insert(rule.head.rel.clone(), keys);
    }
    SchemaUnique {
        schemas,
        map,
        non_null,
    }
}

/// Uniqueness facts plus relation schemas (column orders).
#[derive(Debug, Clone)]
pub struct SchemaUnique {
    /// Relation → ordered column names.
    pub schemas: FxHashMap<String, Vec<String>>,
    /// Relation → unique column sets.
    pub map: FxHashMap<String, Vec<Vec<String>>>,
    /// Relation → columns known to hold no NULL.
    pub non_null: FxHashMap<String, Vec<String>>,
}

impl SchemaUnique {
    /// `true` when column `col` (by position) of `rel` is a single-column
    /// unique key.
    pub fn position_is_unique(&self, rel: &str, pos: usize) -> bool {
        let Some(schema) = self.schemas.get(rel) else {
            return false;
        };
        let Some(col) = schema.get(pos) else {
            return false;
        };
        self.map
            .get(rel)
            .map(|keys| keys.iter().any(|k| k.len() == 1 && k[0] == *col))
            .unwrap_or(false)
    }

    /// `true` when column `col` (by position) of `rel` is known to hold no
    /// NULL.
    pub fn position_is_non_null(&self, rel: &str, pos: usize) -> bool {
        let col = self.schemas.get(rel).and_then(|schema| schema.get(pos));
        match (col, self.non_null.get(rel)) {
            (Some(col), Some(cols)) => cols.contains(col),
            _ => false,
        }
    }

    /// `true` when the named columns contain a unique key of `rel`.
    pub fn cols_contain_key(&self, rel: &str, cols: &[String]) -> bool {
        self.map
            .get(rel)
            .map(|keys| {
                keys.iter()
                    .any(|k| !k.is_empty() && k.iter().all(|c| cols.contains(c)))
            })
            .unwrap_or(false)
    }
}

fn rule_keys(
    rule: &Rule,
    schemas: &FxHashMap<String, Vec<String>>,
    map: &FxHashMap<String, Vec<Vec<String>>>,
) -> Vec<Vec<String>> {
    let mut keys: Vec<Vec<String>> = Vec::new();
    if let Some(group) = &rule.head.group {
        let cols: Vec<String> = rule
            .head
            .cols
            .iter()
            .filter(|(_, v)| group.contains(v))
            .map(|(c, _)| c.clone())
            .collect();
        if cols.len() == group.len() {
            keys.push(cols);
        }
    }
    if rule.head.distinct {
        keys.push(rule.head.cols.iter().map(|(c, _)| c.clone()).collect());
    }
    for atom in &rule.body.atoms {
        if let Atom::Assign { var, term } = atom {
            if matches!(term, Term::Ext { func, .. } if func == "uid") {
                for (c, v) in &rule.head.cols {
                    if v == var {
                        keys.push(vec![c.clone()]);
                    }
                }
            }
        }
    }
    let accesses: Vec<(&String, &Vec<String>)> = rule
        .body
        .atoms
        .iter()
        .filter_map(|a| match a {
            Atom::Rel { rel, vars, .. } => Some((rel, vars)),
            _ => None,
        })
        .collect();
    if accesses.len() == 1 && rule.head.group.is_none() {
        let (rel, vars) = accesses[0];
        if let (Some(schema), Some(src_keys)) = (schemas.get(rel), map.get(rel)) {
            for key in src_keys {
                let mut mapped = Vec::new();
                let mut ok = !key.is_empty();
                for col in key {
                    let Some(pos) = schema.iter().position(|c| c == col) else {
                        ok = false;
                        break;
                    };
                    let Some(var) = vars.get(pos) else {
                        ok = false;
                        break;
                    };
                    match rule.head.cols.iter().find(|(_, v)| v == var) {
                        Some((c, _)) => mapped.push(c.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    keys.push(mapped);
                }
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Head columns of `rule` that cannot be NULL: a `uid()` assignment, or a
/// variable bound at a non-null position of an access no outer join pads.
fn rule_non_null(
    rule: &Rule,
    schemas: &FxHashMap<String, Vec<String>>,
    non_null: &FxHashMap<String, Vec<String>>,
) -> Vec<String> {
    let mut padded: Vec<&str> = Vec::new();
    for atom in &rule.body.atoms {
        if let Atom::OuterJoin { left, right, .. } = atom {
            padded.push(left);
            padded.push(right);
        }
    }
    let mut vars: Vec<&str> = Vec::new();
    for atom in &rule.body.atoms {
        match atom {
            Atom::Assign {
                var,
                term: Term::Ext { func, .. },
            } if func == "uid" => vars.push(var),
            Atom::Rel {
                rel,
                alias,
                vars: bound,
            } if !padded.contains(&alias.as_str()) => {
                if let (Some(schema), Some(cols)) = (schemas.get(rel), non_null.get(rel)) {
                    for (col, var) in schema.iter().zip(bound) {
                        if cols.contains(col) {
                            vars.push(var);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    rule.head
        .cols
        .iter()
        .filter(|(_, v)| vars.contains(&v.as_str()))
        .map(|(c, _)| c.clone())
        .collect()
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
                "t",
                vec![("pk".into(), DType::Int), ("x".into(), DType::Int)],
            )
            .with_unique(&["pk"]),
        )
    }

    #[test]
    fn catalog_keys_seed() {
        let p = Program { rules: vec![] };
        let u = infer_with_schemas(&p, &catalog());
        assert!(u.position_is_unique("t", 0));
        assert!(!u.position_is_unique("t", 1));
    }

    #[test]
    fn filters_propagate_keys() {
        let p = Program {
            rules: vec![rule(
                head("v1", &["pk", "x"]),
                vec![rel("t", "t", &["pk", "x"])],
            )],
        };
        let u = infer_with_schemas(&p, &catalog());
        assert!(u.position_is_unique("v1", 0));
    }

    #[test]
    fn group_heads_make_keys() {
        let mut r = rule(
            head("g", &["x", "s"]),
            vec![
                rel("t", "t", &["pk", "x"]),
                assign("s", Term::agg(pytond_tondir::AggFunc::Sum, Term::var("pk"))),
            ],
        );
        r.head.group = Some(vec!["x".into()]);
        let p = Program { rules: vec![r] };
        let u = infer_with_schemas(&p, &catalog());
        assert!(u.cols_contain_key("g", &["x".into(), "s".into()]));
        assert!(u.position_is_unique("g", 0));
    }

    #[test]
    fn uid_columns_are_unique() {
        let r = rule(
            head("v", &["__id", "x"]),
            vec![
                rel("t", "t", &["pk", "x"]),
                assign(
                    "__id",
                    Term::Ext {
                        func: "uid".into(),
                        args: vec![],
                    },
                ),
            ],
        );
        let p = Program { rules: vec![r] };
        let u = infer_with_schemas(&p, &catalog());
        assert!(u.position_is_unique("v", 0));
    }

    /// Group keys are unique yet keep their NULL group; `uid()` and columns
    /// the catalog records NULL-free are non-null, and stay so through rules.
    #[test]
    fn non_null_is_tracked_apart_from_uniqueness() {
        let cat = Catalog::new().with(
            TableSchema::new(
                "t",
                vec![("pk".into(), DType::Int), ("x".into(), DType::Int)],
            )
            .with_unique(&["pk"])
            .with_not_null(&["pk"]),
        );
        let mut g = rule(
            head("g", &["x", "s"]),
            vec![
                rel("t", "t", &["pk", "x"]),
                assign("s", Term::agg(pytond_tondir::AggFunc::Sum, Term::var("pk"))),
            ],
        );
        g.head.group = Some(vec!["x".into()]);
        let v = rule(
            head("v", &["__id", "pk", "x"]),
            vec![
                rel("t", "t", &["pk", "x"]),
                assign(
                    "__id",
                    Term::Ext {
                        func: "uid".into(),
                        args: vec![],
                    },
                ),
            ],
        );
        let w = rule(
            head("w", &["__id"]),
            vec![rel("v", "v", &["__id", "pk", "x"])],
        );
        let u = infer_with_schemas(
            &Program {
                rules: vec![g, v, w],
            },
            &cat,
        );
        assert!(u.position_is_unique("g", 0) && !u.position_is_non_null("g", 0));
        assert!(u.position_is_non_null("t", 0) && !u.position_is_non_null("t", 1));
        assert!(u.position_is_non_null("v", 0) && u.position_is_non_null("v", 1));
        assert!(!u.position_is_non_null("v", 2));
        assert!(u.position_is_non_null("w", 0));
        // Declared unique without the NULL-free record: unique, maybe NULL.
        let u = infer_with_schemas(&Program { rules: vec![] }, &catalog());
        assert!(u.position_is_unique("t", 0) && !u.position_is_non_null("t", 0));
    }

    #[test]
    fn joins_are_conservative() {
        let r = rule(
            head("j", &["pk", "x"]),
            vec![rel("t", "t1", &["pk", "x"]), rel("t", "t2", &["pk", "y"])],
        );
        let p = Program { rules: vec![r] };
        let u = infer_with_schemas(&p, &catalog());
        assert!(!u.position_is_unique("j", 0));
    }
}
