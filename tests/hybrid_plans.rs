//! Pins, on the hybrid programs, the Section IV rewrites firing and the plan
//! getting cheaper (ROADMAP, "the data-science half must have the paper's
//! shape", item (c)): self-join elimination leaves no reflexive predicate
//! behind, so the dead `uid()` goes, the join stops being a flow breaker and
//! O4 runs join + einsum as one `scan → probe → aggregate` pipeline; and the
//! binder computes each mirrored einsum product once.

use pytond_repro::common::{Column, Relation, Value};
use pytond_repro::pytond::{Backend, Dialect, OptLevel, Pytond};
use pytond_repro::tondir::{Atom, Program, Term};
use pytond_repro::workloads::covariance as cov;
use pytond_repro::workloads::{
    hybrid_tables, HYBRID_COVAR_F, HYBRID_COVAR_NF, HYBRID_MV_F, HYBRID_MV_NF,
};

fn hybrid() -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in &hybrid_tables(1) {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    py
}

fn has_uid(p: &Program) -> bool {
    let mut found = false;
    for rule in &p.rules {
        for atom in &rule.body.atoms {
            if let Atom::Assign { term, .. } = atom {
                term.visit(&mut |t| found |= matches!(t, Term::Ext { func, .. } if func == "uid"));
            }
        }
    }
    found
}

/// EXPLAIN (plan + pipeline decomposition) and result of `source` at `level`
/// under the product profile.
fn traced(py: &Pytond, source: &str, level: OptLevel) -> (String, Relation) {
    let backend = Backend::hyper_sim(1);
    let prepared = py.prepare(source, &backend, level).unwrap();
    let (rel, trace) = py
        .database()
        .execute_prepared_traced(&prepared, &backend.config())
        .unwrap();
    (trace.plan, rel)
}

fn assert_close(a: &Relation, b: &Relation) {
    assert_eq!(a.names(), b.names());
    assert_eq!(a.num_rows(), b.num_rows());
    for (name, col) in a.columns() {
        for i in 0..a.num_rows() {
            let (x, y) = (col.get(i), b.get(i, name).unwrap());
            let (x, y) = (x.as_f64().unwrap(), y.as_f64().unwrap());
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "{name}[{i}]: {x} vs {y}"
            );
        }
    }
}

#[test]
fn hybrid_covariance_runs_join_and_einsum_as_one_pipeline() {
    let py = hybrid();
    for source in [HYBRID_COVAR_NF, HYBRID_COVAR_F] {
        let o3 = py.compile_at(source, Dialect::Hyper, OptLevel::O3).unwrap();
        let o4 = py.compile_at(source, Dialect::Hyper, OptLevel::O4).unwrap();
        // The einsum's two accesses merged without leaving `__id = __id`
        // behind, so nothing keeps the generated id (and its `uid()`) alive.
        for c in [&o3, &o4] {
            assert!(!has_uid(&c.optimized_ir), "{}", c.ir_text());
            assert!(!c.ir_text().contains("__id = __id"), "{}", c.ir_text());
        }
        // Without `uid()` the join rule is no flow breaker: O4 inlines it
        // into the aggregate — one rule for join + einsum, one for the
        // reshape of its 1-row result.
        assert_eq!(o4.optimized_ir.rules.len(), 2, "{}", o4.ir_text());
        assert!(o4.optimized_ir.rules.len() < o3.optimized_ir.rules.len());
        let (plan3, out3) = traced(&py, source, OptLevel::O3);
        let (plan4, out4) = traced(&py, source, OptLevel::O4);
        // Every rule is referenced once, so the binder splices the whole
        // chain into one tree: no CTE temporaries at either level.
        for plan in [&plan3, &plan4] {
            assert!(!plan.contains("Window"), "{plan}");
            assert!(!plan.contains("CTE "), "{plan}");
        }
        // The fused trace lists its pipelines: join and einsum are one.
        let shape = if source == HYBRID_COVAR_NF {
            "scan tx → probe(inner) → aggregate"
        } else {
            "scan tx → probe(inner) → filter → aggregate"
        };
        assert!(plan4.contains(shape), "{plan4}");
        assert_close(&out3, &out4);
    }
}

/// Unique is not non-null: a self-join on a group key or on a declared key
/// drops the NULL row, and the merged single access must keep dropping it —
/// every level returns what O0 returns, and so does every way of reaching a
/// plan after the data moved under it: a carried `Compiled`, the plan cache
/// and a standing `@pytond` view. Each of those is held against O0 on a
/// fresh instance loaded with the same rows.
#[test]
fn self_join_merge_keeps_dropping_the_null_key() {
    let k = [Value::Int(1), Value::Int(2), Value::Null, Value::Int(3)];
    let rel = |k: &[Value]| {
        Relation::new(vec![
            ("k".into(), Column::from_values(k).unwrap()),
            ("v".into(), Column::from_f64(vec![1.0; k.len()])),
        ])
        .unwrap()
    };
    let ints = |n: i64| (1..=n).map(Value::Int).collect::<Vec<_>>();
    let backend = Backend::duckdb_sim(1);
    let reference = |source: &str, keys: &[&[&str]], rows: &[Value]| {
        let py = Pytond::new();
        py.register_table("t", rel(rows), keys);
        py.run_at(source, &backend, OptLevel::O0).unwrap()
    };
    let agrees = |want: &Relation, got: &Relation, case: &str| {
        assert!(
            want.canonicalized().approx_eq(&got.canonicalized(), 0.0),
            "{case}: {} rows, O0 on fresh data returns {}",
            got.num_rows(),
            want.num_rows()
        );
    };
    let grouped = "@pytond\ndef q(t):\n    g = t.groupby(['k']).agg(s=('v', 'sum'))\n    return g.merge(g, on='k')\n";
    let declared = "@pytond\ndef q(t):\n    return t.merge(t, on='k')\n";
    for (source, keys) in [(grouped, &[][..]), (declared, &[&["k"][..]][..])] {
        let py = Pytond::new();
        py.register_table("t", rel(&k), keys);
        let o0 = py.run_at(source, &backend, OptLevel::O0).unwrap();
        assert_eq!(o0.num_rows(), 3, "{source}");
        for level in OptLevel::all() {
            let out = py.run_at(source, &backend, level).unwrap();
            assert!(
                o0.canonicalized().approx_eq(&out.canonicalized(), 0.0),
                "{} diverged on {source}",
                level.name()
            );
        }
        // A NULL key arriving by append withdraws the NULL-free record.
        let py = Pytond::new();
        py.register_table("t", rel(&k[..2]), keys);
        py.append("t", &rel(&k[2..])).unwrap();
        let o0 = py.run_at(source, &backend, OptLevel::O0).unwrap();
        let o4 = py.run_at(source, &backend, OptLevel::O4).unwrap();
        assert_eq!((o0.num_rows(), o4.num_rows()), (3, 3), "{source}");

        // 10 rows + [NULL, 11] stays within `REPLAN_GROWTH`: the carried
        // plan and the standing view must still notice the lost fact.
        let batch = [Value::Null, Value::Int(11)];
        let want = reference(source, keys, &[ints(10), batch.to_vec()].concat());
        let py = Pytond::new();
        py.register_table("t", rel(&ints(10)), keys);
        let compiled = py.compile(source, Dialect::DuckDb).unwrap();
        py.register_view("v", source, &backend).unwrap();
        py.append("t", &rel(&batch)).unwrap();
        agrees(
            &want,
            &py.execute(&compiled, &backend).unwrap(),
            "execute within growth",
        );
        agrees(
            &want,
            py.view("v").unwrap().relation(),
            "view after a NULL append",
        );
        agrees(
            &want,
            &py.run(source, &backend).unwrap(),
            "run within growth",
        );
        // Re-registered without the key, as [1, 1, 2]: the view compiles
        // its source again instead of re-binding the program compiled
        // under the key.
        let dup = [Value::Int(1), Value::Int(1), Value::Int(2)];
        py.register_table("t", rel(&dup), &[]);
        let want = reference(source, &[], &dup);
        agrees(
            &want,
            py.view("v").unwrap().relation(),
            "view after re-register",
        );
        agrees(
            &want,
            &py.run(source, &backend).unwrap(),
            "run after re-register",
        );

        // 2 rows + [NULL, 3] is past `REPLAN_GROWTH`: `execute` re-plans
        // first, and must not leave a plan compiled under the old facts in
        // the cache for `run` to find.
        let batch = [Value::Null, Value::Int(3)];
        let want = reference(source, keys, &[ints(2), batch.to_vec()].concat());
        let py = Pytond::new();
        py.register_table("t", rel(&ints(2)), keys);
        let compiled = py.compile(source, Dialect::DuckDb).unwrap();
        py.append("t", &rel(&batch)).unwrap();
        agrees(
            &want,
            &py.execute(&compiled, &backend).unwrap(),
            "execute past growth",
        );
        agrees(
            &want,
            &py.run(source, &backend).unwrap(),
            "run after execute",
        );
    }
}

#[test]
fn hybrid_mv_keeps_its_uid_because_the_id_is_an_output() {
    let py = hybrid();
    for source in [HYBRID_MV_NF, HYBRID_MV_F] {
        let o4 = py.compile_at(source, Dialect::Hyper, OptLevel::O4).unwrap();
        assert!(has_uid(&o4.optimized_ir), "{}", o4.ir_text());
    }
}

#[test]
fn mirrored_einsum_products_bind_once() {
    let d = 16;
    let m = cov::gen_matrix(2_000, d, 1.0, 7);
    let py = Pytond::new();
    py.register_table("m", cov::dense_relation(&m), &[&["__id"]]);
    let (plan, out) = traced(&py, cov::covariance_dense_source(), OptLevel::O4);
    // d·(d+1)/2 distinct sums, not d².
    assert!(plan.contains("Aggregate [0 groups, 136 aggs]"), "{plan}");
    assert!(!plan.contains("where (#0 = #0)"), "{plan}");
    // Mirrored cells read the same aggregate: bit-equal, not just close.
    for i in 0..d {
        for j in 0..d {
            let cell = |r: usize, c: usize| match out.get(r, &format!("c{c}")).unwrap().as_f64() {
                Some(x) => x.to_bits(),
                None => panic!("NULL covariance cell"),
            };
            assert_eq!(cell(i, j), cell(j, i), "cells ({i},{j}) / ({j},{i})");
        }
    }
    // The hybrids bind 10 of their 16.
    let (plan, _) = traced(&hybrid(), HYBRID_COVAR_NF, OptLevel::O4);
    assert!(plan.contains("Aggregate [0 groups, 10 aggs]"), "{plan}");
}
