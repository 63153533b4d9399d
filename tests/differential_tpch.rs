//! Differential testing: every TPC-H query compiled through the full PyTond
//! pipeline (parse → TondIR → optimize → SQL → engine) must produce the same
//! relation as the interpreted `pytond-frame` baseline — across optimization
//! levels and engine profiles.

use pytond::{Backend, OptLevel, Pytond};
use pytond_common::Relation;
use pytond_tpch::{all_queries, generate};

fn instance() -> (Pytond, pytond_tpch::TpchData) {
    let data = generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    (py, data)
}

fn assert_matches(name: &str, expected: &Relation, actual: &Relation, ordered: bool) {
    let (e, a) = if ordered {
        (expected.clone(), actual.clone())
    } else {
        (expected.canonicalized(), actual.canonicalized())
    };
    assert!(
        e.approx_eq(&a, 1e-6),
        "{name}: compiled result diverges from baseline: {:?}\nexpected (first rows):\n{}\nactual:\n{}",
        e.diff(&a, 1e-6),
        e.to_table_string(5),
        a.to_table_string(5)
    );
}

#[test]
fn all_queries_match_baseline_at_o4() {
    let (py, data) = instance();
    let backend = Backend::duckdb_sim(1);
    for q in all_queries() {
        let expected = q.run_baseline(&data).expect(q.name);
        let actual = py
            .run(q.source, &backend)
            .unwrap_or_else(|e| panic!("{} failed to compile/run: {e}", q.name));
        // Row order is part of the contract for sorted queries; TPC-H sorts
        // can tie, so compare canonicalized (sort keys still verified by
        // content equality).
        assert_matches(q.name, &expected, &actual, false);
    }
}

#[test]
fn optimization_levels_preserve_semantics() {
    let (py, data) = instance();
    let backend = Backend::duckdb_sim(1);
    for q in all_queries() {
        let expected = q.run_baseline(&data).expect(q.name);
        for level in OptLevel::all() {
            let actual = py
                .run_at(q.source, &backend, level)
                .unwrap_or_else(|e| panic!("{} at {} failed: {e}", q.name, level.name()));
            assert_matches(
                &format!("{}@{}", q.name, level.name()),
                &expected,
                &actual,
                false,
            );
        }
    }
}

#[test]
fn profiles_and_threads_agree() {
    let (py, data) = instance();
    for id in [3, 6, 12, 18] {
        let q = pytond_tpch::query(id);
        let expected = q.run_baseline(&data).expect(q.name);
        for backend in [
            Backend::duckdb_sim(4),
            Backend::hyper_sim(1),
            Backend::hyper_sim(4),
        ] {
            let actual = py
                .run(q.source, &backend)
                .unwrap_or_else(|e| panic!("{} on {} failed: {e}", q.name, backend.name()));
            assert_matches(
                &format!("{}@{}", q.name, backend.name()),
                &expected,
                &actual,
                false,
            );
        }
    }
}

#[test]
fn lingodb_profile_rejects_q12_but_runs_q6() {
    let (py, _) = instance();
    let q12 = pytond_tpch::query(12);
    let err = py.run(q12.source, &Backend::lingodb_sim(1));
    assert!(err.is_err(), "lingodb-sim unexpectedly ran Q12");
    let q6 = pytond_tpch::query(6);
    assert!(py.run(q6.source, &Backend::lingodb_sim(1)).is_ok());
}

/// The binder splices every CTE that is referenced once into its reference
/// site: the rule-per-CTE chains of Q1, Q3, Q6 and Q13 bind to one tree with
/// no `CTE` section, while the rules two later rules read — Q14's `v4`,
/// Q21's `v2` — stay temporaries, materialized once.
#[test]
fn single_use_ctes_are_spliced_and_shared_ones_stay() {
    let (py, _) = instance();
    let backend = Backend::hyper_sim(1);
    let explain = |id: usize| {
        py.explain(pytond_tpch::query(id).source, &backend, OptLevel::O4)
            .unwrap()
    };
    for id in [1, 3, 6, 13] {
        let plan = explain(id);
        assert!(!plan.contains("CTE "), "Q{id}:\n{plan}");
    }
    for (id, shared) in [(14, "v4"), (21, "v2")] {
        let plan = explain(id);
        assert_eq!(plan.matches("CTE ").count(), 1, "Q{id}:\n{plan}");
        assert!(plan.contains(&format!("CTE {shared}:")), "Q{id}:\n{plan}");
        let scans = plan.matches(&format!("Scan {shared} ")).count();
        assert!(scans >= 2, "Q{id}: {shared} scanned {scans}x\n{plan}");
    }
}

/// Indentation depth of an EXPLAIN line.
fn depth(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The plans the semi-join sinking and the derived disjunctions shape:
/// Q18's `IN` semi join probes the `orders` scan itself, not the
/// `orders ⋈ customer ⋈ lineitem` stream; Q21's two semis stay above the
/// inner joins that shrink their input; Q7's two `nation` scans each carry
/// `n_name = 'FRANCE' OR n_name = 'GERMANY'`, derived from the cross-nation
/// disjunction.
#[test]
fn tpch_plans_pin_the_rewrites() {
    let (py, _) = instance();
    let backend = Backend::hyper_sim(1);
    let explain = |id: usize| {
        py.explain(pytond_tpch::query(id).source, &backend, OptLevel::O4)
            .unwrap()
    };

    let q18 = explain(18);
    let lines: Vec<&str> = q18.lines().collect();
    let semi = lines
        .iter()
        .position(|l| l.trim_start().starts_with("Join Semi"))
        .unwrap_or_else(|| panic!("Q18 has no semi join:\n{q18}"));
    assert!(
        lines[semi + 1].trim_start().starts_with("Scan orders ")
            && depth(lines[semi + 1]) == depth(lines[semi]) + 2,
        "Q18's semi join is not directly over the orders scan:\n{q18}"
    );

    let q21 = explain(21);
    let lines: Vec<&str> = q21.lines().collect();
    let semis: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].trim_start().starts_with("Join Semi"))
        .collect();
    let inners: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].trim_start().starts_with("Join Inner"))
        .collect();
    assert_eq!(semis.len(), 2, "Q21:\n{q21}");
    assert!(!inners.is_empty(), "Q21:\n{q21}");
    for &s in &semis {
        for &i in &inners {
            assert!(
                s < i && depth(lines[s]) < depth(lines[i]),
                "Q21's semi joins moved below an inner join:\n{q21}"
            );
        }
    }

    let q7 = explain(7);
    let nations: Vec<&str> = q7
        .lines()
        .filter(|l| l.trim_start().starts_with("Scan nation "))
        .collect();
    assert_eq!(nations.len(), 2, "Q7:\n{q7}");
    for scan in nations {
        assert!(
            scan.contains(" OR ") && scan.contains("\"FRANCE\"") && scan.contains("\"GERMANY\""),
            "Q7's nation scan lacks the derived n_name disjunction:\n{q7}"
        );
    }
}
