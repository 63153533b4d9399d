//! The one invariant that keeps SQL text and the in-process engine from
//! disagreeing: there is a single TondIR → SQL lowering
//! (`pytond_sqldb::lower::lower_program`), the dialect printer
//! (`pytond_sqlgen::render`) prints its tree, and the engine's parser reads
//! that text back as **the same tree** — `parse_sql(&render(&q, d)) == q` —
//! for every TPC-H query at O0 and O4, every hybrid/notebook workload, and
//! all three dialects. Equal trees bind to equal plans, so nothing about
//! results or join orders is left to compare; what remains is that the
//! LingoDB profile gate treats both alike, and the facade-level checks below.

use pytond::{Backend, Dialect, OptLevel, Profile, Pytond};
use pytond_sqldb::lower::lower_program;
use pytond_sqldb::parser::parse_sql;
use pytond_tpch::{all_queries, generate};
use pytond_workloads::all_workloads;

const DIALECTS: [Dialect; 3] = [Dialect::DuckDb, Dialect::Hyper, Dialect::LingoDb];

fn tpch_instance() -> Pytond {
    let data = generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    py
}

/// Lowers `source` at `level` and asserts the round trip in every dialect,
/// plus that the LingoDB gate accepts or rejects tree and text alike.
fn assert_round_trips(py: &Pytond, name: &str, source: &str, level: OptLevel) {
    let catalog = py.catalog();
    let raw = pytond_translate::translate_source(source, &catalog).expect("translate");
    let ir = pytond_optimizer::optimize(raw.program, &catalog, level);
    let query = lower_program(&ir, &catalog).unwrap_or_else(|e| panic!("{name}: lower: {e}"));
    for dialect in DIALECTS {
        let text = pytond_sqlgen::render(&query, dialect);
        let parsed = parse_sql(&text)
            .unwrap_or_else(|e| panic!("{name} {level:?} {dialect:?}: {e}\n{text}"));
        assert!(
            parsed == query,
            "{name} {level:?} {dialect:?}: text does not parse back to the lowered tree\n{text}"
        );
    }
    let db = py.database();
    let gate = |prepared: pytond_common::Result<_>| prepared.map(|_| ()).map_err(|e| e.stage());
    let text = pytond_sqlgen::render(&query, Dialect::LingoDb);
    assert_eq!(
        gate(db.prepare_query(&query, Profile::Lingo)),
        gate(db.prepare(&text, Profile::Lingo)),
        "{name} {level:?}: the LingoDB gate tells tree and text apart"
    );
}

#[test]
fn tpch_text_parses_back_to_the_lowered_tree() {
    // O0 keeps every intermediate rule (many more CTEs); O4 is the product.
    let py = tpch_instance();
    for q in all_queries() {
        for level in [OptLevel::O0, OptLevel::O4] {
            assert_round_trips(&py, q.name, q.source, level);
        }
    }
}

#[test]
fn workload_text_parses_back_to_the_lowered_tree() {
    for w in all_workloads(1) {
        let py = Pytond::new();
        for (name, rel, unique) in &w.tables {
            let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
            py.register_table(name, rel.clone(), &keys);
        }
        assert_round_trips(&py, w.name, w.source, OptLevel::O4);
    }
}

#[test]
fn lingo_gated_queries_still_compile_for_export() {
    // The LingoDB profile rejects Q12's SQL shape (aggregates over
    // disjunctive CASE conditions), but `compile` must still produce the
    // SQL export — it targets the paper's real backend; the profile gate
    // fires at execute time, exactly as it did when SQL was the wire format.
    let py = tpch_instance();
    let q12 = pytond_tpch::query(12);
    let compiled = py.compile(q12.source, Dialect::LingoDb).unwrap();
    assert!(compiled.sql.starts_with("WITH"), "export SQL missing");
    let err = py.execute(&compiled, &Backend::lingodb_sim(1));
    assert!(err.is_err(), "lingo gate should fire at execute");
    // The ungated profile runs the same compiled program fine.
    assert!(py.execute(&compiled, &Backend::duckdb_sim(1)).is_ok());
    // And run() on the lingo backend still errors (gate at prepare).
    assert!(py.run(q12.source, &Backend::lingodb_sim(1)).is_err());
}

#[test]
fn facade_run_matches_exported_sql_execution() {
    // End-to-end: `Pytond::run` (cached direct plan) must equal executing
    // the exported SQL text through the engine — the facade-level statement
    // of the same property.
    let py = tpch_instance();
    for id in [3, 6, 12, 18] {
        let q = pytond_tpch::query(id);
        let backend = Backend::duckdb_sim(1);
        let compiled = py.compile(q.source, backend.dialect()).unwrap();
        let via_run = py.run(q.source, &backend).unwrap();
        let via_sql = py
            .database()
            .execute_sql(&compiled.sql, &backend.config())
            .unwrap();
        assert!(
            via_run.approx_eq(&via_sql, 0.0),
            "{}: run() diverges from exported-SQL execution",
            q.name
        );
    }
}
