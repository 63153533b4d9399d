//! TPC-H end to end: generate the dataset, compile a Pandas-style query,
//! compare against the interpreted baseline, and show the engine backends.
//! Exits with an error when any backend's result differs from the baseline.
//!
//! ```text
//! cargo run --release --example tpch_analytics [-- <query number>]
//! ```

use pytond_repro::pytond::{Backend, Dialect, Pytond};
use pytond_repro::tpch;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let id: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let q = tpch::query(id);
    println!("running TPC-H {} at SF 0.01\n", q.name);

    let data = tpch::generate(0.01);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }

    println!("--- Pandas-style source ---{}", q.source);
    let compiled = py.compile(q.source, Dialect::DuckDb)?;
    println!(
        "--- generated SQL ({} CTE rules after O4) ---",
        compiled.optimized_ir.rules.len()
    );
    println!("{}\n", compiled.sql);

    // Interpreted baseline (the evaluation's "Python" bars).
    let t = Instant::now();
    let expected = q.run_baseline(&data)?;
    println!("interpreted baseline: {:?}", t.elapsed());

    let mut diverged = Vec::new();
    for backend in [
        Backend::duckdb_sim(1),
        Backend::duckdb_sim(4),
        Backend::hyper_sim(1),
        Backend::hyper_sim(4),
    ] {
        let compiled = py.compile(q.source, backend.dialect())?;
        let t = Instant::now();
        let out = py.execute(&compiled, &backend)?;
        let elapsed = t.elapsed();
        let matches = expected
            .canonicalized()
            .approx_eq(&out.canonicalized(), 1e-6);
        println!(
            "{:>14}: {:>10?}  rows={}  matches-baseline={}",
            backend.name(),
            elapsed,
            out.num_rows(),
            matches
        );
        if !matches {
            diverged.push(backend.name());
        }
    }

    println!("\n--- first rows ---\n{}", expected.to_table_string(5));
    if !diverged.is_empty() {
        return Err(format!("{}: {diverged:?} differ from the baseline", q.name).into());
    }
    Ok(())
}
