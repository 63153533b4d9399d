//! The paper's flagship hybrid workload (Figure 2): join two tables with
//! Pandas, compute a covariance matrix with a NumPy einsum, and let PyTond
//! push the whole thing into the database — on both tensor layouts. Prints
//! the hybrid run's trace summary: its join on the dense `id` key builds a
//! direct-addressed index (`direct builds: 1`).
//!
//! ```text
//! cargo run --release --example hybrid_covariance
//! ```

use pytond_repro::ndarray::{einsum, NdArray};
use pytond_repro::pytond::{Backend, Dialect, OptLevel, Pytond};
use pytond_repro::workloads::covariance as cov;
use pytond_repro::workloads::{hybrid_tables, HYBRID_COVAR_NF};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: the hybrid pipeline of the paper's Figure 2 ---
    println!("== hybrid covariance (join → einsum) ==");
    let tables = hybrid_tables(1);
    let py = Pytond::new();
    for (name, rel, unique) in &tables {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    let raw = py.compile_at(HYBRID_COVAR_NF, Dialect::DuckDb, OptLevel::O0)?;
    let opt = py.compile_at(HYBRID_COVAR_NF, Dialect::DuckDb, OptLevel::O4)?;
    println!(
        "TondIR rules: {} before optimization, {} after O4",
        raw.optimized_ir.rules.len(),
        opt.optimized_ir.rules.len()
    );
    let t = Instant::now();
    let (out, trace) = py
        .database()
        .execute_prepared_traced(&opt.prepared, &Backend::hyper_sim(4).config())?;
    println!(
        "covariance matrix ({}x{}) on hyper-sim/4t in {:?}:\n{}",
        out.num_rows(),
        out.num_cols() - 1,
        t.elapsed(),
        out.to_table_string(6)
    );
    // The join on the dense `id` builds a direct-addressed index: the
    // summary's `direct builds:` counts it.
    println!("--- trace summary ---\n{}", trace.summary());

    // --- Part 2: dense vs sparse layouts (the Figure 9 claim) ---
    println!("== dense vs sparse layout at two sparsity points ==");
    for sparsity in [1.0, 0.001] {
        let m = cov::gen_matrix(50_000, 8, sparsity, 99);
        // NumPy-equivalent reference.
        let reference = {
            let t = Instant::now();
            let r = einsum("ij,ik->jk", &[&m, &m])?;
            (r, t.elapsed())
        };
        // Dense relational layout.
        let dense_py = Pytond::new();
        dense_py.register_table("m", cov::dense_relation(&m), &[&["__id"]]);
        let dense = dense_py.compile(cov::covariance_dense_source(), Dialect::DuckDb)?;
        let t = Instant::now();
        dense_py.execute(&dense, &Backend::duckdb_sim(1))?;
        let dense_time = t.elapsed();
        // Sparse COO layout (Blacher et al.).
        let sparse_py = Pytond::new();
        sparse_py.register_table("m", cov::sparse_relation(&m), &[]);
        let sparse = sparse_py.compile(cov::covariance_sparse_source(), Dialect::DuckDb)?;
        let t = Instant::now();
        sparse_py.execute(&sparse, &Backend::duckdb_sim(1))?;
        let sparse_time = t.elapsed();
        println!(
            "sparsity {:>6}: numpy {:>10?}  pytond-dense {:>10?}  pytond-sparse {:>10?}",
            sparsity, reference.1, dense_time, sparse_time
        );
        let _ = NdArray::zeros(vec![1]);
    }
    println!("(sparse wins only when the matrix is mostly zeros — the paper's Figure 9 shape)");
    Ok(())
}
