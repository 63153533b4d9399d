//! A string-keyed join running fused on packed dictionary codes: registers a
//! 300 K-row fact table and a 400-row dimension keyed by strings, runs a
//! Q9-style join + grouped aggregate under the `Fused` profile, and prints
//! the real `QueryTrace` — the `dict:` summary line and the
//! `probe(inner, dict-key)` pipeline stage (see
//! `docs/EXECUTION.md#dictionary-encoding-string-columns-in-code-space`).
//!
//! ```text
//! cargo run --release --example dict_trace
//! ```

use pytond_repro::common::{Column, Relation};
use pytond_repro::sqldb::{Database, EngineConfig, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 300 K fact rows over 800 distinct string keys; the dimension covers
    // half of them, so the probe both hits and misses.
    let n = 300_000usize;
    let keys: Vec<String> = (0..n)
        .map(|i| format!("supplier-{:04}", i.wrapping_mul(2_654_435_761) % 800))
        .collect();
    let fact = Relation::new(vec![
        (
            "s".into(),
            Column::from_strs(&keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        (
            "v".into(),
            Column::from_f64((0..n).map(|i| (i % 9973) as f64 * 0.25).collect()),
        ),
        ("q".into(), Column::from_i64((0..n as i64).collect())),
    ])?;
    let dim_keys: Vec<String> = (0..400).map(|k| format!("supplier-{k:04}")).collect();
    let dim = Relation::new(vec![
        (
            "s".into(),
            Column::from_strs(&dim_keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        ("w".into(), Column::from_i64((0..400).collect())),
    ])?;

    // `register` dictionary-encodes the string columns at the storage
    // boundary (`register_plain` keeps them plain — the dictionary oracle,
    // whose scans report no encoded columns).
    let db = Database::new();
    db.register("fact", fact);
    db.register("dim", dim);

    let sql = "SELECT dim.s, COUNT(*) AS n, SUM(fact.v) AS sv \
               FROM fact, dim WHERE fact.s = dim.s AND fact.q < 250000 GROUP BY dim.s";
    let cfg = EngineConfig {
        profile: Profile::Fused,
        threads: 4,
        ..EngineConfig::default()
    };
    let (rel, trace) = db.execute_sql_traced(sql, &cfg)?;

    println!("rows: {}", rel.num_rows());
    println!("--- summary ---\n{}", trace.summary());
    if let Some(i) = trace.plan.find("pipelines:") {
        println!("--- pipelines ---\n{}", &trace.plan[i..]);
    }
    Ok(())
}
