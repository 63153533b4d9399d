//! Appends as pushes: registers TPC-H `lineitem` at SF 0.01 and SF 0.05,
//! appends 40 batches of 1 000 rows to each, and prints what every append
//! did to the table's storage — the chunk count, the rows the new version
//! holds in chunks it does not share with the one before (the rows the
//! append copied: the open zone plus the batch), and the median append time.
//!
//! ```text
//! cargo run --release --example append_trace
//! ```
//!
//! Rows copied are counted from chunk pointer sharing, so they are
//! deterministic: at most `ZONE_ROWS - 1` rows of the open zone plus the
//! batch, whatever the table size (`docs/SERVING.md` § appends).

use pytond_repro::common::Relation;
use pytond_repro::sqldb::stats::ZONE_ROWS;
use pytond_repro::sqldb::table::Chunk;
use pytond_repro::sqldb::Database;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 40;
const BATCH_ROWS: usize = 1_000;

/// The CI bound on rows copied per append: five zones' worth of 1 024 rows,
/// above `ZONE_ROWS + BATCH_ROWS`.
const COPY_BOUND: usize = 5_120;

/// Rows `[i * BATCH_ROWS, (i + 1) * BATCH_ROWS)` of `rel`.
fn batch(rel: &Relation, i: usize) -> Relation {
    let cols = rel.columns().iter().map(|(n, c)| {
        let rows = c.slice(i * BATCH_ROWS, (i + 1) * BATCH_ROWS);
        (n.clone(), rows)
    });
    Relation::new(cols.collect()).expect("sliced columns stay rectangular")
}

fn main() {
    for sf in [0.01, 0.05] {
        let db = Database::new();
        db.register(
            "lineitem",
            pytond_repro::tpch::generate_seeded(sf, 1).lineitem,
        );
        // A second dataset of the same scale supplies the appended rows.
        let more = pytond_repro::tpch::generate_seeded(0.01, 2).lineitem;
        let before = db.table("lineitem").expect("registered");
        println!(
            "lineitem sf={sf}: {} rows in {} chunk(s)",
            before.num_rows(),
            before.chunks.len()
        );
        let (mut copied, mut ms) = (Vec::new(), Vec::new());
        let mut prev = before;
        for i in 0..BATCHES {
            let rows = batch(&more, i);
            let t = Instant::now();
            db.append("lineitem", &rows)
                .expect("batch matches the schema");
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            let next = db.table("lineitem").expect("registered");
            let shared = |c: &Chunk| prev.chunks.iter().any(|p| Arc::ptr_eq(&p.batch, &c.batch));
            let fresh = next.chunks.iter().filter(|c| !shared(c));
            copied.push(fresh.map(|c| c.rows.len()).sum::<usize>());
            prev = next;
        }
        ms.sort_by(f64::total_cmp);
        let max = copied.iter().copied().max().unwrap_or(0);
        println!(
            "  after {BATCHES} appends of {BATCH_ROWS} rows: {} rows in {} chunk(s); \
             rows copied per append: {copied:?}",
            prev.num_rows(),
            prev.chunks.len()
        );
        println!("  append: median {:.3} ms", ms[ms.len() / 2]);
        let verdict = if max <= COPY_BOUND { "<=" } else { ">" };
        println!(
            "copied: sf={sf} max {max} rows per append ({verdict} {COPY_BOUND}; \
             zone {ZONE_ROWS} + batch {BATCH_ROWS})"
        );
    }
}
