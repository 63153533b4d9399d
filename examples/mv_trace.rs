//! A standing query absorbing appends through incremental view maintenance:
//! registers a 200 K-row fact table, stands five views over it (a selective
//! filter, a filtered group-by, the same group-by as a `@pytond` program
//! registered through the front door, a `SELECT DISTINCT` — a key-only
//! aggregate — and a sorted top-N that is *not* delta-eligible), streams a
//! few appends, and prints each view's
//! `view_trace` — the `view:` summary line with the refresh mode
//! (`delta` vs `recompute`), rows propagated and refresh time, plus the
//! per-table eligibility matrix (see `docs/VIEWS.md`).
//!
//! Then a `@pytond` self-join on a declared key, which the IR optimizer
//! compiles to a single scan while the key holds no NULL: appending a NULL
//! key breaks that fact, so the view compiles its source again and
//! recomputes, saying why. The example exits non-zero if that view then
//! differs from `Pytond::run` of its source.
//!
//! ```text
//! cargo run --release --example mv_trace
//! ```
//!
//! `Database::view_oracle` recomputes any of them from scratch with the
//! view's own plan — the differential oracle for the delta rules.

use pytond_repro::common::{Column, Relation, Value};
use pytond_repro::pytond::{Backend, Pytond};
use pytond_repro::sqldb::{EngineConfig, Profile};

/// The `rollup` view below, written the way a PyTond user writes it. It
/// lowers to one CTE per rule; the binder splices the chain into one tree,
/// so it classifies — and refreshes — like the hand-written SQL.
const BY_KEY: &str = r#"
@pytond
def by_key(fact):
    low = fact[fact.k < 25]
    return low.groupby(['k']).agg(n=('v', 'count'), sv=('v', 'sum'))
"#;

/// A self-join on the declared key `k`: one scan of `keyed` while `k` holds
/// no NULL, a join (which drops the NULL row) once it does.
const SELF_JOIN: &str = r#"
@pytond
def self_join(keyed):
    return keyed.merge(keyed, on='k')
"#;

/// A `(k, v)` table of the given keys.
fn keyed(k: &[Value]) -> Relation {
    Relation::new(vec![
        ("k".into(), Column::from_values(k).expect("int keys")),
        ("v".into(), Column::from_f64(vec![1.5; k.len()])),
    ])
    .expect("keyed relation")
}

/// `rows` fact rows starting at row id `start`: a group key over 500
/// distinct values and a float measure.
fn fact(start: usize, rows: usize) -> Relation {
    let k: Vec<i64> = (start..start + rows)
        .map(|i| (i as i64).wrapping_mul(2_654_435_761) % 500)
        .collect();
    let v: Vec<f64> = (start..start + rows)
        .map(|i| (i % 9973) as f64 * 0.25)
        .collect();
    Relation::new(vec![
        ("k".into(), Column::from_i64(k)),
        ("v".into(), Column::from_f64(v)),
    ])
    .expect("fact relation")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let py = Pytond::new();
    py.register_table("fact", fact(0, 200_000), &[]);
    let db = py.database();

    let cfg = EngineConfig {
        profile: Profile::Fused,
        ..EngineConfig::default()
    };
    // A chain view (filter/project only → delta = run the plan over the
    // appended rows and splice the survivors on), three aggregate views
    // (delta = resume the aggregate's fold with the appended rows; DISTINCT
    // is an aggregate whose group keys are its columns), and a sorted
    // view (ORDER BY ... LIMIT is order-sensitive, so every append falls
    // back to a full recompute — visibly, in the trace).
    db.register_view_with("hot_rows", "SELECT k, v FROM fact WHERE k = 123", &cfg)?;
    db.register_view_with(
        "rollup",
        "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM fact WHERE k < 25 GROUP BY k",
        &cfg,
    )?;
    py.register_view("by_key", BY_KEY, &Backend::hyper_sim(0))?;
    db.register_view_with("keys", "SELECT DISTINCT k FROM fact WHERE k < 25", &cfg)?;
    db.register_view_with(
        "top5",
        "SELECT k, v FROM fact WHERE k < 25 ORDER BY v DESC, k LIMIT 5",
        &cfg,
    )?;

    println!("--- after registration (mode=initial) ---");
    for name in db.view_names() {
        println!("{}", db.view_trace(&name)?);
    }

    let mut start = 200_000usize;
    for batch in [4_096usize, 0, 1_024] {
        py.append("fact", &fact(start, batch))?;
        start += batch;
        println!("--- after appending {batch} rows ---");
        for name in db.view_names() {
            println!("{}", db.view_trace(&name)?);
        }
    }

    // Every view is bit-identical to a from-scratch recompute of its own
    // plan on the current snapshot — the invariant tests/mv_property.rs
    // checks after every append on every schedule.
    for name in db.view_names() {
        let state = db.view(&name)?;
        let oracle = db.view_oracle(&name)?;
        assert_eq!(state.relation(), &oracle, "{name} drifted from oracle");
        println!(
            "{name}: {} rows, stamped v{}, bit-identical to recompute",
            state.relation().num_rows(),
            state.snapshot_version()
        );
    }

    let keys: Vec<Value> = (0..1_000).map(Value::Int).collect();
    py.register_table("keyed", keyed(&keys), &[&["k"]]);
    py.register_view("self_join", SELF_JOIN, &Backend::hyper_sim(0))?;
    py.append("keyed", &keyed(&[Value::Null, Value::Int(1_000)]))?;
    println!("--- after appending a NULL key to keyed ---");
    println!("{}", db.view_trace("self_join")?);
    let view = db.view("self_join")?.relation().canonicalized();
    let run = py.run(SELF_JOIN, &Backend::hyper_sim(0))?.canonicalized();
    if !view.approx_eq(&run, 0.0) {
        return Err(format!(
            "self_join view holds {} rows, run of its source returns {}",
            view.num_rows(),
            run.num_rows()
        )
        .into());
    }
    println!(
        "self_join: {} rows, equal to run of its source",
        view.num_rows()
    );
    Ok(())
}
