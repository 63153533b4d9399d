//! Seeded fuzzer for incremental view maintenance: random
//! filter / project / join / aggregate standing views against random
//! append schedules (batch sizes, NULL densities, dict-string keys, NaN
//! floats, empty appends, appends to the join build side) — after **every**
//! append the maintained state must be bit-identical (`Value::total_cmp`)
//! to a from-scratch recompute of the view's own plan on the pinned
//! snapshot, with the stamp exactly at the published version.
//!
//! The proptest shim (`shims/proptest`) has no shrinking, so failures
//! shrink by hand — same harness style as `tests/plan_fuzz.rs`: schedule
//! entries and plan features are greedily dropped while the failure
//! persists, and the panic reports the **minimal** failing (plan, schedule)
//! pair as runnable SQL plus the append list.

use proptest::prelude::*;
use pytond::{EngineConfig, Profile};
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::Database;

mod common;
use common::diff_cells;

/// Tiny morsels so fuzz-sized deltas cross chunk boundaries.
const FUZZ_MORSEL: usize = 16;

fn config(profile: Profile, threads: usize) -> EngineConfig {
    EngineConfig {
        profile,
        threads,
        morsel: FUZZ_MORSEL,
        zone_prune: true,
        ..EngineConfig::default()
    }
}

/// One plan feature: `(kind, param)`. Kinds: 0 = filter conjunct,
/// 1 = projection shape, 2 = join shape, 3 = aggregate shape,
/// 4 = order-sensitive tail (sort / limit / distinct — the recompute
/// fallbacks). Later features of the same kind overwrite earlier ones, so
/// any subset of a failing feature list is still a valid plan (what the
/// greedy shrinker relies on).
type Feat = (u8, i64);

/// One schedule entry: `(table, shape, salt)` — which table grows, the
/// batch shape (size / NULL density / NaN mix), and a content salt.
type Append = (u8, u8, u16);

/// Renders a feature list as one standing-view SELECT over `t(k, f, s)`
/// and `r(k, w)`. Every variant aliases its first output as `c0` so the
/// sort tail composes with every select shape.
fn view_sql(feats: &[Feat]) -> String {
    let mut filter: Vec<i64> = Vec::new();
    let (mut proj, mut join, mut agg, mut tail) = (None, None, None, None);
    for &(kind, p) in feats {
        match kind % 5 {
            0 => filter.push(p),
            1 => proj = Some(p),
            2 => join = Some(p),
            3 => agg = Some(p),
            _ => tail = Some(p),
        }
    }
    let joined = matches!(join, Some(p) if p % 3 < 2);
    let from = match join.map(|p| p % 3) {
        Some(0) => "t JOIN r ON t.k = r.k",
        Some(1) => "t LEFT JOIN r ON t.k = r.k",
        _ => "t",
    };
    let mut preds: Vec<String> = filter
        .iter()
        .map(|p| match p % 6 {
            0 => "t.k >= 40".to_string(),
            1 => format!("t.f < {}.5", 800 + p % 700),
            2 => "t.k IS NOT NULL".to_string(),
            3 => "t.s <> 'lima'".to_string(),
            4 => "t.k < 12".to_string(),
            _ => "t.k IS NULL OR t.k > 90".to_string(),
        })
        .collect();
    if matches!(join, Some(p) if p % 3 == 2) {
        preds.push("t.k IN (SELECT k FROM r)".to_string());
    }
    let (select, group) = if let Some(p) = agg {
        match (p % 4, joined) {
            (0, _) => (
                "t.s AS c0, SUM(t.f) AS a1, COUNT(*) AS a2".to_string(),
                " GROUP BY t.s",
            ),
            (1, _) => (
                "t.k AS c0, MIN(t.f) AS a1, MAX(t.s) AS a2, AVG(t.f) AS a3".to_string(),
                " GROUP BY t.k",
            ),
            (2, _) => (
                "SUM(t.f) AS c0, AVG(t.f) AS a1, COUNT(t.k) AS a2".to_string(),
                "",
            ),
            (_, true) => (
                "t.s AS c0, SUM(r.w) AS a1, COUNT(*) AS a2".to_string(),
                " GROUP BY t.s",
            ),
            (_, false) => ("t.s AS c0, SUM(t.f) AS a1".to_string(), " GROUP BY t.s"),
        }
    } else {
        match (proj.map(|p| p % 4), joined) {
            (Some(1), _) => ("t.k + 1 AS c0, t.f * 2.0 AS c1".to_string(), ""),
            (Some(2), _) => (
                "CASE WHEN t.k > 50 THEN t.f ELSE 0.0 - t.f END AS c0, t.s AS c1".to_string(),
                "",
            ),
            (Some(3), true) => ("t.k AS c0, r.w AS c1, t.f + r.w AS c2".to_string(), ""),
            _ => ("t.k AS c0, t.f AS c1, t.s AS c2".to_string(), ""),
        }
    };
    let distinct = matches!(tail, Some(p) if p % 4 == 3) && agg.is_none();
    let where_clause = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    let tail_clause = match tail.map(|p| p % 4) {
        Some(0) => " ORDER BY c0",
        Some(1) => " LIMIT 7",
        Some(2) => " ORDER BY c0 LIMIT 5",
        _ => "",
    };
    format!(
        "SELECT {}{select} FROM {from}{where_clause}{group}{tail_clause}",
        if distinct { "DISTINCT " } else { "" },
    )
}

/// The base probe table `t(k, f, s)`: nullable small-domain int keys,
/// rounding-sensitive floats (NaN sprinkled in), dict-string keys.
fn t_rel(start: usize, rows: usize, null_every: usize, salt: u64) -> Relation {
    let mut k = Column::new(DType::Int);
    let mut f = Column::new(DType::Float);
    let mut s = Column::new(DType::Str);
    let cities = ["tokyo", "lima", "oslo", "cairo", "quito", "perth"];
    for i in start..start + rows {
        if null_every > 0 && i % null_every == 0 {
            k.push_null();
        } else {
            k.push(Value::Int(((i as u64).wrapping_mul(salt | 1) % 97) as i64))
                .unwrap();
        }
        let fv = if salt % 13 == 0 && i % 29 == 0 {
            f64::NAN
        } else {
            (i as f64) * 0.618_033_988_749 + (salt % 7) as f64
        };
        f.push(Value::Float(fv)).unwrap();
        s.push(Value::Str(
            cities[(i + salt as usize) % cities.len()].to_string(),
        ))
        .unwrap();
    }
    Relation::new(vec![("k".into(), k), ("f".into(), f), ("s".into(), s)]).unwrap()
}

/// The build-side table `r(k, w)`.
fn r_rel(start: usize, rows: usize, salt: u64) -> Relation {
    Relation::new(vec![
        (
            "k".into(),
            Column::from_i64(
                (start..start + rows)
                    .map(|i| ((i as u64).wrapping_mul(salt | 1) % 97) as i64)
                    .collect(),
            ),
        ),
        (
            "w".into(),
            Column::from_f64((start..start + rows).map(|i| i as f64 * 1.5).collect()),
        ),
    ])
    .unwrap()
}

/// Batch shapes: empty, single-row, small, mid-size NULL-heavy, large.
fn append_rel(table: u8, shape: u8, salt: u16, step: usize) -> (&'static str, Relation) {
    let start = 5_000 + step * 1_000 + salt as usize;
    let (rows, null_every) = match shape % 5 {
        0 => (0, 0),
        1 => (1, 0),
        2 => (19, 3),
        3 => (160, 1),
        _ => (420, 0),
    };
    if table % 2 == 0 {
        ("t", t_rel(start, rows, null_every, salt as u64))
    } else {
        ("r", r_rel(start, rows / 2, salt as u64))
    }
}

/// Runs one (plan, schedule) case. `None` = the maintained view matched a
/// from-scratch recompute on the pinned snapshot after every append;
/// `Some(why)` = a maintenance bug (a finding). The oracle itself must
/// accept the generated SQL — the generator only emits supported plans.
fn fails(feats: &[Feat], sched: &[Append], threads: usize) -> Option<String> {
    let sql = view_sql(feats);
    let db = Database::new();
    db.register("t", t_rel(0, 2_000, 7, 3));
    db.register("r", r_rel(0, 97, 1));
    if let Err(e) = db.register_view_with("v", &sql, &config(Profile::Fused, threads)) {
        return Some(format!("register_view rejected generated SQL: {e}\n{sql}"));
    }
    for (step, &(table, shape, salt)) in sched.iter().enumerate() {
        let (name, rel) = append_rel(table, shape, salt, step);
        if let Err(e) = db.append(name, &rel) {
            return Some(format!("append {} rows to {name}: {e}", rel.num_rows()));
        }
        let snap = db.snapshot();
        let state = match db.view("v") {
            Ok(s) => s,
            Err(e) => return Some(format!("step {step}: view read failed: {e}")),
        };
        if state.snapshot_version() != snap.version() {
            return Some(format!(
                "step {step}: stamp v{} lags published v{}",
                state.snapshot_version(),
                snap.version()
            ));
        }
        let oracle = match db.view_oracle_at("v", &snap) {
            Ok(r) => r,
            Err(e) => return Some(format!("step {step}: oracle failed: {e}")),
        };
        if let Some(d) = diff_cells(&format!("step {step} ({name})"), &oracle, state.relation()) {
            return Some(d);
        }
    }
    None
}

/// Hand-rolled shrinking: greedily drop schedule entries, then plan
/// features, while the case still fails; panic with the minimal pair.
fn shrink_and_report(feats: &[Feat], sched: &[Append], threads: usize, first: String) -> ! {
    let mut mf: Vec<Feat> = feats.to_vec();
    let mut ms: Vec<Append> = sched.to_vec();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < ms.len() {
            let mut cand = ms.clone();
            cand.remove(i);
            if fails(&mf, &cand, threads).is_some() {
                ms = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < mf.len() {
            let mut cand = mf.clone();
            cand.remove(i);
            if fails(&cand, &ms, threads).is_some() {
                mf = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            break;
        }
    }
    let why = fails(&mf, &ms, threads).unwrap_or(first);
    let appends: Vec<String> = ms
        .iter()
        .enumerate()
        .map(|(step, &(t, sh, sa))| {
            let (name, rel) = append_rel(t, sh, sa, step);
            format!(
                "append {} rows to {name} (shape {sh}, salt {sa})",
                rel.num_rows()
            )
        })
        .collect();
    panic!(
        "maintained view diverged from recompute; minimal case \
         ({} of {} features, {} of {} appends) at {threads} threads:\n{}\n{}\n{}",
        mf.len(),
        feats.len(),
        ms.len(),
        sched.len(),
        view_sql(&mf),
        appends.join("\n"),
        why
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fuzzer: random view plans × random append schedules must stay
    /// bit-identical to recompute after every append.
    #[test]
    fn random_views_match_recompute_after_every_append(
        feats in prop::collection::vec((0u8..5, 0i64..40), 0..6),
        sched in prop::collection::vec((0u8..2, 0u8..5, 0u16..1000), 1..5),
        tsel in 0u8..3,
    ) {
        let threads = [1usize, 2, 7][tsel as usize];
        if let Some(why) = fails(&feats, &sched, threads) {
            shrink_and_report(&feats, &sched, threads, why);
        }
    }
}

/// Deterministic edge grid: every single plan feature against every batch
/// shape on both tables — covers empty appends, single-row appends,
/// NULL-heavy batches and build-side growth for each maintenance class.
#[test]
fn edge_grid_every_feature_and_batch_shape() {
    for kind in 0u8..5 {
        for p in 0i64..4 {
            for table in 0u8..2 {
                for shape in 0u8..5 {
                    let feats = [(kind, p)];
                    let sched = [(table, shape, 11u16)];
                    if let Some(why) = fails(&feats, &sched, 2) {
                        panic!(
                            "feature ({kind},{p}) × append (table {table}, shape {shape}): \
                             {why}\n{}",
                            view_sql(&feats)
                        );
                    }
                }
            }
        }
    }
}

/// A multi-feature plan absorbing a long mixed schedule (both tables grow,
/// interleaved with empty batches) stays exact throughout.
#[test]
fn long_mixed_schedule_stays_exact() {
    let feats = [(0u8, 1i64), (2, 0), (3, 3)];
    let sched: Vec<Append> = (0..10)
        .map(|i| ((i % 2) as u8, (i % 5) as u8, (i * 37 % 1000) as u16))
        .collect();
    for threads in [1usize, 7] {
        if let Some(why) = fails(&feats, &sched, threads) {
            panic!("long schedule at {threads} threads: {why}");
        }
    }
}
