//! Seeded random-plan fuzzer for the pipeline driver: random
//! filter → project → join → aggregate chains over small typed tables
//! (NULL-heavy, empty, single-row) run **differentially** — the fused
//! profile (maximal pipelines) at several thread counts against the
//! vectorized one (one operator per pipeline, serial) — and must agree bit
//! for bit
//! (`Value::total_cmp` per cell). The sliced kernel entry points the fused
//! scan uses (`eval_range` / `eval_mask_range`) are additionally checked
//! against selection-vector evaluation and the row-at-a-time
//! `expr::reference` evaluator.
//!
//! The chains are `WITH` pipelines, one CTE per operator: the binder splices
//! every CTE that is referenced once into its reference site and keeps the
//! ones referenced twice as temporaries. A second property writes the same
//! chains with each CTE body spelled out as a derived table at every
//! reference and checks both spellings — single-use chains, and chains whose
//! last step is read twice — return the same rows.
//!
//! The proptest shim (`shims/proptest`) has no shrinking, so failures
//! shrink by hand: ops are greedily dropped from the chain while the
//! divergence persists, and the panic reports the **minimal** failing plan
//! as runnable SQL.

use proptest::prelude::*;
use pytond::{EngineConfig, Profile};
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::ast::BinOp;
use pytond_sqldb::expr::{reference, BExpr};
use pytond_sqldb::table::Batch;
use pytond_sqldb::Database;

mod common;
use common::{cols_bit_identical, diff_cells};

/// Tiny morsels so even fuzz-sized tables cross chunk boundaries inside
/// fused pipelines.
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

/// Probe-side table `t(k, f, v)`: `k` is NULL-heavy (≈⅓), keys land in a
/// tiny domain so joins and group-bys collide constantly.
fn table_t(rows: &[(u8, i64, f64, i64)]) -> Relation {
    let mut k = Column::new(DType::Int);
    for (nk, kv, _, _) in rows {
        if *nk == 0 {
            k.push_null();
        } else {
            k.push(Value::Int(*kv)).unwrap();
        }
    }
    Relation::new(vec![
        ("k".into(), k),
        (
            "f".into(),
            Column::from_f64(rows.iter().map(|r| r.2).collect()),
        ),
        (
            "v".into(),
            Column::from_i64(rows.iter().map(|r| r.3).collect()),
        ),
    ])
    .unwrap()
}

/// Build-side table `r(k, w)`, NULL keys on ≈¼ of rows.
fn table_r(rows: &[(u8, i64, i64)]) -> Relation {
    let mut k = Column::new(DType::Int);
    for (nk, kv, _) in rows {
        if *nk == 0 {
            k.push_null();
        } else {
            k.push(Value::Int(*kv)).unwrap();
        }
    }
    Relation::new(vec![
        ("k".into(), k),
        (
            "w".into(),
            Column::from_i64(rows.iter().map(|r| r.2).collect()),
        ),
    ])
    .unwrap()
}

/// One random plan operator. The chain keeps a fixed output schema
/// `(c0 int, c1 float, c2 int)` so every op composes with every other.
type Op = (u8, i64);

/// The SELECT of step `i + 1`: op `(kind, p)` over step `i`, which stands in
/// FROM as `src` — the CTE's name, or its body as a derived table aliased
/// to that name.
fn step_sql(i: usize, (kind, p): Op, src: &str) -> String {
    let prev = format!("s{i}");
    match kind {
        // Filters: comparisons, NULL tests, conjunction/disjunction.
        0 => {
            let pred = match p % 4 {
                0 => format!("c0 > {}", p % 5),
                1 => format!("c1 < {}.5", p % 7),
                2 => format!("c0 IS NOT NULL AND c2 > {}", p % 9 - 4),
                _ => format!("c0 IS NULL OR c2 < {}", p % 11 - 5),
            };
            format!("SELECT c0 AS c0, c1 AS c1, c2 AS c2 FROM {src} WHERE {pred}")
        }
        // Projections: arithmetic, mixed-type widening, CASE.
        1 => match p % 4 {
            0 => format!("SELECT c0 + 1 AS c0, c1 * 2.0 AS c1, c2 AS c2 FROM {src}"),
            1 => format!(
                "SELECT c0 AS c0, c1 + c2 AS c1, c2 - {} AS c2 FROM {src}",
                p % 5
            ),
            2 => format!("SELECT 0 - c0 AS c0, c1 AS c1, c2 + c2 AS c2 FROM {src}"),
            _ => format!(
                "SELECT c0 AS c0, CASE WHEN c2 > {} THEN c1 ELSE 0.0 - c1 END AS c1, \
                 c2 AS c2 FROM {src}",
                p % 6
            ),
        },
        // Joins against r: inner/left probes, semi/anti via IN / NOT IN
        // subqueries, right/full joins (the sink appends the unmatched
        // build rows), a float-vs-int key (byte-encoded), and r as the
        // left input — so either side may be the smaller, planned build
        // side.
        2 => {
            let join = |how: &str, on: &str| {
                format!(
                    "SELECT {prev}.c0 AS c0, {prev}.c1 AS c1, r.w AS c2 \
                     FROM {src} {how} r ON {on}"
                )
            };
            let on_key = format!("{prev}.c0 = r.k");
            match p % 8 {
                0 => join("JOIN", &on_key),
                1 => join("LEFT JOIN", &on_key),
                2 => format!(
                    "SELECT c0 AS c0, c1 AS c1, c2 AS c2 FROM {src} \
                     WHERE c0 IN (SELECT k FROM r)"
                ),
                3 => format!(
                    "SELECT c0 AS c0, c1 AS c1, c2 AS c2 FROM {src} \
                     WHERE c0 NOT IN (SELECT k FROM r WHERE k IS NOT NULL)"
                ),
                4 => join("RIGHT JOIN", &on_key),
                5 => join("FULL OUTER JOIN", &on_key),
                6 => join("JOIN", &format!("{prev}.c1 = r.w")),
                _ => format!(
                    "SELECT r.k AS c0, {prev}.c1 AS c1, r.w AS c2 \
                     FROM r JOIN {src} ON r.k = {prev}.c0"
                ),
            }
        }
        // Aggregations (pipeline breakers mid-chain; sinks at the end):
        // grouped float SUM (merge-order sensitive) or scalar aggs.
        _ => match p % 2 {
            0 => format!("SELECT c0 AS c0, SUM(c1) AS c1, COUNT(*) AS c2 FROM {src} GROUP BY c0"),
            _ => format!("SELECT MIN(c0) AS c0, AVG(c1) AS c1, COUNT(c2) AS c2 FROM {src}"),
        },
    }
}

const STEP0: &str = "SELECT k AS c0, f AS c1, v AS c2 FROM t";

/// The statement over the last step. `tail = 0` reads it once; the others
/// read it twice — joined to its own group counts, or filtered by its own
/// keys — so as a CTE it stays a shared temporary. `last(alias)` renders
/// one reference to the last step.
fn tail_sql(tail: u8, last: impl Fn(&str) -> String) -> String {
    match tail {
        0 => format!("SELECT c0 AS c0, c1 AS c1, c2 AS c2 FROM {}", last("a")),
        1 => format!(
            "SELECT a.c0 AS c0, a.c1 AS c1, b.n AS c2 FROM {} JOIN \
             (SELECT c0 AS c0, COUNT(*) AS n FROM {} GROUP BY c0) AS b ON a.c0 = b.c0",
            last("a"),
            last("g")
        ),
        _ => format!(
            "SELECT c0 AS c0, c1 AS c1, c2 AS c2 FROM {} WHERE c0 IN (SELECT c0 FROM {})",
            last("a"),
            last("g")
        ),
    }
}

/// Renders an op chain as a CTE pipeline over `t` (joins hit `r`), one CTE
/// per op.
fn chain_sql(ops: &[Op]) -> String {
    with_sql(ops, 0)
}

/// [`chain_sql`] with a choice of tail (see [`tail_sql`]).
fn with_sql(ops: &[Op], tail: u8) -> String {
    let mut ctes = vec![format!("s0 AS ({STEP0})")];
    for (i, &op) in ops.iter().enumerate() {
        ctes.push(format!(
            "s{} AS ({})",
            i + 1,
            step_sql(i, op, &format!("s{i}"))
        ));
    }
    let last = |alias: &str| format!("s{} AS {alias}", ops.len());
    format!("WITH {} {}", ctes.join(", "), tail_sql(tail, last))
}

/// The statement of [`with_sql`] with no CTE: every reference to a step is
/// that step's body, spelled out as a derived table.
fn derived_sql(ops: &[Op], tail: u8) -> String {
    let mut body = STEP0.to_string();
    for (i, &op) in ops.iter().enumerate() {
        body = step_sql(i, op, &format!("({body}) AS s{i}"));
    }
    tail_sql(tail, |alias| format!("({body}) AS {alias}"))
}

/// Runs one chain differentially. `None` = fused and materializing agree at
/// every thread count; `Some(why)` = divergence (a finding). The
/// materializing oracle itself must accept the generated SQL — the
/// generator only emits supported plans.
fn fails(db: &Database, ops: &[Op]) -> Option<String> {
    let sql = chain_sql(ops);
    let reference = match db.execute_sql(&sql, &config(Profile::Vectorized, 1)) {
        Ok(r) => r,
        Err(e) => return Some(format!("oracle rejected generated SQL: {e}\n{sql}")),
    };
    for threads in [1usize, 2, 7] {
        match db.execute_sql(&sql, &config(Profile::Fused, threads)) {
            Ok(fused) => {
                if let Some(d) = diff_cells(&format!("fused@{threads}t"), &reference, &fused) {
                    return Some(d);
                }
            }
            Err(e) => return Some(format!("fused@{threads}t errored where oracle ran: {e}")),
        }
    }
    None
}

/// Hand-rolled shrinking: greedily drop ops while the chain still fails,
/// then panic with the minimal plan.
fn shrink_and_report(db: &Database, ops: &[Op], first_failure: String) -> ! {
    let mut min: Vec<Op> = ops.to_vec();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < min.len() {
            let mut cand = min.clone();
            cand.remove(i);
            if fails(db, &cand).is_some() {
                min = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            break;
        }
    }
    let why = fails(db, &min).unwrap_or(first_failure);
    panic!(
        "fused/materializing divergence; minimal plan ({} of {} ops):\n{}\n{}",
        min.len(),
        ops.len(),
        chain_sql(&min),
        why
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fuzzer: random chains over random NULL-heavy tables (lengths
    /// 0..40 include empty and single-row probe sides) must be
    /// bit-identical fused vs materializing at threads 1/2/7.
    #[test]
    fn random_plans_fused_matches_materializing(
        trows in prop::collection::vec((0u8..3, 0i64..8, -100.0f64..100.0, -20i64..20), 0..40),
        rrows in prop::collection::vec((0u8..4, 0i64..8, 0i64..50), 0..60),
        ops in prop::collection::vec((0u8..4, 0i64..40), 0..6),
    ) {
        let db = Database::new();
        db.register("t", table_t(&trows));
        db.register("r", table_r(&rrows));
        if let Some(why) = fails(&db, &ops) {
            shrink_and_report(&db, &ops, why);
        }
    }
}

/// `Some(why)` when the chain written with CTEs and written with derived
/// tables disagree. The two spellings plan differently (a shared CTE is a
/// barrier to join reordering, a derived table is not), so rows are compared
/// as a multiset and float sums to rounding.
fn spellings_differ(db: &Database, ops: &[Op], tail: u8) -> Option<String> {
    let (with, derived) = (with_sql(ops, tail), derived_sql(ops, tail));
    for cfg in [config(Profile::Vectorized, 1), config(Profile::Fused, 2)] {
        let run = |sql: &str| {
            db.execute_sql(sql, &cfg)
                .map(|r| r.canonicalized())
                .map_err(|e| format!("{e}\n{sql}"))
        };
        match (run(&with), run(&derived)) {
            (Ok(a), Ok(b)) => {
                if let Some(d) = a.diff(&b, 1e-9) {
                    return Some(format!("{:?}: {d}\n{with}\n{derived}", cfg.profile));
                }
            }
            (Err(e), _) | (_, Err(e)) => return Some(e),
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `WITH` chain — read once (every CTE spliced) or with its last step
    /// read twice (that one kept, the rest spliced into it) — returns what
    /// the same statement returns with every CTE body written out in place.
    #[test]
    fn with_chains_match_their_derived_table_spelling(
        trows in prop::collection::vec((0u8..3, 0i64..8, -100.0f64..100.0, -20i64..20), 0..30),
        rrows in prop::collection::vec((0u8..4, 0i64..8, 0i64..50), 0..20),
        ops in prop::collection::vec((0u8..4, 0i64..40), 0..4),
        tail in 0u8..3,
    ) {
        let db = Database::new();
        db.register("t", table_t(&trows));
        db.register("r", table_r(&rrows));
        if let Some(why) = spellings_differ(&db, &ops, tail) {
            panic!("CTE and derived-table spellings diverge: {why}");
        }
    }
}

/// What the fuzzed spellings bind to: a chain read once has no CTE left, a
/// chain whose last step is read twice keeps exactly that one.
#[test]
fn fuzzed_chains_exercise_both_cte_fates() {
    let db = Database::new();
    db.register("t", table_t(&[(1, 3, 0.5, 7)]));
    db.register("r", table_r(&[(1, 3, 30)]));
    let ops = [(0, 1), (2, 0), (3, 0)];
    let once = db.explain_sql(&with_sql(&ops, 0)).unwrap();
    assert!(!once.contains("CTE "), "{once}");
    for tail in [1, 2] {
        let twice = db.explain_sql(&with_sql(&ops, tail)).unwrap();
        assert_eq!(twice.matches("CTE ").count(), 1, "{twice}");
        assert!(twice.contains("CTE s3:"), "{twice}");
        let flat = db.explain_sql(&derived_sql(&ops, tail)).unwrap();
        assert!(!flat.contains("CTE "), "{flat}");
    }
}

/// Deterministic edge grid: every single-op chain (and a probe→aggregate
/// pair) over the empty table and the single-row table.
#[test]
fn edge_tables_every_operator() {
    for trows in [
        vec![],
        vec![(1u8, 3i64, 0.5f64, 7i64)],
        vec![(0, 0, -1.5, -3), (1, 2, 2.5, 4), (1, 2, f64::NAN, 0)],
    ] {
        let db = Database::new();
        db.register("t", table_t(&trows));
        db.register("r", table_r(&[(0, 1, 10), (1, 2, 20), (1, 3, 30)]));
        for kind in 0u8..4 {
            for p in 0i64..8 {
                if let Some(why) = fails(&db, &[(kind, p)]) {
                    panic!("single op ({kind},{p}) over {} rows: {why}", trows.len());
                }
                if let Some(why) = fails(&db, &[(2, p), (3, 0)]) {
                    panic!("probe→agg ({p}) over {} rows: {why}", trows.len());
                }
            }
        }
        // Empty build side: fused probes against a zero-row hash table.
        let db2 = Database::new();
        db2.register("t", table_t(&trows));
        db2.register("r", table_r(&[]));
        for p in 0i64..8 {
            if let Some(why) = fails(&db2, &[(2, p)]) {
                panic!(
                    "probe vs empty build ({p}) over {} rows: {why}",
                    trows.len()
                );
            }
        }
    }
}

// ---------------- sliced kernels vs selection vectors vs reference -------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `eval_range` (the fused scan's entry point) ≡ selection-vector
    /// evaluation ≡ full evaluation + slice, and for binary nodes ≡ the
    /// row-at-a-time reference evaluator over the sliced operands.
    #[test]
    fn range_evaluation_matches_selection_and_reference(
        rows in prop::collection::vec((0u8..4, -50i64..50, 0u8..6, -1e3f64..1e3), 1..80),
        bounds in prop::collection::vec(0usize..100, 2..10),
        opsel in 0u8..11,
    ) {
        let mut ic = Column::new(DType::Int);
        let mut fc = Column::new(DType::Float);
        for &(ni, iv, nf, fv) in &rows {
            if ni == 0 { ic.push_null(); } else { ic.push(Value::Int(iv)).unwrap(); }
            match nf {
                0 => fc.push_null(),
                1 => fc.push(Value::Float(f64::NAN)).unwrap(),
                2 => fc.push(Value::Float(-0.0)).unwrap(),
                _ => fc.push(Value::Float(fv)).unwrap(),
            }
        }
        let batch = Batch::from_columns(vec![ic.clone(), fc.clone()]);
        let op = [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod,
            BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge,
        ][opsel as usize];
        let expr = BExpr::Bin {
            op,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Col(1)),
        };
        let full = expr.eval(&batch, None).unwrap();
        for pair in bounds.chunks_exact(2) {
            let (mut s, mut e) = (pair[0] % rows.len(), pair[1] % (rows.len() + 1));
            if s > e { std::mem::swap(&mut s, &mut e); }
            let ranged = expr.eval_range(&batch, s, e).unwrap();
            let sel: Vec<usize> = (s..e).collect();
            let selected = expr.eval(&batch, Some(&sel)).unwrap();
            prop_assert!(
                cols_bit_identical(&ranged, &selected),
                "range [{s},{e}) vs selection: {ranged:?} vs {selected:?}"
            );
            prop_assert!(
                cols_bit_identical(&ranged, &full.slice(s, e)),
                "range [{s},{e}) vs full+slice: {ranged:?} vs {:?}", full.slice(s, e)
            );
            let slow = reference::eval_bin(op, &ic.slice(s, e), &fc.slice(s, e)).unwrap();
            prop_assert!(
                cols_bit_identical(&ranged, &slow),
                "range [{s},{e}) vs reference: {ranged:?} vs {slow:?}"
            );
        }
    }

    /// `eval_mask_range` ≡ `eval_mask` restricted to the range.
    #[test]
    fn mask_range_matches_selection_mask(
        rows in prop::collection::vec((0u8..4, -20i64..20), 1..60),
        cut in -10i64..10,
        s in 0usize..60,
        e in 0usize..60,
    ) {
        let mut ic = Column::new(DType::Int);
        for &(ni, iv) in &rows {
            if ni == 0 { ic.push_null(); } else { ic.push(Value::Int(iv)).unwrap(); }
        }
        let batch = Batch::from_columns(vec![ic]);
        let pred = BExpr::Bin {
            op: BinOp::Gt,
            l: Box::new(BExpr::Col(0)),
            r: Box::new(BExpr::Lit(Value::Int(cut))),
        };
        let (mut s, mut e) = (s % rows.len(), e % (rows.len() + 1));
        if s > e { std::mem::swap(&mut s, &mut e); }
        let ranged = pred.eval_mask_range(&batch, s, e).unwrap();
        let sel: Vec<usize> = (s..e).collect();
        let masked = pred.eval_mask(&batch, Some(&sel)).unwrap();
        prop_assert!(ranged == masked, "[{s},{e}): {ranged:?} vs {masked:?}");
    }
}

// ---------------- rewrites vs the un-rewritten plan ----------------

/// Render of one input column: `t.v` over the joined tables, `j.t_v` over
/// the join hidden behind a derived table.
type ColRef<'a> = &'a dyn Fn(&str, &str) -> String;

/// One WHERE conjunct the two optimizer rewrites act on: a subquery
/// predicate on one input's key (`IN`, `NOT IN` over a build side that
/// holds NULL keys, uncorrelated `EXISTS`) — a semi/anti join that may
/// sink — or an `OR` of `AND`s across inputs, whose per-input consequences
/// may be derived.
fn rewrite_conjunct(kind: u8, p: i64, c: ColRef<'_>) -> String {
    let input = ["t", "r", "u"][(p % 3) as usize];
    let key = c(input, "k");
    match kind % 6 {
        0 => format!("{key} IN (SELECT k FROM r WHERE w < {})", 10 + p),
        1 => format!("{key} NOT IN (SELECT k FROM r WHERE w < {})", 10 + p),
        2 => format!("{key} NOT IN (SELECT k FROM r WHERE k IS NOT NULL AND w > {p})"),
        3 => format!("EXISTS (SELECT k FROM r WHERE w > {})", 30 + p),
        // Every disjunct reads `t` and one other input.
        4 => format!(
            "({} > {} AND {} < {}) OR ({} < {} AND {} > {})",
            c("t", "v"),
            p % 7 - 3,
            c("r", "w"),
            20 + p,
            c("t", "f"),
            p - 20,
            c("u", "w"),
            p % 30
        ),
        // One disjunct reads `u` alone, one mixes an equality across inputs.
        _ => format!(
            "({} = {} AND {} >= {}) OR {} = {} OR ({} IS NULL AND {} < {})",
            c("t", "k"),
            c("u", "k"),
            c("r", "w"),
            p,
            c("u", "w"),
            p % 50,
            c("r", "k"),
            c("t", "v"),
            p % 11
        ),
    }
}

/// The three-table join: its FROM clause and the join conditions it
/// leaves to the WHERE clause (the last shape cross-joins `u`).
fn rewrite_join(shape: u8) -> (&'static str, Vec<&'static str>) {
    match shape % 3 {
        0 => ("t JOIN r ON t.k = r.k JOIN u ON r.k = u.k", vec![]),
        1 => ("t, r, u", vec!["t.k = r.k", "t.k = u.k"]),
        _ => ("t JOIN r ON t.k = r.k, u", vec![]),
    }
}

const REWRITE_COLS: [(&str, &str); 7] = [
    ("t", "k"),
    ("t", "f"),
    ("t", "v"),
    ("r", "k"),
    ("r", "w"),
    ("u", "k"),
    ("u", "w"),
];

/// The statement, written so the rewrites can fire: the conjuncts sit in
/// the WHERE clause of the join itself.
fn rewritable_sql(shape: u8, conjs: &[(u8, i64)]) -> String {
    let direct = |t: &str, col: &str| format!("{t}.{col}");
    let (from, on) = rewrite_join(shape);
    let mut preds: Vec<String> = on.into_iter().map(str::to_string).collect();
    preds.extend(
        conjs
            .iter()
            .map(|&(k, p)| format!("({})", rewrite_conjunct(k, p, &direct))),
    );
    let cols: Vec<String> = REWRITE_COLS
        .iter()
        .map(|(t, col)| format!("{t}.{col} AS {t}_{col}"))
        .collect();
    let filter = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    format!("SELECT {} FROM {from}{filter}", cols.join(", "))
}

/// The same statement with the join behind a `LIMIT` derived table: no
/// filter passes a LIMIT and no semi join sinks into one, so neither
/// rewrite can fire.
fn unrewritten_sql(shape: u8, conjs: &[(u8, i64)]) -> String {
    let (from, on) = rewrite_join(shape);
    let cols: Vec<String> = REWRITE_COLS
        .iter()
        .map(|(t, col)| format!("{t}.{col} AS {t}_{col}"))
        .collect();
    let on = if on.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", on.join(" AND "))
    };
    let hidden = |t: &str, col: &str| format!("j.{t}_{col}");
    let preds: Vec<String> = conjs
        .iter()
        .map(|&(k, p)| format!("({})", rewrite_conjunct(k, p, &hidden)))
        .collect();
    let filter = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    let outer: Vec<String> = REWRITE_COLS
        .iter()
        .map(|(t, col)| format!("j.{t}_{col} AS {t}_{col}"))
        .collect();
    format!(
        "SELECT {} FROM (SELECT {} FROM {from}{on} LIMIT 1000000000) AS j{filter}",
        outer.join(", "),
        cols.join(", ")
    )
}

fn rewrite_db(
    trows: &[(u8, i64, f64, i64)],
    rrows: &[(u8, i64, i64)],
    urows: &[(u8, i64, i64)],
) -> Database {
    let db = Database::new();
    db.register("t", table_t(trows));
    db.register("r", table_r(rrows));
    db.register("u", table_r(urows));
    db
}

/// `Some(why)` when the rewritable statement and its un-rewritten spelling
/// return different multisets of rows (floats to 1e-9), in either profile.
fn rewrites_differ(db: &Database, shape: u8, conjs: &[(u8, i64)]) -> Option<String> {
    let (sql, oracle) = (rewritable_sql(shape, conjs), unrewritten_sql(shape, conjs));
    for cfg in [config(Profile::Vectorized, 1), config(Profile::Fused, 2)] {
        let run = |sql: &str| {
            db.execute_sql(sql, &cfg)
                .map(|r| r.canonicalized())
                .map_err(|e| format!("{e}\n{sql}"))
        };
        match (run(&sql), run(&oracle)) {
            (Ok(a), Ok(b)) => {
                if let Some(d) = a.diff(&b, 1e-9) {
                    return Some(format!("{:?}: {d}\n{sql}\n{oracle}", cfg.profile));
                }
            }
            (Err(e), _) | (_, Err(e)) => return Some(e),
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Semi/anti-join sinking and derived per-input disjunctions preserve
    /// the rows: three joined tables with NULL-able keys, `IN` / `NOT IN` /
    /// `EXISTS` on one input's key and cross-input `OR`s of `AND`s, against
    /// the same statement with the join where neither rewrite can reach.
    #[test]
    fn rewrites_match_the_unrewritten_plan(
        trows in prop::collection::vec((0u8..3, 0i64..8, -100.0f64..100.0, -20i64..20), 0..30),
        rrows in prop::collection::vec((0u8..4, 0i64..8, 0i64..50), 0..20),
        urows in prop::collection::vec((0u8..4, 0i64..8, 0i64..50), 0..20),
        shape in 0u8..3,
        conjs in prop::collection::vec((0u8..6, 0i64..40), 1..4),
    ) {
        let db = rewrite_db(&trows, &rrows, &urows);
        if let Some(why) = rewrites_differ(&db, shape, &conjs) {
            panic!("rewritten and un-rewritten plans diverge: {why}");
        }
    }
}

/// Whether a `Join Semi` / `Join Anti` line of `plan` has `Scan {table}` as
/// its left (first) input.
fn semi_over_scan(plan: &str, table: &str) -> bool {
    let lines: Vec<&str> = plan.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    lines.windows(2).any(|w| {
        let head = w[0].trim_start();
        (head.starts_with("Join Semi") || head.starts_with("Join Anti"))
            && indent(w[1]) == indent(w[0]) + 2
            && w[1].trim_start().starts_with(&format!("Scan {table} "))
    })
}

/// The fuzzer's statements do reach both rewrites: on a fixed instance, a
/// key `IN` / `NOT IN` lands on its input's scan while the LIMIT spelling
/// keeps it above the join, and a cross-input `OR` leaves a disjunction on
/// the `t` and `u` scans — and every such statement still matches.
#[test]
fn fuzzed_rewrites_fire() {
    let trows: Vec<(u8, i64, f64, i64)> = (0..24)
        .map(|i| ((i % 4) as u8, i % 8, i as f64 * 1.5 - 10.0, i % 13 - 6))
        .collect();
    let rrows: Vec<(u8, i64, i64)> = (0..16).map(|i| ((i % 5) as u8, i % 8, i * 3)).collect();
    let urows: Vec<(u8, i64, i64)> = (0..16)
        .map(|i| ((i % 3) as u8, (i * 3) % 8, i * 2))
        .collect();
    let db = rewrite_db(&trows, &rrows, &urows);
    let mut sunk = 0;
    for shape in 0u8..3 {
        for (kind, p) in [(0u8, 0i64), (1, 1), (2, 2)] {
            let plan = db
                .explain_sql(&rewritable_sql(shape, &[(kind, p)]))
                .unwrap();
            let table = ["t", "r", "u"][(p % 3) as usize];
            sunk += usize::from(semi_over_scan(&plan, table));
            let hidden = db
                .explain_sql(&unrewritten_sql(shape, &[(kind, p)]))
                .unwrap();
            assert!(!semi_over_scan(&hidden, table), "{hidden}");
            assert_eq!(rewrites_differ(&db, shape, &[(kind, p)]), None);
        }
        // Both disjuncts read `t`: it gets their `t` atoms; `r` and `u`
        // are each missing from one disjunct and get nothing.
        let or_on = |plan: &str, table: &str| {
            plan.lines().any(|l| {
                l.trim_start().starts_with(&format!("Scan {table} ")) && l.contains(" OR ")
            })
        };
        let plan = db.explain_sql(&rewritable_sql(shape, &[(4, 5)])).unwrap();
        assert!(or_on(&plan, "t"), "shape {shape}:\n{plan}");
        assert!(
            !or_on(&plan, "r") && !or_on(&plan, "u"),
            "shape {shape}:\n{plan}"
        );
        assert_eq!(rewrites_differ(&db, shape, &[(4, 5)]), None);
        // A disjunct that reads `u` alone leaves `t` nothing to derive.
        let plan = db.explain_sql(&rewritable_sql(shape, &[(5, 3)])).unwrap();
        assert!(!or_on(&plan, "t"), "shape {shape}:\n{plan}");
    }
    assert!(sunk >= 3, "no semi/anti join reached its scan");
}
