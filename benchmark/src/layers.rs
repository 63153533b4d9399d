//! The traced run's calls: the facade's `compile_at` and `run` taken apart
//! at their internal layer boundaries, each boundary timed from outside as a
//! span with the work counts available there.

use crate::run::{default_config, parallel_backend, Bench, Tally};
use crate::stats::geomean;
use crate::trace::{Span, Tracer};
use pytond::{Backend, Dialect, OptLevel, PreparedQuery, Pytond};
use pytond_common::{Error, Relation, Result};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metric name → span name, for the seven compile layers in the
/// order `Pytond::compile_at` calls them.
pub const COMPILE_LAYERS: [(&str, &str); 7] = [
    ("pyparse.parse_us", "pyparse.parse"),
    ("translate.translate_us", "translate.translate"),
    ("tondir.validate_us", "tondir.validate"),
    ("optimizer.optimize_us", "optimizer.optimize"),
    ("sqlgen.generate_us", "sqlgen.generate"),
    ("sqldb.lower_us", "sqldb.lower"),
    ("sqldb.bind_plan_us", "sqldb.bind_plan"),
];

/// Work counts and executor counters of one traced execution.
fn exec_counts(rel: &Relation, trace: &pytond_sqldb::QueryTrace) -> Vec<(&'static str, f64)> {
    let m = &trace.metrics;
    let mut counts = vec![
        ("rows_out", rel.num_rows() as f64),
        ("queue_wait_ns", m.queue_wait_ns as f64),
        ("zones_scanned", m.morsels_scanned as f64),
        ("zones_pruned", m.morsels_pruned as f64),
        ("pipelines", m.pipelines as f64),
        ("intermediates_avoided", m.intermediates_avoided as f64),
        ("mem_peak_bytes", m.mem_peak_bytes as f64),
        ("dict_cols_decoded", m.dict_decoded_cols as f64),
        ("partitions_built", m.partitions_built as f64),
    ];
    let claims = &m.morsels_claimed_per_worker;
    let total: u64 = claims.iter().sum();
    if claims.len() >= 2 && total > 0 {
        let mean = total as f64 / claims.len() as f64;
        let max = claims.iter().copied().max().unwrap_or(0) as f64;
        counts.push(("claim_skew", max / mean));
    }
    counts
}

/// `Pytond::run` taken apart at its one internal boundary: plan-cache
/// lookup or re-plan (`Pytond::prepare`), then the traced execution.
pub fn run_traced(
    py: &Pytond,
    source: &str,
    backend: &Backend,
    root_name: &'static str,
    tr: &mut Tracer,
) -> Result<Relation> {
    let (op, root) = (tr.next_id(), tr.next_id());
    let start_ns = tr.now_ns();
    let prepared = tr.span(op, Some(root), "core.prepare", || {
        (py.prepare(source, backend, OptLevel::O4), vec![])
    });
    let out = prepared.and_then(|prepared| {
        tr.span(op, Some(root), "sqldb.execute", || {
            let db = py.database();
            match db.execute_prepared_traced(&prepared, &backend.config()) {
                Ok((rel, trace)) => {
                    let counts = exec_counts(&rel, &trace);
                    (Ok(rel), counts)
                }
                Err(e) => (Err(e), vec![]),
            }
        })
    });
    tr.close_root(op, root, root_name, start_ns, vec![]);
    out
}

/// `Pytond::compile_at` taken apart into its seven layer calls, in the
/// facade's order. Returns the plan and the nanoseconds its layer spans
/// cover.
fn compile_traced(
    py: &Pytond,
    source: &str,
    tokens: f64,
    dialect: Dialect,
    level: OptLevel,
    tr: &mut Tracer,
) -> Result<(PreparedQuery, u64)> {
    let (op, root) = (tr.next_id(), tr.next_id());
    let start_ns = tr.now_ns();
    let first_span = tr.spans.len();
    let parent = Some(root);
    let catalog = py.catalog();
    let module = tr.span(op, parent, "pyparse.parse", || {
        let out = pytond_pyparse::parse_module(source);
        (out, vec![("tokens", tokens)])
    })?;
    let func = *module
        .decorated_functions("pytond")
        .first()
        .ok_or_else(|| Error::Translate("no @pytond-decorated function found".into()))?;
    let raw = tr.span(op, parent, "translate.translate", || {
        let out = pytond_translate::translate_function(func, &catalog);
        let rules = out.as_ref().map_or(0, |p| p.rules.len());
        (out, vec![("rules_out", rules as f64)])
    })?;
    tr.span(op, parent, "tondir.validate", || {
        let out = pytond_tondir::analysis::validate(&raw, &catalog);
        (out, vec![("rules", raw.rules.len() as f64)])
    })?;
    let optimized = tr.span(op, parent, "optimizer.optimize", || {
        let rules_in = raw.rules.len() as f64;
        let out = pytond_optimizer::optimize(raw.clone(), &catalog, level);
        let counts = vec![
            ("rules_in", rules_in),
            ("rules_out", out.rules.len() as f64),
        ];
        (out, counts)
    });
    tr.span(op, parent, "tondir.validate", || {
        let out = pytond_tondir::analysis::validate(&optimized, &catalog);
        (out, vec![("rules", optimized.rules.len() as f64)])
    })?;
    tr.span(op, parent, "sqlgen.generate", || {
        let out = pytond_sqlgen::generate_sql(&optimized, &catalog, dialect);
        let bytes = out.as_ref().map_or(0, String::len);
        (out, vec![("sql_bytes", bytes as f64)])
    })?;
    let query = tr.span(op, parent, "sqldb.lower", || {
        let out = pytond_sqldb::lower::lower_program(&optimized, &catalog);
        let ctes = out.as_ref().map_or(0, |q| q.ctes.len());
        (out, vec![("ctes", ctes as f64)])
    })?;
    let prepared = tr.span(op, parent, "sqldb.bind_plan", || {
        let profile = Backend::profile_for(dialect);
        (py.database().prepare_query(&query, profile), vec![])
    })?;
    let covered = tr.spans[first_span..].iter().map(Span::ns).sum();
    let counts = vec![("level", f64::from(level as u8))];
    tr.close_root(op, root, "compile", start_ns, counts);
    Ok((prepared, covered))
}

/// What a traced pass does with each op.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traced {
    /// The decomposed `compile_at`.
    Compile,
    /// The decomposed `run`, default configuration.
    Execute,
    /// The decomposed `run` on every hardware thread: where per-worker
    /// claims exist to take `pool.claim_skew` from.
    ExecuteParallel,
}

/// One traced pass over the op list: every op compiled or run through the
/// decomposed calls. Returns the pass wall time and the time its layer
/// spans (`sqldb.execute` only, for an execute pass) cover, milliseconds.
pub fn traced_pass(
    bench: &Bench<'_>,
    kind: Traced,
    tokens: &[f64],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64) {
    let Bench { w, inst, ops, warm } = *bench;
    let cfg = default_config();
    let start = Instant::now();
    let mut covered_ns = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let p = &w.programs[op.program];
        let py = &inst.pys[p.db];
        let ok = if kind == Traced::Compile {
            let tokens = tokens[op.program];
            let out = compile_traced(py, p.source, tokens, cfg.dialect, op.level, tr);
            covered_ns += out.as_ref().map_or(0, |(_, covered)| *covered);
            black_box(out).is_ok()
        } else {
            let (backend, root) = match kind {
                Traced::ExecuteParallel => (parallel_backend(), "execute_parallel"),
                _ => (cfg.backend, "execute"),
            };
            let first_span = tr.spans.len();
            let out = black_box(run_traced(py, p.source, &backend, root, tr));
            let executes = tr.spans[first_span..]
                .iter()
                .filter(|s| s.name == "sqldb.execute");
            covered_ns += executes.map(Span::ns).sum::<u64>();
            out.is_ok_and(|r| r.num_rows() == warm.rows[i])
        };
        tally.check(ok, || format!("traced {} at {}", p.name, op.level.name()));
    }
    (start.elapsed().as_secs_f64() * 1e3, covered_ns as f64 / 1e6)
}

/// One untraced `Pytond::compile_at` pass over the op list in the default
/// configuration, milliseconds: what the decomposed pass is held against.
pub fn facade_compile_pass(bench: &Bench<'_>, tally: &mut Tally) -> f64 {
    let Bench { w, inst, ops, .. } = *bench;
    let dialect = default_config().dialect;
    let start = Instant::now();
    for op in ops {
        let p = &w.programs[op.program];
        let out = black_box(inst.pys[p.db].compile_at(p.source, dialect, op.level));
        tally.check(out.is_ok(), || format!("compile {}", p.name));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// What the traced passes add up to, one entry per pass.
#[derive(Default)]
pub struct TracedPasses {
    /// `Pytond::compile_at` over the compile list, untraced.
    pub facade_ms: Vec<f64>,
    /// The decomposed pass: wall time, and the part its layer spans cover.
    pub compile_wall_ms: Vec<f64>,
    pub compile_covered_ms: Vec<f64>,
    /// Per compile layer: its summed span time in one pass, microseconds.
    pub layer_us: BTreeMap<&'static str, Vec<f64>>,
    /// Traced execute sweeps: wall time, and `sqldb.execute` span time.
    pub traced_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    /// `sqldb.execute` span time of the sweeps on every hardware thread.
    pub parallel_execute_ms: Vec<f64>,
}

impl TracedPasses {
    pub fn add_compile(&mut self, facade_ms: f64, wall_ms: f64, covered_ms: f64, spans: &[Span]) {
        self.facade_ms.push(facade_ms);
        self.compile_wall_ms.push(wall_ms);
        self.compile_covered_ms.push(covered_ms);
        for (_, span) in COMPILE_LAYERS {
            let ns: u64 = spans.iter().filter(|s| s.name == span).map(Span::ns).sum();
            self.layer_us.entry(span).or_default().push(ns as f64 / 1e3);
        }
    }
}

/// `optimizer.o4_speedup`: geometric mean over programs of execution time
/// compiled at O0 ÷ at O4, default configuration, one timed run each after
/// one warm-up.
pub fn o4_speedup(bench: &Bench<'_>, tally: &mut Tally) -> f64 {
    let Bench { w, inst, .. } = *bench;
    let cfg = default_config();
    let mut ratios = Vec::new();
    for p in &w.programs {
        let py = &inst.pys[p.db];
        let time = |level: OptLevel| -> Option<f64> {
            let compiled = py.compile_at(p.source, cfg.dialect, level).ok()?;
            py.execute(&compiled, &cfg.backend).ok()?;
            let t = Instant::now();
            black_box(py.execute(&compiled, &cfg.backend)).ok()?;
            Some(t.elapsed().as_secs_f64())
        };
        let pair = time(OptLevel::O0).zip(time(OptLevel::O4));
        tally.check(pair.is_some(), || format!("{} at O0 and O4", p.name));
        ratios.extend(pair.map(|(o0, o4)| o0 / o4));
    }
    geomean(&ratios)
}
