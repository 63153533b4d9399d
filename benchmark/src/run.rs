//! One workload run: set-up, warm-up, the timed sweep and ingest phases,
//! verification, and the metrics computed from them. Everything is measured
//! from outside, through the public functions listed in `README.md`.

use crate::ingest::{bare_appends, check_end_state, ingest, IngestStats};
use crate::json::Json;
use crate::layers::{
    facade_compile_pass, o4_speedup, traced_pass, Traced, TracedPasses, COMPILE_LAYERS,
};
use crate::stats::{geomean, median, quartiles, tail};
use crate::trace::{layer_table, print_layer_table, to_ndjson, Span, Tracer};
use crate::verify::{
    fingerprint, frozen_references, live_references, Fingerprint, Reference, FROZEN_SEED,
};
use crate::workloads::{build, Data, Pass, Sizing, Workload};
use pytond::{Backend, Compiled, Dialect, OptLevel, Profile, Pytond};
use pytond_common::{Relation, Result};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Compile-decomposition pass pairs a traced execute workload runs (the
/// compile workload spends its whole sweep phase on them instead).
const COMPILE_TRACE_PAIRS: usize = 5;

/// One of the two engine configurations every sweep alternates between.
#[derive(Clone, Copy)]
pub struct Config {
    pub backend: Backend,
    pub dialect: Dialect,
}

/// The product's profile — fused pipelines — on one engine thread. The
/// gated metrics stay off the second hardware thread: on a shared 2-vCPU
/// box its capacity comes and goes with the neighbours (a 2-thread sweep
/// swings by half between runs), so thread scaling is reported ungated, as
/// `pool.parallel_speedup`, from [`parallel_backend`].
pub fn default_config() -> Config {
    Config {
        backend: Backend::hyper_sim(1),
        dialect: Dialect::Hyper,
    }
}

/// Operator-at-a-time on one thread: the paper's PyTond/DuckDB-1t bar and
/// the engine's oracle path.
pub fn vectorized_config() -> Config {
    Config {
        backend: Backend::duckdb_sim(1),
        dialect: Dialect::DuckDb,
    }
}

const CONFIGS: [fn() -> Config; 2] = [default_config, vectorized_config];

/// The product default, fused pipelines on every hardware thread.
pub fn parallel_backend() -> Backend {
    Backend::auto(Profile::Fused)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping (quartiles, counts, per-program rows,
    /// info values); written under `out/` and merged into `result.json`.
    pub detail: Json,
    pub spans: Vec<Span>,
}

/// Operations attempted and failed. A failure is an `Err`, a refusal, or an
/// output that does not verify.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One entry of the workload's operation list: a program at a level.
#[derive(Clone, Copy)]
pub struct Op {
    pub program: usize,
    pub level: OptLevel,
}

/// The registered instances of one set-up and every op compiled for both
/// configurations.
pub struct Instances {
    pub pys: Vec<Pytond>,
    /// `[default, vectorized]`, one `Compiled` per op.
    pub compiled: [Vec<Compiled>; 2],
    /// Sum of `Pytond::register_table` times, milliseconds.
    register_ms: f64,
    registered_bytes: u64,
}

/// Registers `data` into a fresh instance; also returns the summed
/// `register_table` time (ms) and the bytes handed over.
pub fn register(data: &Data) -> (Pytond, f64, u64) {
    let py = Pytond::new();
    let (mut ms, mut bytes) = (0.0, 0);
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(Vec::as_slice).collect();
        let copy = rel.clone();
        bytes += copy.heap_bytes();
        let t = Instant::now();
        py.register_table(name, copy, &keys);
        ms += t.elapsed().as_secs_f64() * 1e3;
    }
    (py, ms, bytes)
}

/// `setup_s`: register every table into fresh instances (copy,
/// dictionary-encode, statistics), register the standing views, compile
/// every op for both configurations. Data generation is not part of it.
fn setup(w: &Workload, ops: &[Op]) -> Result<(Instances, f64)> {
    let start = Instant::now();
    let mut inst = Instances {
        pys: Vec::new(),
        compiled: [Vec::new(), Vec::new()],
        register_ms: 0.0,
        registered_bytes: 0,
    };
    for data in &w.data {
        let (py, ms, bytes) = register(data);
        inst.pys.push(py);
        inst.register_ms += ms;
        inst.registered_bytes += bytes;
    }
    for view in &w.ingest.views {
        view.register(&inst.pys[w.ingest.db], &default_config().backend)?;
    }
    for (slot, cfg) in CONFIGS.iter().enumerate() {
        for op in ops {
            let p = &w.programs[op.program];
            let compiled = inst.pys[p.db].compile_at(p.source, cfg().dialect, op.level)?;
            inst.compiled[slot].push(compiled);
        }
    }
    Ok((inst, start.elapsed().as_secs_f64()))
}

/// Per-op and per-pass latencies of one configuration.
struct Latencies {
    pass_ms: Vec<f64>,
    /// One vector per op.
    op_ms: Vec<Vec<f64>>,
}

impl Latencies {
    fn new(ops: usize) -> Latencies {
        Latencies {
            pass_ms: Vec::new(),
            op_ms: vec![Vec::new(); ops],
        }
    }

    fn op_medians(&self) -> Vec<f64> {
        self.op_ms.iter().map(|v| median(v)).collect()
    }
}

/// What the warm-up saw for each op: timed passes are checked against
/// `rows` and `sql`, and `prints` are what gets verified.
pub struct Warm {
    pub rows: Vec<usize>,
    /// Generated SQL per configuration and op.
    sql: [Vec<String>; 2],
    /// Output fingerprints per configuration and op.
    prints: [Vec<Option<Fingerprint>>; 2],
}

/// What every pass runs over: the workload, the measured set-up, the op
/// list and what the warm-up saw.
pub struct Bench<'a> {
    pub w: &'a Workload,
    pub inst: &'a Instances,
    pub ops: &'a [Op],
    pub warm: &'a Warm,
}

/// Every op once in both configurations, untimed.
fn warm_up(w: &Workload, inst: &Instances, ops: &[Op]) -> Warm {
    let mut warm = Warm {
        rows: Vec::new(),
        sql: [Vec::new(), Vec::new()],
        prints: [Vec::new(), Vec::new()],
    };
    for (slot, cfg) in CONFIGS.iter().enumerate() {
        for (op, compiled) in ops.iter().zip(&inst.compiled[slot]) {
            let p = &w.programs[op.program];
            let out = inst.pys[p.db].execute(compiled, &cfg().backend);
            if slot == 0 {
                let rows = out.as_ref().map_or(usize::MAX, Relation::num_rows);
                warm.rows.push(rows);
            }
            warm.sql[slot].push(compiled.sql.clone());
            warm.prints[slot].push(out.ok().map(|r| fingerprint(&r, p.strip_ids)));
        }
    }
    warm
}

/// One timed pass over the op list in one configuration.
fn pass(bench: &Bench<'_>, slot: usize, lat: &mut Latencies, tally: &mut Tally) {
    let Bench { w, inst, ops, warm } = *bench;
    let cfg = CONFIGS[slot]();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let p = &w.programs[op.program];
        let py = &inst.pys[p.db];
        let t = Instant::now();
        let ok = match w.pass {
            Pass::Execute => {
                let out = black_box(py.execute(&inst.compiled[slot][i], &cfg.backend));
                lat.op_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
                out.is_ok_and(|r| r.num_rows() == warm.rows[i])
            }
            Pass::Compile => {
                let out = black_box(py.compile_at(p.source, cfg.dialect, op.level));
                lat.op_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
                // The warm-up executed and verified this exact SQL.
                out.is_ok_and(|c| c.sql == warm.sql[slot][i])
            }
        };
        tally.check(ok, || {
            format!("{} at {} in config {slot}", p.name, op.level.name())
        });
    }
    lat.pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory holding `expected/` and `out/`: `benchmark/` under the
/// working directory (where the driver runs), else where this was built.
pub fn bench_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// A metric's side-file entry: its value with quartiles, and the sample
/// count and supported tail of `pooled`.
fn summary_of(median: f64, (q1, q3): (f64, f64), pooled: &[f64]) -> Json {
    let mut fields = vec![
        ("median", Json::Num(median)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(pooled.len() as f64)),
    ];
    if let Some((p, v)) = tail(pooled) {
        fields.push(("tail_percentile", Json::Num(p)));
        fields.push(("tail", Json::Num(v)));
    }
    Json::obj(fields)
}

fn summary(xs: &[f64]) -> Json {
    summary_of(median(xs), quartiles(xs), xs)
}

/// `read_ms` and its quartiles: the mean over the read programs of each
/// one's median (q1, q3) latency. The median of the pooled samples would
/// sit on whichever program happens to straddle the middle.
fn read_summary(stats: &IngestStats) -> Json {
    let mean_of = |f: &dyn Fn(&[f64]) -> f64| {
        stats.read_ms.iter().map(|v| f(v)).sum::<f64>() / stats.read_ms.len().max(1) as f64
    };
    let pooled: Vec<f64> = stats.read_ms.iter().flatten().copied().collect();
    let quartiles = (mean_of(&|v| quartiles(v).0), mean_of(&|v| quartiles(v).1));
    summary_of(mean_of(&median), quartiles, &pooled)
}

/// The traced sweep phase. Compile decomposition runs beside the facade
/// call it takes apart — for the whole phase on the compile workload, for a
/// few passes elsewhere; then untraced and traced execute sweeps of the
/// default configuration alternate, so their gap is the tracing overhead,
/// with a traced sweep on every hardware thread beside them.
fn traced_sweeps(
    bench: &Bench<'_>,
    until: Instant,
    lat: &mut Latencies,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> TracedPasses {
    let w = bench.w;
    let tokens: Vec<f64> = w
        .programs
        .iter()
        .map(|p| pytond_pyparse::lexer::tokenize(p.source).map_or(0.0, |t| t.len() as f64))
        .collect();
    let mut passes = TracedPasses::default();
    let mut pairs = 0;
    while match w.pass {
        Pass::Compile => Instant::now() < until || pairs < 2,
        Pass::Execute => pairs < COMPILE_TRACE_PAIRS,
    } {
        let facade_ms = facade_compile_pass(bench, tally);
        let first_span = tr.spans.len();
        let (wall_ms, covered_ms) = traced_pass(bench, Traced::Compile, &tokens, tr, tally);
        passes.add_compile(facade_ms, wall_ms, covered_ms, &tr.spans[first_span..]);
        pairs += 1;
    }
    if w.pass == Pass::Execute {
        let mut pairs = 0;
        while Instant::now() < until || pairs < 2 {
            pass(bench, 0, lat, tally);
            let (wall_ms, covered_ms) = traced_pass(bench, Traced::Execute, &tokens, tr, tally);
            passes.traced_ms.push(wall_ms);
            passes.execute_ms.push(covered_ms);
            let (_, parallel_ms) = traced_pass(bench, Traced::ExecuteParallel, &tokens, tr, tally);
            passes.parallel_execute_ms.push(parallel_ms);
            pairs += 1;
        }
    }
    passes
}

/// Checks the warm-up outputs of both configurations against the
/// independent references and against each other.
fn verify_outputs(
    w: &Workload,
    ops: &[Op],
    warm: &Warm,
    references: &[Option<Reference>],
    tally: &mut Tally,
) {
    for (i, op) in ops.iter().enumerate() {
        let at = format!("{} at {}", w.programs[op.program].name, op.level.name());
        for slot in 0..2 {
            let problem = match (&references[op.program], &warm.prints[slot][i]) {
                (Some(r), Some(print)) => r.print.diff(print),
                (None, _) => Some("no reference".into()),
                (_, None) => Some("execution failed".into()),
            };
            tally.check(problem.is_none(), || {
                let problem = problem.unwrap_or_default();
                format!("{at} in config {slot} vs baseline: {problem}")
            });
        }
        let disagree = match (&warm.prints[0][i], &warm.prints[1][i]) {
            (Some(a), Some(b)) => a.diff(b),
            _ => Some("execution failed".into()),
        };
        tally.check(disagree.is_none(), || {
            let disagree = disagree.unwrap_or_default();
            format!("{at}: configurations disagree: {disagree}")
        });
    }
}

/// What a traced run measured, for [`layer_metrics`].
struct TracedRun<'a> {
    spans: &'a [Span],
    passes: &'a TracedPasses,
    /// The untraced default sweeps that alternated with the traced ones.
    untraced_ms: &'a [f64],
    stats: &'a IngestStats,
    register_ms: &'a [f64],
    bare_ms: &'a [f64],
    o4_speedup: f64,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(w: &Workload, run: &TracedRun<'_>) -> Vec<Metric> {
    let table = layer_table(run.spans);
    print_layer_table(w.name, &table);
    let counts = |name: &str, key: &str| -> Vec<f64> {
        let of_name = run.spans.iter().filter(|s| s.name == name);
        of_name.filter_map(|s| s.count(key)).collect()
    };
    let prepare_us = table
        .get("core.prepare")
        .map_or(0.0, |r| median(&r.durations_ns) / 1e3);
    let passes = run.passes;
    let (traced, untraced) = match w.pass {
        Pass::Compile => (&passes.compile_wall_ms, &passes.facade_ms[..]),
        Pass::Execute => (&passes.traced_ms, run.untraced_ms),
    };
    let closure = 100.0 * median(&passes.compile_covered_ms) / median(&passes.facade_ms);
    let stats = run.stats;
    let delta_ratio = stats.delta_refreshes as f64 / stats.refreshes.max(1) as f64;
    let queue_wait_us = median(&counts("sqldb.execute", "queue_wait_ns")) / 1e3;
    let claim_skew = median(&counts("sqldb.execute", "claim_skew"));
    let overhead = 100.0 * (median(traced) / median(untraced) - 1.0);
    // Zero where no execute sweep ran (the compile workload).
    let parallel_ms = median(&passes.parallel_execute_ms);
    let parallel_speedup = if parallel_ms > 0.0 {
        median(&passes.execute_ms) / parallel_ms
    } else {
        0.0
    };
    let mut metrics: Vec<Metric> = COMPILE_LAYERS
        .iter()
        .map(|(name, span)| {
            let per_pass = passes.layer_us.get(span).map_or(&[][..], Vec::as_slice);
            Metric::new(name, median(per_pass), "us")
        })
        .collect();
    metrics.extend([
        Metric::new("closure_pct", closure, "%"),
        Metric::new("core.prepare_us", prepare_us, "us"),
        Metric::new("sqldb.execute_ms", median(&passes.execute_ms), "ms"),
        Metric::new("sqldb.queue_wait_us", queue_wait_us, "us"),
        Metric::new("pool.claim_skew", claim_skew, "ratio"),
        Metric::new("pool.parallel_speedup", parallel_speedup, "ratio"),
        Metric::new("optimizer.o4_speedup", run.o4_speedup, "ratio"),
        Metric::new("sqldb.register_ms", median(run.register_ms), "ms"),
        Metric::new("sqldb.append_bare_ms", median(run.bare_ms), "ms"),
        Metric::new("mv.refresh_ms", median(&stats.refresh_ms), "ms"),
        Metric::new("mv.delta_ratio", delta_ratio, "ratio"),
        Metric::new("trace_overhead_pct", overhead, "%"),
    ]);
    metrics
}

/// One row per program: default and vectorized latency (levels of one program
/// folded by their geomean) and, on execute workloads, the interpreted
/// baseline's time with the speed-up over it.
fn per_program_rows(
    w: &Workload,
    ops: &[Op],
    lat: &[Latencies; 2],
    references: &[Option<Reference>],
) -> (Vec<Json>, Vec<f64>) {
    let (default_ops, vectorized_ops) = (lat[0].op_medians(), lat[1].op_medians());
    let mut speedups = Vec::new();
    let rows = w.programs.iter().enumerate().map(|(pi, p)| {
        let of = |medians: &[f64]| {
            let mine = ops.iter().zip(medians).filter(|(op, _)| op.program == pi);
            geomean(&mine.map(|(_, m)| *m).collect::<Vec<_>>())
        };
        let mut fields = vec![
            ("program", Json::str(&p.name)),
            ("default_ms", Json::Num(of(&default_ops))),
            ("vectorized_ms", Json::Num(of(&vectorized_ops))),
        ];
        if let (Some(r), Pass::Execute) = (&references[pi], w.pass) {
            let speedup = r.baseline_ms / of(&default_ops);
            fields.push(("frame.baseline_ms", Json::Num(r.baseline_ms)));
            fields.push(("speedup_vs_python", Json::Num(speedup)));
            speedups.push(speedup);
        }
        Json::obj(fields)
    });
    (rows.collect(), speedups)
}

pub fn run(args: &RunArgs) -> std::result::Result<Outcome, String> {
    let size = if args.smoke {
        Sizing::SMOKE
    } else {
        Sizing::REGULAR
    };
    let t = Instant::now();
    let w = build(&args.workload, args.seed, &size)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let datagen_s = t.elapsed().as_secs_f64();
    let ops: Vec<Op> = (0..w.programs.len())
        .flat_map(|program| w.levels.iter().map(move |&level| Op { program, level }))
        .collect();
    let mut tally = Tally::default();

    // Set-up, several times over; the last one's instances are measured.
    let mut setup_secs = Vec::new();
    let mut register_ms = Vec::new();
    let mut inst = None;
    for _ in 0..SETUPS {
        drop(inst.take());
        let (fresh, secs) = setup(&w, &ops).map_err(|e| format!("set-up failed: {e}"))?;
        setup_secs.push(secs);
        register_ms.push(fresh.register_ms);
        inst = Some(fresh);
    }
    let inst = inst.expect("at least one set-up ran");
    let warm = warm_up(&w, &inst, &ops);
    let bench = Bench {
        w: &w,
        inst: &inst,
        ops: &ops,
        warm: &warm,
    };
    let o4 = if args.trace {
        o4_speedup(&bench, &mut tally)
    } else {
        0.0
    };

    // The timed phases: sweeps, then ingest.
    let started = Instant::now();
    let sweeps_until = started + Duration::from_secs_f64(args.seconds * w.sweep_share);
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut lat = [Latencies::new(ops.len()), Latencies::new(ops.len())];
    let mut tracer = args.trace.then(|| Tracer::new(started, 0));
    let mut traced = TracedPasses::default();
    if let Some(tr) = tracer.as_mut() {
        let lat = &mut lat[0];
        traced = traced_sweeps(&bench, sweeps_until, lat, tr, &mut tally);
    } else {
        let mut pairs = 0;
        while Instant::now() < sweeps_until || pairs < 2 {
            for (slot, lat) in lat.iter_mut().enumerate() {
                pass(&bench, slot, lat, &mut tally);
            }
            pairs += 1;
        }
    }
    let py = &inst.pys[w.ingest.db];
    let stats = ingest(&w, py, deadline, tracer.as_mut(), &mut tally);
    let measured_s = started.elapsed().as_secs_f64();
    // Read before verification: the baselines and the bulk-load twin are
    // the harness's memory, not the engine's.
    let rss = peak_rss_mb();

    let frozen = (args.seed == FROZEN_SEED && !args.smoke)
        .then(|| frozen_references(&w))
        .flatten();
    let verified_against = if frozen.is_some() { "frozen" } else { "live" };
    let t = Instant::now();
    let references = frozen.unwrap_or_else(|| live_references(&w));
    let verify_s = t.elapsed().as_secs_f64();
    verify_outputs(&w, &ops, &warm, &references, &mut tally);
    check_end_state(&w, py, stats.appended, &mut tally);

    let mut summaries = Vec::new();
    let metrics = if let Some(tr) = &tracer {
        let bare_ms = if w.ingest.views.is_empty() {
            stats.append_ms.clone()
        } else {
            bare_appends(&w.data[w.ingest.db], &w.ingest)
        };
        summaries.extend([
            ("compile_passes", Json::Num(traced.facade_ms.len() as f64)),
            ("traced_sweeps", Json::Num(traced.traced_ms.len() as f64)),
            ("spans", Json::Num(tr.spans.len() as f64)),
        ]);
        let run = TracedRun {
            spans: &tr.spans,
            passes: &traced,
            untraced_ms: &lat[0].pass_ms,
            stats: &stats,
            register_ms: &register_ms,
            bare_ms: &bare_ms,
            o4_speedup: o4,
        };
        layer_metrics(&w, &run)
    } else {
        let reads = read_summary(&stats);
        let read_ms = reads.get("median").and_then(Json::as_f64).unwrap_or(0.0);
        let (rows, speedups) = per_program_rows(&w, &ops, &lat, &references);
        summaries.extend([
            ("sweep_ms", summary(&lat[0].pass_ms)),
            ("vectorized_sweep_ms", summary(&lat[1].pass_ms)),
            ("append_ms", summary(&stats.append_ms)),
            ("read_ms", reads),
            ("setup_s", summary(&setup_secs)),
            ("per_program", Json::Arr(rows)),
        ]);
        if !speedups.is_empty() {
            summaries.push(("speedup_vs_python", Json::Num(geomean(&speedups))));
        }
        // A sweep is the sum of its operations' median latencies, not the
        // median of whole passes: a burst of outside interference shorter
        // than a pass inflates every pass a little but, while it hits any
        // one operation less than half the time, none of the medians.
        let (default_ops, vectorized_ops) = (lat[0].op_medians(), lat[1].op_medians());
        vec![
            Metric::new("sweep_ms", default_ops.iter().sum(), "ms"),
            Metric::new("vectorized_sweep_ms", vectorized_ops.iter().sum(), "ms"),
            Metric::new("geomean_ms", geomean(&default_ops), "ms"),
            Metric::new("append_ms", median(&stats.append_ms), "ms"),
            Metric::new("read_ms", read_ms, "ms"),
            Metric::new("peak_rss_mb", rss, "MiB"),
            Metric::new("setup_s", median(&setup_secs), "s"),
        ]
    };

    let metrics_json = metrics.iter().map(|m| {
        let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
        (m.name.to_string(), value)
    });
    let rows_registered: usize = w.data.iter().map(Data::rows).sum();
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("scale", Json::str(&w.scale)),
        ("nproc", Json::Num(nproc() as f64)),
        ("engine_threads", Json::Num(1.0)),
        ("reader_threads", Json::Num(stats.readers as f64)),
        ("rows_registered", Json::Num(rows_registered as f64)),
        ("bytes_registered", Json::Num(inst.registered_bytes as f64)),
        ("programs", Json::Num(w.programs.len() as f64)),
        ("ops_per_pass", Json::Num(ops.len() as f64)),
        ("datagen_s", Json::Num(datagen_s)),
        ("measured_s", Json::Num(measured_s)),
        ("verify_s", Json::Num(verify_s)),
        ("verified_against", Json::str(verified_against)),
        ("appends", Json::Num(stats.appended as f64)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("fail_ratio", Json::Num(fail_ratio)),
        ("metrics", Json::Obj(metrics_json.collect())),
        ("summaries", Json::obj(summaries)),
    ]);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
        spans: tracer.map(|tr| tr.spans).unwrap_or_default(),
    })
}

/// Writes the run's side files under `out/` (git-ignored).
pub fn write_outputs(args: &RunArgs, outcome: &Outcome) -> std::io::Result<()> {
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out)?;
    let stem = format!("{}.trace{}", args.workload, u8::from(args.trace));
    std::fs::write(out.join(format!("{stem}.json")), outcome.detail.pretty())?;
    if args.trace {
        let path = out.join(format!("trace.{}.ndjson", args.workload));
        std::fs::write(path, to_ndjson(&args.workload, &outcome.spans))?;
    }
    Ok(())
}
