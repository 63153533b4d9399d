//! Pipeline extraction: decomposing a physical plan into the pipelines the
//! executor's one driver runs.
//!
//! A *pipeline* is a chain of streaming operators between two pipeline
//! breakers. Its **source** is either a base-table scan, streamed storage
//! chunk by storage chunk (a predicated one zone-at-a-time, so zone-map
//! pruning stays a claim-time skip), or the materialized output of a
//! breaker (join build, aggregation merge, sort, limit, window —
//! or, under the one-operator policy, simply the operator below). Its
//! **stages** — filters, projections and hash-join
//! probes — consume one claimed chunk at a time. Its **sink** stitches the
//! surviving chunks back into a batch (`Materialize`), feeds them to the
//! fixed-grid aggregation tail (`Aggregate`), or regroups the match pairs of
//! a build-left join into left-major order (`Regroup`).
//!
//! Extraction is purely structural (no data access) and **total over the
//! streaming operators**: every predicated scan, filter, evaluated
//! projection and keyed join runs through a pipeline, under either policy —
//! `fuse = true` takes the maximal chain, `fuse = false` stops after one
//! operator, which is what operator-at-a-time execution is. The two
//! policies run the same kernels in the same order on the same rows;
//! `tests/fusion_property.rs` and `tests/plan_fuzz.rs` pin them
//! bit-identical. See `docs/EXECUTION.md` § Fusion.

use crate::expr::BExpr;
use crate::plan::{BAgg, BoundQuery, JKind, LogicalPlan};
use pytond_common::hash::{sql_key_encodings, FixedKeySpec, KeyEncoding};
use pytond_common::{Column, DType};

/// One streaming operator inside a pipeline, applied per claimed chunk.
pub enum Stage<'p> {
    /// Shrink the chunk's selection by a predicate; no columns move.
    Filter(&'p BExpr),
    /// Replace the chunk with the evaluated projection (chunk-sized
    /// materialization; survivors only).
    Project(&'p [BExpr]),
    /// Probe a hash index built once from the join's other input.
    Probe(ProbeStage<'p>),
}

/// How a join's keys are hashed: planned jointly over both sides from the
/// keys' static dtypes (under join semantics neither layout depends on
/// nullability or values).
pub enum KeyLayout {
    /// Every position is `Int`/`Date`/`Bool` or a dictionary-coded string:
    /// keys pack into one `u64`/`u128` word.
    Fixed {
        /// The packed layout.
        spec: FixedKeySpec,
        /// String key positions packed as 32-bit dictionary codes.
        dict_keys: usize,
    },
    /// Anything else (floats, keys mixing strings with other types, keys
    /// wider than 128 bits): keys byte-encode into a
    /// [`pytond_common::hash::KeyArena`], one encoding per position.
    Bytes(Vec<KeyEncoding>),
}

/// A hash-join probe: the build side executes once (as its own sub-plan),
/// then the other input streams through the index chunk by chunk.
pub struct ProbeStage<'p> {
    /// Join kind.
    pub kind: JKind,
    /// Key expressions over the streamed input.
    pub probe_keys: &'p [BExpr],
    /// Key expressions over the build input.
    pub build_keys: &'p [BExpr],
    /// Residual predicate over the join's output schema.
    pub residual: Option<&'p BExpr>,
    /// The build-side plan, executed once when the pipeline starts.
    pub build: &'p LogicalPlan,
    /// The plan's [`LogicalPlan::Join`] `build_left`: the index is over the
    /// join's *left* input and its right input streams.
    pub build_left: bool,
    /// The key layout both sides hash under.
    pub layout: KeyLayout,
}

/// Where a pipeline's chunks come from.
pub enum Source<'p> {
    /// A predicated `Scan`, streamed zone by zone over the table's chunks.
    Scan(&'p LogicalPlan),
    /// Any other node: executed to a batch first, then chunked — except an
    /// unpredicated `Scan`, which streams its table's chunks as they are.
    Breaker(&'p LogicalPlan),
}

/// What terminates a pipeline.
pub enum Sink<'p> {
    /// Stitch surviving chunks into a batch, in chunk order. When the last
    /// stage probes a right/full join, the unmatched build rows follow.
    Materialize,
    /// Stream each chunk's surviving rows — only the columns that group
    /// keys and aggregate arguments reference — into the fixed-morsel-grid
    /// aggregation (`docs/EXECUTION.md` § determinism: the rows are
    /// concatenated in chunk order, so the grid and merge tree do not
    /// depend on how the input was chunked).
    Aggregate {
        /// Group-key expressions over the last stage's output.
        group: &'p [BExpr],
        /// Aggregates over the last stage's output.
        aggs: &'p [BAgg],
    },
    /// The last stage probes a build-left join: its match pairs arrive in
    /// right-row order and a counting sort regroups them left-major.
    Regroup,
}

/// One pipeline: `source → stages… → sink`.
pub struct Pipeline<'p> {
    /// Where chunks come from.
    pub source: Source<'p>,
    /// Streaming operators in execution order.
    pub stages: Vec<Stage<'p>>,
    /// The pipeline's terminal.
    pub sink: Sink<'p>,
    /// Extracted under the maximal-chain policy (the executor reports
    /// pipeline counters only for these).
    pub fused: bool,
}

impl Pipeline<'_> {
    /// Operators in this pipeline: the source, each stage, and an
    /// aggregation sink (the other sinks are stitching, not operators).
    pub fn ops(&self) -> usize {
        1 + self.stages.len() + usize::from(matches!(self.sink, Sink::Aggregate { .. }))
    }

    /// Full intermediate materializations the maximal chain avoids, compared
    /// to one operator per pipeline: one per stage output that streams
    /// onward, plus the predicated scan's survivor gather — minus the final
    /// stage output when the sink materializes it anyway.
    pub fn intermediates_avoided(&self) -> usize {
        let fused_scan = usize::from(matches!(self.source, Source::Scan(_)));
        (self.stages.len() + fused_scan)
            .saturating_sub(usize::from(!matches!(self.sink, Sink::Aggregate { .. })))
    }
}

/// Extracts the pipeline rooted at `plan` under the given policy, or `None`
/// when nothing streams: the node is a source or breaker (unpredicated scan,
/// `Values`, sort, limit, window, keyless join), an aggregate directly over
/// one, or a projection of bare columns over one (which shares
/// the input's `Arc`s instead).
pub fn extract(plan: &LogicalPlan, fuse: bool) -> Option<Pipeline<'_>> {
    let (top, mut sink) = match plan {
        LogicalPlan::Aggregate {
            input, group, aggs, ..
        } if fuse => (&**input, Sink::Aggregate { group, aggs }),
        LogicalPlan::Scan { pred: Some(_), .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::Project { .. } => (plan, Sink::Materialize),
        LogicalPlan::Join { left_keys, .. } if !left_keys.is_empty() => (plan, Sink::Materialize),
        _ => return None,
    };
    // Walk down collecting stages (last first) until a breaker — or, under
    // the one-operator policy, until there is one.
    let mut stages: Vec<Stage<'_>> = Vec::new();
    let mut cur = top;
    while fuse || stages.is_empty() {
        match cur {
            LogicalPlan::Filter { input, pred } => {
                stages.push(Stage::Filter(pred));
                cur = input;
            }
            LogicalPlan::Project { input, exprs, .. } => {
                stages.push(Stage::Project(exprs));
                cur = input;
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                build_left,
                ..
            } if !left_keys.is_empty() => {
                // A join whose output the sink completes — the regroup of a
                // build-left join, the unmatched build rows of a right/full
                // one — is its pipeline's last stage or not in it.
                let sink_completes = *build_left || matches!(kind, JKind::Right | JKind::Full);
                if sink_completes && !(stages.is_empty() && matches!(sink, Sink::Materialize)) {
                    break;
                }
                let (stream, build, probe_keys, build_keys) = if *build_left {
                    sink = Sink::Regroup;
                    (&**right, &**left, &right_keys[..], &left_keys[..])
                } else {
                    (&**left, &**right, &left_keys[..], &right_keys[..])
                };
                stages.push(Stage::Probe(ProbeStage {
                    kind: *kind,
                    probe_keys,
                    build_keys,
                    residual: residual.as_ref(),
                    build,
                    build_left: *build_left,
                    layout: key_layout(stream, build, probe_keys, build_keys),
                }));
                cur = stream;
            }
            _ => break,
        }
    }
    stages.reverse();
    let source = match cur {
        LogicalPlan::Scan { pred: Some(_), .. } if fuse || stages.is_empty() => Source::Scan(cur),
        _ => Source::Breaker(cur),
    };
    // Nothing streams out of a breaker through no stage, and bare columns
    // are shared, not evaluated.
    let bare = |s: &Stage<'_>| matches!(s, Stage::Project(es) if es.iter().all(|e| matches!(e, BExpr::Col(_))));
    if matches!(source, Source::Breaker(_))
        && (stages.is_empty() || (stages.len() == 1 && bare(&stages[0])))
    {
        return None;
    }
    Some(Pipeline {
        source,
        stages,
        sink,
        fused: fuse,
    })
}

/// Plans the key layout of a join from zero-row columns of the keys' static
/// dtypes. For join semantics [`FixedKeySpec::plan`] and
/// [`sql_key_encodings`] ignore nullability and values, so the layout is a
/// function of the plan alone and the driver never discovers mid-flight that
/// a chunk cannot be packed.
///
/// String keys plan as zero-row dictionary-encoded placeholders sharing one
/// dictionary `Arc`, so they pack as 32-bit code slots — a promise the
/// runtime keeps whatever the stored representation: build keys are encoded
/// at build (a plain column gets a fresh dictionary) and every probe chunk
/// is re-encoded into the build side's dictionary.
fn key_layout(
    stream: &LogicalPlan,
    build: &LogicalPlan,
    probe_keys: &[BExpr],
    build_keys: &[BExpr],
) -> KeyLayout {
    let typed = |plan: &LogicalPlan, keys: &[BExpr]| -> Vec<Column> {
        let dtypes: Vec<DType> = plan.schema().fields.iter().map(|f| f.dtype).collect();
        keys.iter()
            .map(|e| match e.dtype(&dtypes) {
                DType::Str => Column::DictStr {
                    codes: Vec::new(),
                    dict: pytond_common::empty_dict(),
                    valid: None,
                },
                dt => Column::new(dt),
            })
            .collect()
    };
    let pcols = typed(stream, probe_keys);
    let bcols = typed(build, build_keys);
    let prefs: Vec<&Column> = pcols.iter().collect();
    let brefs: Vec<&Column> = bcols.iter().collect();
    match FixedKeySpec::plan(&[&prefs, &brefs], false) {
        Some(spec) => KeyLayout::Fixed {
            spec,
            dict_keys: pcols.iter().filter(|c| c.dtype() == DType::Str).count(),
        },
        None => KeyLayout::Bytes(sql_key_encodings(&[&prefs, &brefs])),
    }
}

/// Renders the pipeline decomposition of a bound query under the
/// maximal-chain policy, in execution order (build sides and breaker sources
/// before the pipelines that consume them) — the grouping EXPLAIN and
/// `QueryTrace::plan` show under the fused profiles.
pub fn describe(q: &BoundQuery) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (_, plan) in &q.ctes {
        walk(plan, &mut lines);
    }
    walk(&q.root, &mut lines);
    let mut out = String::from("pipelines:\n");
    if lines.is_empty() {
        out.push_str("  (none: every operator is a breaker)\n");
    }
    for (i, l) in lines.iter().enumerate() {
        out.push_str(&format!("  P{i}: {l}\n"));
    }
    out
}

fn walk(plan: &LogicalPlan, out: &mut Vec<String>) {
    match extract(plan, true) {
        Some(p) => {
            if let Source::Breaker(src) = p.source {
                walk(src, out);
            }
            for st in &p.stages {
                if let Stage::Probe(pr) = st {
                    walk(pr.build, out);
                }
            }
            out.push(render(&p));
        }
        None => {
            for child in plan.children() {
                walk(child, out);
            }
        }
    }
}

fn render(p: &Pipeline<'_>) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(match p.source {
        Source::Scan(LogicalPlan::Scan { table, .. }) => format!("scan {table} (fused pred)"),
        Source::Breaker(LogicalPlan::Scan { table, .. }) => format!("scan {table}"),
        Source::Scan(other) | Source::Breaker(other) => other.name().to_lowercase(),
    });
    for st in &p.stages {
        parts.push(match st {
            Stage::Filter(_) => "filter".into(),
            Stage::Project(_) => "project".into(),
            Stage::Probe(pr) => {
                let mut label = format!("{:?}", pr.kind).to_lowercase();
                if matches!(pr.layout, KeyLayout::Fixed { dict_keys, .. } if dict_keys > 0) {
                    label.push_str(", dict-key");
                }
                if pr.build_left {
                    label.push_str(", build=left");
                }
                format!("probe({label})")
            }
        });
    }
    parts.push(match p.sink {
        Sink::Materialize => "materialize".into(),
        Sink::Aggregate { .. } => "aggregate".into(),
        Sink::Regroup => "regroup".into(),
    });
    format!(
        "{} [{} ops, {} intermediates avoided]",
        parts.join(" → "),
        p.ops(),
        p.intermediates_avoided()
    )
}
