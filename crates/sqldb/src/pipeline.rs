//! Pipeline extraction: decomposing a physical plan into single-pass fused
//! pipelines.
//!
//! A *pipeline* is a maximal chain of streaming operators between two
//! pipeline breakers. Its **source** is either a predicated base-table scan
//! (driven zone-at-a-time so zone-map pruning stays a claim-time skip) or
//! the materialized output of a breaker (join build, aggregation merge,
//! sort, DISTINCT, limit, window). Its **stages** — filters, projections and
//! hash-join probes — consume one claimed morsel at a time without ever
//! materializing a full intermediate relation. Its **sink** either stitches
//! the surviving chunks back into a batch (`Materialize`) or feeds them to
//! the fixed-grid aggregation tail (`Aggregate`).
//!
//! Extraction is purely structural (no data access): join probes fuse only
//! when the key layout can be proven fixed-width from static expression
//! dtypes, so the driver never discovers mid-flight that a chunk cannot be
//! packed. Everything else — byte-keyed joins, right/full/cross joins, and
//! every breaker — falls back to the materializing operators in
//! [`crate::exec`], which double as the `PYTOND_NO_FUSE=1` differential
//! oracle. See `docs/EXECUTION.md` § Fusion.

use crate::expr::BExpr;
use crate::plan::{BAgg, BoundQuery, JKind, LogicalPlan};
use pytond_common::hash::FixedKeySpec;
use pytond_common::{Column, DType};

/// One streaming operator inside a pipeline, applied per claimed morsel.
pub enum Stage<'p> {
    /// Shrink the chunk's selection by a predicate; no columns move.
    Filter(&'p BExpr),
    /// Replace the chunk with the evaluated projection (morsel-sized
    /// materialization; survivors only).
    Project(&'p [BExpr]),
    /// Probe a hash table built once from the join's right input.
    Probe(ProbeStage<'p>),
}

/// A fused hash-join probe: the build side executes once (as its own
/// sub-plan, possibly pipelined itself); probing then streams morsel by
/// morsel through the packed fixed-width key layout planned here.
pub struct ProbeStage<'p> {
    /// Join kind — extraction admits only `Inner`/`Left`/`Semi`/`Anti`.
    pub kind: JKind,
    /// Probe-side (left) key expressions.
    pub left_keys: &'p [BExpr],
    /// Build-side (right) key expressions.
    pub right_keys: &'p [BExpr],
    /// Residual predicate, applied to each joined chunk.
    pub residual: Option<&'p BExpr>,
    /// The build-side plan, executed once when the pipeline starts.
    pub build: &'p LogicalPlan,
    /// Fixed-width key layout, planned jointly over both sides from static
    /// dtypes. Identical to what the materializing join would plan from the
    /// evaluated columns: join semantics (`nulls_matter = false`) make the
    /// layout a function of dtypes alone.
    pub spec: FixedKeySpec,
    /// String key positions packed as 32-bit dictionary codes (0 when
    /// dictionary encoding is disabled — those joins break the pipeline).
    pub dict_keys: usize,
}

/// What terminates a pipeline.
pub enum Sink<'p> {
    /// Stitch surviving chunks into a batch, in morsel order.
    Materialize,
    /// Stream each chunk's surviving rows — only the columns that group
    /// keys and aggregate arguments reference — into the fixed-morsel-grid
    /// aggregation (`docs/EXECUTION.md` § determinism: the rows are
    /// concatenated in morsel order, so the grid and merge tree are
    /// byte-identical to the materializing path's).
    Aggregate {
        /// Group-key expressions over the last stage's output.
        group: &'p [BExpr],
        /// Aggregates over the last stage's output.
        aggs: &'p [BAgg],
    },
}

/// A single-pass fused pipeline: `source → stages… → sink`.
pub struct Pipeline<'p> {
    /// Where morsels come from: a predicated `Scan` (fused, zone-aligned)
    /// or any breaker node (materialized once, then chunked).
    pub source: &'p LogicalPlan,
    /// Streaming operators in execution order.
    pub stages: Vec<Stage<'p>>,
    /// The pipeline's terminal.
    pub sink: Sink<'p>,
}

impl Pipeline<'_> {
    /// Fused operators in this pipeline: the source, each stage, and an
    /// aggregation sink (a materialize sink is stitching, not an operator).
    pub fn ops(&self) -> usize {
        1 + self.stages.len() + usize::from(matches!(self.sink, Sink::Aggregate { .. }))
    }

    /// Full intermediate materializations the fused drive avoids, compared
    /// to the operator-at-a-time oracle: one per stage output that streams
    /// onward, plus the predicated scan's survivor gather — minus the final
    /// stage output when the sink materializes it anyway.
    pub fn intermediates_avoided(&self) -> usize {
        let fused_scan = usize::from(matches!(
            self.source,
            LogicalPlan::Scan { pred: Some(_), .. }
        ));
        (self.stages.len() + fused_scan)
            .saturating_sub(usize::from(matches!(self.sink, Sink::Materialize)))
    }
}

/// Extracts the pipeline rooted at `plan`, or `None` when fusion would not
/// save anything (the node is a breaker, or the chain has no streaming
/// stage worth driving).
pub fn extract(plan: &LogicalPlan) -> Option<Pipeline<'_>> {
    match plan {
        LogicalPlan::Aggregate {
            input, group, aggs, ..
        } => {
            let (source, stages) = chain(input);
            // Worth fusing only if something streams: a stage, or a
            // predicated scan whose survivor gather we skip.
            if stages.is_empty() && !scan_with_pred(source) {
                return None;
            }
            Some(Pipeline {
                source,
                stages,
                sink: Sink::Aggregate { group, aggs },
            })
        }
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } | LogicalPlan::Join { .. } => {
            let (source, stages) = chain(plan);
            if stages.is_empty() {
                return None;
            }
            // A lone bare-column projection over a materialized source is
            // zero-copy (Arc shares) on the materializing path; chunking it
            // would only add copies.
            if !scan_with_pred(source) && stages.len() == 1 {
                if let Stage::Project(exprs) = &stages[0] {
                    if exprs.iter().all(|e| matches!(e, BExpr::Col(_))) {
                        return None;
                    }
                }
            }
            Some(Pipeline {
                source,
                stages,
                sink: Sink::Materialize,
            })
        }
        _ => None,
    }
}

fn scan_with_pred(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Scan { pred: Some(_), .. })
}

/// Walks down from `plan` collecting fusable stages until a breaker, which
/// becomes the source. Returned stages are in execution order (source
/// first).
fn chain(plan: &LogicalPlan) -> (&LogicalPlan, Vec<Stage<'_>>) {
    let mut rev: Vec<Stage<'_>> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter { input, pred } => {
                rev.push(Stage::Filter(pred));
                cur = input;
            }
            LogicalPlan::Project { input, exprs, .. } => {
                rev.push(Stage::Project(exprs));
                cur = input;
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                ..
            } => match probe_spec(left, right, *kind, left_keys, right_keys) {
                Some((spec, dict_keys)) => {
                    rev.push(Stage::Probe(ProbeStage {
                        kind: *kind,
                        left_keys,
                        right_keys,
                        residual: residual.as_ref(),
                        build: right,
                        spec,
                        dict_keys,
                    }));
                    cur = left;
                }
                None => break,
            },
            _ => break,
        }
    }
    rev.reverse();
    (cur, rev)
}

/// Plans the fixed-width key layout for a candidate fused probe (returning
/// it with the count of dict-coded string key positions), or `None` when the
/// join must break the pipeline: non-streaming kinds (right/full joins need
/// unmatched-build backfill, cross joins have no keys), keyless joins, or
/// key layouts that only the byte-encoded fallback can represent.
///
/// The layout is planned from zero-row columns of the keys' static dtypes.
/// For join semantics [`FixedKeySpec::plan`] ignores nullability, so this
/// yields exactly the spec the materializing join plans from evaluated
/// columns — the packed keys, and therefore every match, agree bit for bit.
///
/// String keys plan as zero-row dictionary-encoded placeholders sharing one
/// dictionary `Arc`, so they pack as 32-bit code slots — a promise the
/// runtime keeps by re-encoding every probe chunk into the build side's
/// dictionary (see `exec`'s probe preparation). Under `PYTOND_NO_DICT=1`
/// the placeholders stay plain strings, the plan falls back to `None`, and
/// string-keyed joins break the pipeline exactly as they did before
/// dictionary encoding existed.
fn probe_spec(
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JKind,
    left_keys: &[BExpr],
    right_keys: &[BExpr],
) -> Option<(FixedKeySpec, usize)> {
    if !matches!(kind, JKind::Inner | JKind::Left | JKind::Semi | JKind::Anti)
        || left_keys.is_empty()
    {
        return None;
    }
    let dict = !crate::db::no_dict();
    let typed = |plan: &LogicalPlan, keys: &[BExpr]| -> Vec<Column> {
        let dtypes: Vec<DType> = plan.schema().fields.iter().map(|f| f.dtype).collect();
        keys.iter()
            .map(|e| match e.dtype(&dtypes) {
                DType::Str if dict => Column::DictStr {
                    codes: Vec::new(),
                    dict: pytond_common::empty_dict(),
                    valid: None,
                },
                dt => Column::new(dt),
            })
            .collect()
    };
    let lcols = typed(left, left_keys);
    let rcols = typed(right, right_keys);
    let lrefs: Vec<&Column> = lcols.iter().collect();
    let rrefs: Vec<&Column> = rcols.iter().collect();
    let dict_keys = if dict {
        lcols.iter().filter(|c| c.dtype() == DType::Str).count()
    } else {
        0
    };
    FixedKeySpec::plan(&[&lrefs, &rrefs], false).map(|spec| (spec, dict_keys))
}

/// Renders the pipeline decomposition of a bound query, in execution order
/// (build sides and breaker sources before the pipelines that consume
/// them) — the grouping EXPLAIN and `QueryTrace::plan` show under the fused
/// profiles.
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
    match extract(plan) {
        Some(p) => {
            if !matches!(p.source, LogicalPlan::Scan { .. }) {
                walk(p.source, out);
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
        LogicalPlan::Scan {
            table,
            pred: Some(_),
            ..
        } => format!("scan {table} (fused pred)"),
        LogicalPlan::Scan { table, .. } => format!("scan {table}"),
        other => other.name().to_lowercase(),
    });
    for st in &p.stages {
        parts.push(match st {
            Stage::Filter(_) => "filter".into(),
            Stage::Project(_) => "project".into(),
            Stage::Probe(pr) if pr.dict_keys > 0 => {
                format!("probe({:?}, dict-key)", pr.kind).to_lowercase()
            }
            Stage::Probe(pr) => format!("probe({:?})", pr.kind).to_lowercase(),
        });
    }
    parts.push(match p.sink {
        Sink::Materialize => "materialize".into(),
        Sink::Aggregate { .. } => "aggregate".into(),
    });
    format!(
        "{} [{} ops, {} intermediates avoided]",
        parts.join(" → "),
        p.ops(),
        p.intermediates_avoided()
    )
}
