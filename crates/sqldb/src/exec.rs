//! Physical execution: one morsel-parallel pipeline driver over materialized
//! batches.
//!
//! The executor walks the logical plan top-down. Sources and breakers
//! (unpredicated scans, `Values`, sorts, limits, windows, keyless joins,
//! aggregation merges — `DISTINCT` among them) materialize their output;
//! **every streaming operator** — predicated scan, filter, evaluated
//! projection, keyed hash join — runs through `Executor::run_pipeline`, the
//! only implementation of predicate evaluation, projection evaluation and
//! hash-join build/probe in the engine. Which operators share a pipeline is a policy
//! ([`crate::pipeline::extract`]), not a second engine:
//!
//! * **fused** — the maximal chain: a claimed morsel flows
//!   scan → filter → project → join-probe → aggregate-partial while hot in
//!   cache, with no intermediate relation between the fused operators — the
//!   observable effect of Hyper-style pipeline compilation at this engine's
//!   abstraction level;
//! * **vectorized** (the `Vectorized` profile, and the fusion oracle) — one
//!   operator per pipeline, each materializing its full output before the
//!   next starts (DuckDB-style operator-at-a-time with intermediate vectors).
//!
//! Parallelism is morsel-driven (see `docs/EXECUTION.md` for the full
//! threading model) and lives in three places only: pipelines and partial
//! aggregations claim morsels from [`pytond_common::pool`]'s shared atomic
//! cursor, then merge deterministically — morsel order for row streams,
//! global first-occurrence order for groups (matching the Pandas baseline's
//! group order, which keeps differential tests exact); and hash-join build
//! sides above [`pytond_common::hash::MIN_PARTITIONED_BUILD`] rows are split
//! by key hash into partitions built concurrently
//! ([`pytond_common::hash::PartitionedIndex`]). Sorts and group-key
//! evaluation run on the driver thread. Which input is the build
//! side is the plan's decision ([`LogicalPlan::Join`]'s `build_left`), never
//! the executor's. Order-sensitive float accumulation always folds over the
//! fixed morsel grid — never over per-thread chunks — so every thread count
//! (including 1) and both policies produce bit-identical results
//! (`tests/fusion_property.rs`, `tests/plan_fuzz.rs`).

use crate::agg::{AggLayout, AggState, Fold};
use crate::db::Snapshot;
use crate::expr::{BExpr, DictTables, RowsRef};
use crate::pipeline::{self, KeyLayout, Pipeline, ProbeStage, Sink, Source, Stage};
use crate::plan::{BAgg, BoundQuery, JKind, LogicalPlan};
use crate::stats::ZONE_ROWS;
use crate::table::{self, Batch, Schema, StoredTable};
use pytond_common::cancel::CancelToken;
use pytond_common::fault::{self, FaultSite};
use pytond_common::hash::{
    sql_key_encodings, FixedKeySpec, FxHashMap, IndexKey, IndexLayout, KeyArena, KeyEncoding,
    KeyWidth, PartitionedIndex,
};
use pytond_common::pool;
use pytond_common::{Column, DType, Error, Result};
use std::borrow::Cow;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Runtime options (derived from [`crate::db::EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for morsel-parallel operators. This is the *resolved*
    /// degree of parallelism: [`crate::db::Database`] maps a configured `0`
    /// ("auto") to [`pytond_common::pool::default_threads`] before execution
    /// reaches here. `1` runs every operator inline with no worker threads.
    pub threads: usize,
    /// The pipeline-extraction policy: fuse streaming operators into maximal
    /// chains (`true`) or run one operator per pipeline (`false`). Read by
    /// [`crate::pipeline::extract`] alone.
    pub fused: bool,
    /// Rows per morsel.
    pub morsel: usize,
    /// Consult zone maps to skip morsels on pushed-down scan predicates.
    pub zone_prune: bool,
    /// Per-query lifecycle token: deadline, explicit cancel and memory
    /// budget. Polled at every morsel claim, join-build step and
    /// aggregation-merge step (see `docs/RESILIENCE.md`). A disarmed token
    /// only meters check counts.
    pub cancel: CancelToken,
}

/// Morsel-body guard: the fault-injection point plus the cooperative
/// cancellation poll. Every morsel claimed by a parallel operator (and
/// every grid step of an armed serial run) passes through here. A free
/// function (not a method) so worker closures capture only the `Sync`
/// token, never the executor's `RefCell` metrics.
fn morsel_guard(cancel: &CancelToken) -> Result<()> {
    if fault::injected(FaultSite::Morsel) {
        return Err(Error::Internal(format!(
            "injected fault: morsel ({})",
            cancel.label()
        )));
    }
    cancel.check()
}

/// Minimum number of grid cells before an operator hands its grid to the
/// pool: a smaller grid runs inline, since waking helpers costs more than
/// they recover (sub-millisecond operators). Purely a scheduling gate — the
/// grid, and therefore every result bit, is identical either way.
const SPAWN_MIN_MORSELS: usize = 4;

/// Executor counters for one query, reported through
/// [`crate::db::Database::execute_sql_traced`].
///
/// Scan "morsels" are statistics zones ([`crate::stats::ZONE_ROWS`] rows):
/// the granularity at which predicated scans either evaluate or skip input.
/// [`ExecMetrics::morsels_claimed_per_worker`] counts dispenser claims of
/// *any* parallel work (pipelines, aggregation partials), accumulated per
/// worker id across the whole query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Resolved degree of parallelism the query ran with.
    pub threads: usize,
    /// Storage chunks concatenated into whole columns: a table that appends
    /// left in several chunks, read whole — an unpredicated scan read by an
    /// operator that needs its rows contiguous (a sort, a join build side,
    /// a keyless join, an aggregate under the one-operator policy), or a
    /// pipeline every row of whose scan survives. Every such read
    /// concatenates afresh and keeps the copy no longer than the query;
    /// scans whose pipelines keep fewer rows stream chunk by chunk and glue
    /// nothing, so reads whose base-table scans all do report 0.
    pub chunks_concatenated: u64,
    /// Zones whose rows a predicated scan actually evaluated, as
    /// **per-pipeline totals**: each pipeline counts every zone it evaluates
    /// exactly once, no matter how many stages consume the scan's rows.
    /// Pinned by a trace assertion in `tests/fusion_property.rs`.
    pub morsels_scanned: u64,
    /// Zones skipped because zone-map bounds proved the predicate false.
    pub morsels_pruned: u64,
    /// Pipelines driven under the fusing extraction policy (0 when every
    /// pipeline is one operator: the `Vectorized` profile).
    pub pipelines: u64,
    /// Operators fused into each pipeline (source + streaming stages + an
    /// aggregation sink), in pipeline completion order.
    pub pipeline_ops: Vec<u64>,
    /// Full intermediate materializations the fused pipelines avoided
    /// compared to one operator per pipeline (see
    /// [`crate::pipeline::Pipeline::intermediates_avoided`]).
    pub intermediates_avoided: u64,
    /// Executed hash joins the plan marked `build_left` (the binder's
    /// layout builds on the right; the optimizer flips it where the left
    /// input is estimated smaller). The same under every profile.
    pub joins_flipped: u64,
    /// Work units claimed from the shared morsel dispenser, per worker id,
    /// summed over every parallel operator in the query. **Empty** when the
    /// whole query ran on the serial path (inline operators never touch the
    /// dispenser); parallel operators always contribute ≥ 2 worker entries.
    pub morsels_claimed_per_worker: Vec<u64>,
    /// Hash-join build partitions constructed concurrently (0 when every
    /// build ran serially on one partition).
    pub partitions_built: u64,
    /// Join indexes built direct-addressed: dense `u64` keys, no hashing on
    /// build or probe (see `docs/EXECUTION.md` § Join index).
    pub direct_builds: u64,
    /// Rows hash-join build sides indexed, summed over every join.
    pub join_build_rows: u64,
    /// Rows probed against a join index, summed over every join.
    pub join_probe_rows: u64,
    /// Groups aggregations produced, summed over every aggregation (a scalar
    /// aggregation counts 1).
    pub agg_groups: u64,
    /// The [`crate::db::Snapshot::version`] the query executed against —
    /// the whole run saw exactly this version of every table (stamped by
    /// the snapshot entry points; 0 for direct executor calls).
    pub snapshot_version: u64,
    /// Nanoseconds the query waited in the admission gate before executing
    /// (see [`pytond_common::pool::admission`]); 0 when a slot was free.
    pub queue_wait_ns: u64,
    /// Cooperative cancellation polls observed by this query's
    /// [`CancelToken`] (morsel claims, join builds, aggregation merges,
    /// per-operator checks).
    pub cancel_checks: u64,
    /// The query's memory budget in bytes (0 = unlimited).
    pub mem_budget_bytes: u64,
    /// The query's deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Bytes charged against the budget: a cumulative account of the
    /// query's materialized allocations — join indexes at what their flat
    /// arrays hold, aggregation states per retained group, fresh output
    /// columns. Releases are not tracked, so this is the peak of the
    /// accounted total.
    pub mem_peak_bytes: u64,
    /// Dictionary-encoded string columns read by table scans (counted once
    /// per scan, over the scan's projected columns).
    pub dict_encoded_cols: u64,
    /// Fused pipelines whose join probe packed dictionary codes for at least
    /// one string key position (instead of breaking the pipeline and falling
    /// back to byte-encoded keys).
    pub dict_probe_pipelines: u64,
    /// Dictionary-encoded columns decoded back to plain strings at result
    /// materialization (the [`crate::table::Batch::to_relation`] boundary).
    pub dict_decoded_cols: u64,
    /// Per-entry predicate tables built for `LIKE` / string-literal
    /// comparison / string `IN` over dictionary-encoded columns: one per
    /// (predicate node, dictionary) pair the execution evaluated, shared by
    /// every morsel and worker — never one per morsel (see
    /// [`crate::expr::DictTables`]).
    pub dict_pred_tables: u64,
}

/// Executes a bound query, materializing CTEs in order, with `temps`
/// pre-seeded and, optionally, one aggregate resuming a carried [`Fold`].
///
/// Temporaries shadow same-named base tables (the executor resolves temps
/// first), which is the delta-execution seam for incremental view
/// maintenance: overlaying a base table with a [`StoredTable`] holding only
/// its appended suffix makes every scan of that table see the delta rows
/// while all other inputs still read the pinned snapshot. With `resume`, the
/// named `Aggregate` node folds its input into the view's carried state
/// instead of a fresh one — after the rows that state has already seen.
pub(crate) fn execute_with_temps(
    db: &Snapshot,
    q: &BoundQuery,
    temps: FxHashMap<String, StoredTable>,
    opts: ExecOptions,
    resume: Option<Resume<'_>>,
) -> Result<(Batch, Schema, ExecMetrics)> {
    let threads = opts.threads.max(1);
    let mut exec = Executor {
        db,
        temps,
        opts,
        metrics: std::cell::RefCell::new(ExecMetrics {
            threads,
            ..ExecMetrics::default()
        }),
        dict_tables: DictTables::default(),
        resume: std::cell::RefCell::new(resume),
    };
    for (name, plan) in &q.ctes {
        let batch = exec.exec(plan)?;
        let schema = plan.schema().clone();
        let fields = schema.fields.iter();
        let fields = fields.map(|f| table::Field::new(f.name.clone(), f.dtype));
        // CTE temporaries skip the stats pass: their scans filter
        // row-by-row without zone pruning.
        let temp = StoredTable {
            schema: Schema::new(fields.collect()),
            chunks: vec![table::Chunk::whole(batch)],
            stats: None,
        };
        exec.temps.insert(name.to_lowercase(), temp);
    }
    let batch = exec.exec(&q.root)?;
    let mut metrics = exec.metrics.into_inner();
    metrics.cancel_checks = exec.opts.cancel.checks();
    metrics.mem_budget_bytes = exec.opts.cancel.budget_bytes().unwrap_or(0);
    metrics.deadline_ms = exec
        .opts
        .cancel
        .deadline()
        .map_or(0, |d| d.as_millis().max(1) as u64);
    metrics.mem_peak_bytes = exec.opts.cancel.used_bytes();
    metrics.dict_pred_tables = exec.dict_tables.built();
    Ok((batch, q.root.schema().clone(), metrics))
}

struct Executor<'a> {
    db: &'a Snapshot,
    temps: FxHashMap<String, StoredTable>,
    opts: ExecOptions,
    /// Updated from the single-threaded operator driver only (workers never
    /// touch it), so a plain `RefCell` suffices.
    metrics: std::cell::RefCell<ExecMetrics>,
    /// Dictionary predicate tables of this execution: built at most once per
    /// (predicate node, dictionary), shared by all morsels and workers. Its
    /// keys are node addresses inside the bound query, which outlives the
    /// executor.
    dict_tables: DictTables,
    /// The aggregation a standing view carries across appends, if this
    /// execution refreshes one. Touched by the operator driver only.
    resume: std::cell::RefCell<Option<Resume<'a>>>,
}

/// A standing view's carried aggregation and the plan node that resumes it.
pub(crate) struct Resume<'a> {
    /// The `Aggregate` node of the executing plan the fold belongs to.
    pub(crate) node: &'a LogicalPlan,
    /// Everything that node has folded so far.
    pub(crate) fold: &'a mut Fold,
}

impl Resume<'_> {
    /// Whether `group` and `aggs` are `node`'s own, by address (the plan is
    /// borrowed for the whole execution, and no two aggregates share both
    /// vectors — an aggregate with neither keys nor aggregates cannot bind).
    fn is(&self, group: &[BExpr], aggs: &[BAgg]) -> bool {
        matches!(self.node, LogicalPlan::Aggregate { group: g, aggs: a, .. }
            if std::ptr::eq(&g[..], group) && std::ptr::eq(&a[..], aggs))
    }
}

/// The input columns an aggregation reads: those its keys and arguments
/// reference, ascending.
fn agg_columns(group: &[BExpr], aggs: &[BAgg]) -> Vec<usize> {
    let mut used = Vec::new();
    let args = aggs.iter().filter_map(|a| a.arg.as_ref());
    group
        .iter()
        .chain(args)
        .for_each(|e| e.columns_used(&mut used));
    used.sort_unstable();
    used
}

/// What [`Executor::fold_cells`] hands back.
struct Folded {
    /// Every cell merged: what the aggregate outputs now.
    state: AggState,
    /// First input row of each group these rows introduced, in group order.
    first_row: Vec<usize>,
    /// A resumable fold's state before the open trailing cell went in.
    closed: Option<AggState>,
}

impl<'a> Executor<'a> {
    /// Composes a pool-job label from the operator name and the query
    /// context, so helper panics name the work that died.
    fn job_label(&self, op: &str) -> String {
        format!("{op} {}", self.opts.cancel.label())
    }

    fn exec(&self, plan: &LogicalPlan) -> Result<Batch> {
        // Per-operator poll: even a plan whose operators all stay serial and
        // sub-morsel observes deadlines between operators.
        self.opts.cancel.check()?;
        let out = self.exec_op(plan)?;
        charge_cols(&self.opts.cancel, &out.cols)?;
        Ok(out)
    }

    fn exec_op(&self, plan: &LogicalPlan) -> Result<Batch> {
        // Everything that streams runs through the one pipeline driver; how
        // far a pipeline reaches (the maximal chain, or this operator alone)
        // is the extraction policy's business. What is left below are the
        // sources and breakers.
        if let Some(pl) = pipeline::extract(plan, self.opts.fused) {
            return self.run_pipeline(plan, &pl);
        }
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                pred: None,
                ..
            } => self.scan(table, projection.as_deref()),
            LogicalPlan::Values { schema, rows } => {
                let mut cols: Vec<Column> = schema
                    .fields
                    .iter()
                    .map(|f| Column::with_capacity(f.dtype, rows.len()))
                    .collect();
                for row in rows {
                    for (c, v) in cols.iter_mut().zip(row) {
                        c.push(v.clone())?;
                    }
                }
                Ok(Batch::from_columns(cols))
            }
            // Bare columns only (anything evaluated is a pipeline stage):
            // share the input's columns — permutation projections, e.g. the
            // join-reorder restore projection, cost one `Arc` clone each.
            LogicalPlan::Project { exprs, input, .. } => {
                let batch = self.exec(input)?;
                let cols = exprs.iter().map(|e| match e {
                    BExpr::Col(i) => Ok(batch.cols[*i].clone()),
                    e => Err(Error::Internal(format!("unevaluated projection {e}"))),
                });
                Ok(Batch {
                    cols: cols.collect::<Result<_>>()?,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                left_keys,
                residual,
                ..
            } if left_keys.is_empty() => {
                let (lb, rb) = (self.exec(left)?, self.exec(right)?);
                let out = keyless_join(&lb, &rb, *kind);
                match residual {
                    Some(res) => self.filter(out, res, plan.schema()),
                    None => Ok(out),
                }
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                let batch = self.exec(input)?;
                self.aggregate_from_cols(&batch, batch.num_rows(), group, aggs)
            }
            LogicalPlan::Sort { input, keys } => {
                let batch = self.exec(input)?;
                self.sort(&batch, keys)
            }
            LogicalPlan::Limit { input, n } => {
                let batch = self.exec(input)?;
                let keep: Vec<usize> = (0..batch.num_rows().min(*n as usize)).collect();
                Ok(batch.gather(&keep))
            }
            LogicalPlan::Window { input, order, .. } => {
                let batch = self.exec(input)?;
                self.window(&batch, order)
            }
            streaming => Err(Error::Internal(format!(
                "{} was not extracted into a pipeline",
                streaming.name()
            ))),
        }
    }

    /// Resolves a scan's stored table (CTE temporaries shadow base tables).
    fn stored(&self, table: &str) -> Result<&StoredTable> {
        self.temps
            .get(&table.to_lowercase())
            .or_else(|| self.db.table(table))
            .ok_or_else(|| Error::Exec(format!("unknown table '{table}'")))
    }

    /// Zone-map pruning decision for a predicated scan: per-zone keep flags,
    /// `None` = nothing prunable (pruning off, or a stats-less CTE temp) and
    /// every zone survives. Counts the verdicts into the scan metrics.
    fn zone_survivors(&self, stored: &StoredTable, pred: &BExpr) -> Option<Vec<bool>> {
        let n = stored.num_rows();
        // The newest chunk holds the newest version of each column's
        // dictionary lineage: every zone's codes are codes of it.
        let newest = &stored.chunks.last().expect("tables keep a chunk").batch;
        let total_zones = n.div_ceil(ZONE_ROWS).max(1);
        // A zone survives only if every prunable conjunct may match it.
        let zone_ok: Option<Vec<bool>> = if self.opts.zone_prune {
            stored.stats.as_ref().map(|stats| {
                let tests = crate::stats::prunable_tests(pred);
                let mut ok = vec![true; total_zones];
                for t in &tests {
                    let col = match t {
                        crate::stats::ZoneTest::Cmp { col, .. }
                        | crate::stats::ZoneTest::In { col, .. }
                        | crate::stats::ZoneTest::Null { col, .. } => *col,
                    };
                    // A dictionary-encoded column keeps its zone bounds in
                    // code space: translate string literals to codes, or drop
                    // the test (keeping its zones) when that's impossible.
                    let t = &match newest.cols.get(col).and_then(|c| c.dict_parts()) {
                        Some((_, dict, _)) => match crate::stats::dict_zone_test(t, dict) {
                            Some(t) => t,
                            None => continue,
                        },
                        None => t.clone(),
                    };
                    let Some(zones) = stats.columns.get(col).and_then(|c| c.zones.as_ref()) else {
                        continue;
                    };
                    for (z, zone) in zones.iter().enumerate() {
                        if z < ok.len() && ok[z] && !crate::stats::zone_may_match(t, zone) {
                            ok[z] = false;
                        }
                    }
                }
                ok
            })
        } else {
            None
        };
        let survived = zone_ok
            .as_ref()
            .map_or(total_zones, |ok| ok.iter().filter(|&&k| k).count());
        let mut m = self.metrics.borrow_mut();
        m.morsels_scanned += survived as u64;
        m.morsels_pruned += (total_zones - survived) as u64;
        zone_ok
    }

    /// An unpredicated scan read whole by a breaker: the parts a pipeline
    /// source streams, as one batch. A lone part spanning its batch shares
    /// the stored columns; anything else is concatenated for this read.
    fn scan(&self, table: &str, projection: Option<&[usize]>) -> Result<Batch> {
        let parts = self.scan_source(table, projection, None)?.parts;
        match &parts[..] {
            [c] if c.rows == (0..c.batch.num_rows()) => Ok((*c.batch).clone()),
            _ => {
                if parts.len() > 1 {
                    self.metrics.borrow_mut().chunks_concatenated += parts.len() as u64;
                }
                Batch::concat_rows(&parts)
            }
        }
    }

    /// A scan feeding a pipeline: the projected columns of each storage
    /// chunk, `Arc`-shared, plus — for a predicated scan — the stored
    /// columns the predicate addresses and the zone-map verdicts.
    fn scan_source<'q>(
        &'q self,
        table: &str,
        projection: Option<&'q [usize]>,
        pred: Option<&'q BExpr>,
    ) -> Result<PSource<'q>> {
        let stored = self.stored(table)?;
        let parts: Vec<table::Chunk> = stored
            .chunks
            .iter()
            .map(|c| c.project(projection))
            .collect();
        let newest = parts.last().map_or(0, |c| c.batch.dict_cols());
        self.metrics.borrow_mut().dict_encoded_cols += newest as u64;
        let scan = pred.map(|pred| PScan {
            full: stored.chunks.iter().map(|c| c.batch.clone()).collect(),
            pred,
            zone_ok: self.zone_survivors(stored, pred),
        });
        Ok(PSource {
            n: stored.num_rows(),
            parts,
            scan,
        })
    }

    /// The participants a grid of `cells` cells runs on: the configured
    /// worker count, or 1 (inline, no pool job) for a grid of fewer than
    /// [`SPAWN_MIN_MORSELS`] cells — sub-millisecond operators lose more to
    /// dispatch than workers can win back. This gates only *who executes*;
    /// the grid (and thus every result bit) is unaffected.
    fn grid_threads(&self, cells: usize) -> usize {
        if cells < SPAWN_MIN_MORSELS {
            1
        } else {
            self.opts.threads
        }
    }

    /// Adds one parallel operator's dispenser claims into the query metrics,
    /// accumulated per worker id.
    fn note_claims(&self, claimed: &[u64]) {
        let mut m = self.metrics.borrow_mut();
        if m.morsels_claimed_per_worker.len() < claimed.len() {
            m.morsels_claimed_per_worker.resize(claimed.len(), 0);
        }
        for (acc, c) in m.morsels_claimed_per_worker.iter_mut().zip(claimed) {
            *acc += c;
        }
    }

    /// Runs `f` over the grid of `[0, n)` with `step` rows per cell, on
    /// [`Executor::grid_threads`] participants; `f` receives `(cell index,
    /// row range)` and results come back in grid order. Every cell passes
    /// the morsel guard (cancellation poll + fault point). Order-sensitive
    /// partials (float aggregation) pass the **fixed** `opts.morsel` step at
    /// every thread count, so the merge tree never depends on the worker
    /// count — see `docs/EXECUTION.md` § determinism.
    fn par_grid<T: Send>(
        &self,
        op: &str,
        n: usize,
        step: usize,
        f: impl Fn(usize, std::ops::Range<usize>) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let threads = self.grid_threads(n.div_ceil(step.max(1)));
        let cancel = &self.opts.cancel;
        let outcome = pool::par_morsels(threads, n, step, &self.job_label(op), |z, r| {
            morsel_guard(cancel)?;
            f(z, r)
        })?;
        if threads > 1 {
            self.note_claims(&outcome.claimed_per_worker);
        }
        Ok(outcome.results)
    }

    /// Builds a join build side: a CSR index, direct-addressed when its
    /// keys are dense, else hashed and partitioned concurrently when the
    /// input is large enough and workers are available. Polls the token and
    /// charges what the chosen layout allocates: a direct index in full
    /// before the build; a hashed one a row id and a slot-scratch word per
    /// build row before it, and its key state (proportional to the
    /// *distinct* keys) once that size is known.
    fn build_index<K: IndexKey>(&self, (keys, nulls): &JoinKeys<K>) -> Result<PartitionedIndex<K>> {
        self.opts.cancel.check()?;
        let layout = IndexLayout::choose(keys, nulls.as_deref());
        self.opts.cancel.charge(layout.upfront_bytes(keys.len()))?;
        let idx = PartitionedIndex::build_as(layout, keys, nulls.as_deref(), self.opts.threads);
        if idx.is_direct() {
            self.metrics.borrow_mut().direct_builds += 1;
        } else {
            let row_ids = 4 * keys.len() as u64;
            self.opts
                .cancel
                .charge(idx.heap_bytes().saturating_sub(row_ids))?;
        }
        let mut m = self.metrics.borrow_mut();
        m.join_build_rows += keys.len() as u64;
        if idx.partitioned() {
            m.partitions_built += idx.num_partitions() as u64;
        }
        Ok(idx)
    }

    // ---------------- aggregate ----------------

    /// The aggregation tail shared by the materializing operator and the
    /// fused pipeline sink: the `n` input rows in (only the columns that keys
    /// and arguments reference need to be populated), final batch out.
    /// Group keys are evaluated and packed once over all rows; aggregate
    /// arguments are evaluated inside [`Executor::fold_cells`], one grid
    /// morsel at a time. The fixed morsel grid over the rows (and the
    /// ascending merge of its partials) depends only on their count and
    /// `opts.morsel`, so any producer that delivers the same column *values*
    /// in the same row order gets a bit-identical result — the keystone of
    /// the fused/unfused equivalence.
    ///
    /// Every aggregation runs on a [`Fold`]. A query's is fresh and driven to
    /// completion here. The one aggregate a standing view resumes
    /// ([`Resume`]) folds into the view's instead: the carried open morsel's
    /// rows go first, whatever fills closes, and the fold is left where a
    /// later resumption picks it up — so `n` appended rows cost
    /// O(n + morsel + groups), and the output is the one a from-scratch run
    /// over the whole stream computes, bit for bit.
    fn aggregate_from_cols(
        &self,
        input: &Batch,
        n: usize,
        group: &[BExpr],
        aggs: &[BAgg],
    ) -> Result<Batch> {
        let mut resume = self.resume.borrow_mut();
        let carried = resume.as_mut().filter(|r| r.is(group, aggs));
        let resumable = carried.is_some();
        let mut own = Fold::default();
        let fold = carried.map_or(&mut own, |r| &mut *r.fold);
        fold.fed = n;
        // What the open tail keeps of each row (a query's fold keeps none).
        let used = if resumable {
            agg_columns(group, aggs)
        } else {
            Vec::new()
        };
        let (input, n) = match fold.tail.take() {
            Some((mut tail, tail_rows)) => {
                for &i in &used {
                    Arc::make_mut(&mut tail.cols[i]).append(&input.cols[i])?;
                }
                (Cow::Owned(tail), tail_rows + n)
            }
            None => (Cow::Borrowed(input), n),
        };
        let layout = AggLayout::plan(aggs, &input, &self.dict_tables)?;
        // A bare-column key is read in place.
        let key_cols: Vec<Cow<'_, Column>> = group
            .iter()
            .map(|e| match e {
                BExpr::Col(i) if *i < input.cols.len() => Ok(Cow::Borrowed(&*input.cols[*i])),
                e => self.eval_key(&input, e, n).map(Cow::Owned),
            })
            .collect::<Result<_>>()?;
        // Group keys take the packed fast path when every key column is
        // fixed-width (group semantics: NULL is a key value, so the layout
        // folds a validity bit in); strings/floats fall back to arena-encoded
        // byte keys. Scalar aggregation has no keys at all. The keys of the
        // groups a resumed fold already holds are packed under the same
        // layout, planned jointly.
        let krefs: Vec<&Column> = key_cols.iter().map(|c| c.as_ref()).collect();
        let seen: Vec<&Column> = fold.keys.iter().collect();
        let sides: Vec<&[&Column]> = match seen.is_empty() {
            true => vec![&krefs],
            false => vec![&seen, &krefs],
        };
        let closed = fold.closed.take().unwrap_or_else(|| layout.empty());
        let folded = if group.is_empty() {
            self.fold_cells::<u64>(closed, &[], &input, n, None, &layout, resumable)?
        } else {
            match FixedKeySpec::plan(&sides, true) {
                Some(spec) if spec.width() == KeyWidth::U64 => {
                    let (seen, keys) = (spec.pack_u64(&seen).0, spec.pack_u64(&krefs).0);
                    self.fold_cells(closed, &seen, &input, n, Some(&keys), &layout, resumable)?
                }
                Some(spec) => {
                    let (seen, keys) = (spec.pack_u128(&seen).0, spec.pack_u128(&krefs).0);
                    self.fold_cells(closed, &seen, &input, n, Some(&keys), &layout, resumable)?
                }
                None => {
                    let enc = sql_key_encodings(&sides);
                    let seen = KeyArena::encode(&seen, &enc, false);
                    let keys = KeyArena::encode(&krefs, &enc, false);
                    let (seen, keys) = (seen.dense_keys(), keys.dense_keys());
                    self.fold_cells(closed, &seen, &input, n, Some(&keys), &layout, resumable)?
                }
            }
        };
        let Folded {
            state,
            first_row,
            closed,
        } = folded;
        self.metrics.borrow_mut().agg_groups += state.groups() as u64;
        // Assemble output: group keys (groups are in global first-occurrence
        // order; the ones these rows introduced are read at their first row)
        // then aggregates.
        let mut keys = std::mem::take(&mut fold.keys);
        for (k, col) in key_cols.iter().enumerate() {
            let new = col.gather(&first_row);
            match keys.get_mut(k) {
                Some(key) => key.append(&new)?,
                None => keys.push(new),
            }
        }
        if let Some(closed) = closed {
            // Leave the fold after its last full morsel, the rest kept raw.
            let start = n - n % self.opts.morsel;
            fold.keys = keys.iter().map(|k| k.slice(0, closed.groups())).collect();
            fold.closed = Some(closed);
            fold.tail = (start < n).then(|| {
                let tail = match input {
                    Cow::Owned(rows) if start == 0 => rows,
                    rows => Batch {
                        cols: (0..rows.cols.len())
                            .map(|i| {
                                let keep = if used.contains(&i) {
                                    (start, n)
                                } else {
                                    (0, 0)
                                };
                                Arc::new(rows.cols[i].slice(keep.0, keep.1))
                            })
                            .collect(),
                    },
                };
                (tail, n - start)
            });
        }
        keys.extend(state.finalize(&layout)?);
        Ok(Batch::from_columns(keys))
    }

    /// Partial aggregation of input rows `[0, n)` on the **fixed morsel
    /// grid**, merged into `state` by global first occurrence. `keys` are the
    /// per-row group keys — a packed `u64`/`u128` word or a borrowed byte
    /// slice, never cloned — or `None` for scalar aggregation, which needs
    /// neither keys nor a hash map: every morsel is one group. `seen` are the
    /// keys of the groups `state` already holds, in group order.
    ///
    /// Determinism: partials are computed per fixed-size morsel (the grid
    /// depends only on `n` and `opts.morsel`, never on the worker count) and
    /// merged in ascending morsel order, each partial's groups visited in
    /// their local first-occurrence order. Float sums therefore fold over
    /// the *same tree* at every thread count — the engine's "fixed merge
    /// order" policy (`docs/EXECUTION.md`) — and the global group order is
    /// exactly global first-occurrence order. A `resumable` fold also hands
    /// back the state as it was before the open trailing cell (fewer than
    /// `opts.morsel` rows) went in: the point every longer stream's fold
    /// passes through.
    #[allow(clippy::too_many_arguments)]
    fn fold_cells<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        mut state: AggState,
        seen: &[K],
        input: &Batch,
        n: usize,
        keys: Option<&[K]>,
        layout: &AggLayout<'_>,
        resumable: bool,
    ) -> Result<Folded> {
        let tables = &self.dict_tables;
        let morsel = self.opts.morsel;
        let partials = self.par_grid("agg-partial", n, morsel, |_, r| {
            let (start, end) = (r.start, r.end);
            let Some(keys) = keys else {
                let part = layout.partial(input, (start, end), None, 1, tables)?;
                return Ok((Vec::new(), Vec::new(), part));
            };
            // Assign a morsel-local group id per row, recording keys in
            // local first-occurrence order.
            let mut map: FxHashMap<K, u32> = FxHashMap::default();
            let mut order: Vec<K> = Vec::new();
            let mut first_row: Vec<usize> = Vec::new();
            let mut gids: Vec<u32> = Vec::with_capacity(end - start);
            for (i, key) in keys.iter().enumerate().take(end).skip(start) {
                let g = *map.entry(*key).or_insert(order.len() as u32);
                if g as usize == order.len() {
                    order.push(*key);
                    first_row.push(i);
                }
                gids.push(g);
            }
            let part = layout.partial(input, (start, end), Some(&gids), order.len(), tables)?;
            Ok((order, first_row, part))
        })?;
        // Merge partials in ascending morsel order — the explicit merge
        // order every thread count shares. Each merge step polls the token
        // and charges what it newly retains against the budget: per new
        // group its slots in every accumulator array plus the key → group
        // map entry, and the values the DISTINCT sets newly keep.
        let group_bytes = layout.group_bytes() + std::mem::size_of::<(K, u32)>();
        let mut global: FxHashMap<K, u32> = (0u32..).zip(seen).map(|(g, k)| (*k, g)).collect();
        let mut first_row: Vec<usize> = Vec::new();
        let mut to_global: Vec<u32> = Vec::new();
        let open = (n % morsel != 0).then_some(n / morsel);
        let mut closed = None;
        for (cell, (order, rows, part)) in partials.into_iter().enumerate() {
            if resumable && open == Some(cell) {
                closed = Some(state.clone());
            }
            self.opts.cancel.check()?;
            let before = state.groups();
            to_global.clear();
            if keys.is_none() {
                to_global.push(0);
                if before == 0 {
                    state.push_group();
                }
            }
            for (key, row) in order.iter().zip(rows) {
                let g = *global.entry(*key).or_insert(state.groups() as u32);
                if g as usize == state.groups() {
                    state.push_group();
                    first_row.push(row);
                }
                to_global.push(g);
            }
            let distinct = state.merge(part, &to_global, layout);
            let groups = (state.groups() - before) * group_bytes;
            self.opts.cancel.charge((groups + distinct) as u64)?;
        }
        if resumable && closed.is_none() {
            closed = Some(state.clone());
        }
        // Scalar aggregation over empty input still yields one row.
        if keys.is_none() && state.groups() == 0 {
            state.push_group();
        }
        Ok(Folded {
            state,
            first_row,
            closed,
        })
    }

    /// Evaluates a group-key expression over all `n` rows of `batch` on the
    /// calling thread: one range spanning the input — unless the query's
    /// token is armed (or faults are injected), in which case it walks the
    /// morsel grid, passing the morsel guard per cell, so a deadline or
    /// cancel trips within one morsel. The per-row outputs are independent
    /// of the grid.
    fn eval_key(&self, batch: &Batch, e: &BExpr, n: usize) -> Result<Column> {
        let polled = self.opts.cancel.is_armed() || fault::active().is_some();
        let step = if polled {
            self.opts.morsel.max(1)
        } else {
            n.max(1)
        };
        let tables = Some(&self.dict_tables);
        let mut col: Option<Column> = None;
        for start in (0..n).step_by(step) {
            morsel_guard(&self.opts.cancel)?;
            let c = e.eval_rows(batch, RowsRef::Range(start, (start + step).min(n)), tables)?;
            match &mut col {
                Some(col) => col.append(&c)?,
                None => col = Some(c),
            }
        }
        // No rows, no morsels: the empty range still types the column.
        col.map_or_else(|| e.eval_rows(batch, RowsRef::Range(0, 0), tables), Ok)
    }

    // ---------------- sort / window ----------------

    fn sort(&self, batch: &Batch, keys: &[(BExpr, bool)]) -> Result<Batch> {
        Ok(match self.sorted_indices(batch, keys)? {
            Some(indices) => batch.gather(&indices),
            None => batch.clone(),
        })
    }

    /// The permutation that sorts `batch` by `keys` (ties broken on original
    /// position, so the order is total), or `None` when the rows already are
    /// in that order — found by one linear pass, before any sorting.
    fn sorted_indices(&self, batch: &Batch, keys: &[(BExpr, bool)]) -> Result<Option<Vec<usize>>> {
        let n = batch.num_rows();
        let key_cols: Vec<(Column, bool)> = keys
            .iter()
            .map(|(e, asc)| Ok((e.eval(batch, None)?, *asc)))
            .collect::<Result<_>>()?;
        let keys: Vec<SortKey<'_>> = key_cols
            .iter()
            .map(|(c, asc)| SortKey::new(c, *asc))
            .collect();
        let cmp = |&a: &usize, &b: &usize| {
            keys.iter()
                .map(|k| k.cmp(a, b))
                .find(|ord| ord.is_ne())
                .unwrap_or_else(|| a.cmp(&b))
        };
        if (1..n).all(|i| cmp(&(i - 1), &i).is_lt()) {
            return Ok(None);
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_unstable_by(cmp);
        Ok(Some(idx))
    }

    fn window(&self, batch: &Batch, order: &[(BExpr, bool)]) -> Result<Batch> {
        let n = batch.num_rows();
        let sorted = match order {
            [] => None,
            order => self.sorted_indices(batch, order)?,
        };
        let ranks: Vec<i64> = match sorted {
            None => (1..=n as i64).collect(),
            Some(sorted) => {
                let mut ranks = vec![0i64; n];
                for (pos, &row) in sorted.iter().enumerate() {
                    ranks[row] = pos as i64 + 1;
                }
                ranks
            }
        };
        let mut cols = batch.cols.clone();
        cols.push(Arc::new(Column::from_i64(ranks)));
        Ok(Batch { cols })
    }

    // ---------------- the pipeline driver ----------------

    /// Runs one extracted pipeline: executes its source and build sides
    /// (recursively — pipelines of their own), then drives every claimed
    /// chunk source → stages → sink.
    fn run_pipeline(&self, plan: &LogicalPlan, pl: &Pipeline<'_>) -> Result<Batch> {
        // Source: a predicated scan streams chunk by chunk on the zone grid
        // (claim-time zone-map skip), an unpredicated scan chunk by chunk on
        // the morsel grid; anything else materializes once, then chunks.
        let source = match pl.source {
            Source::Scan(LogicalPlan::Scan {
                table,
                projection,
                pred: Some(pred),
                ..
            }) => self.scan_source(table, projection.as_deref(), Some(pred))?,
            Source::Breaker(LogicalPlan::Scan {
                table,
                projection,
                pred: None,
                ..
            }) => self.scan_source(table, projection.as_deref(), None)?,
            Source::Scan(src) | Source::Breaker(src) => PSource::whole(self.exec(src)?),
        };
        // Join build sides execute here, before chunks start flowing: first
        // the rows and key material, then the indexes that borrow them.
        let sides: Vec<Option<BuildSide>> = pl
            .stages
            .iter()
            .map(|st| match st {
                Stage::Probe(pr) => self.build_side(pr).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<_>>()?;
        let stages: Vec<PStage<'_>> = pl
            .stages
            .iter()
            .zip(&sides)
            .map(|(st, side)| self.prepare_stage(st, side.as_ref()))
            .collect::<Result<_>>()?;
        if pl.fused {
            let mut m = self.metrics.borrow_mut();
            m.pipelines += 1;
            m.pipeline_ops.push(pl.ops() as u64);
            m.intermediates_avoided += pl.intermediates_avoided() as u64;
            m.dict_probe_pipelines += u64::from(stages.iter().any(
                |s| matches!(s, PStage::Probe(p) if p.side.dicts.iter().any(Option::is_some)),
            ));
        }
        // The schema of what reaches the sink: an aggregate sink consumes
        // its input's rows, every other sink emits the plan node's.
        let schema = match (plan, &pl.sink) {
            (LogicalPlan::Aggregate { input, .. }, Sink::Aggregate { .. }) => input.schema(),
            _ => plan.schema(),
        };
        self.drive(source, &stages, &pl.sink, schema)
    }

    /// Keeps the rows of `batch` that satisfy `pred`: a one-stage pipeline
    /// over a materialized source. `schema` is the batch's.
    fn filter(&self, batch: Batch, pred: &BExpr, schema: &Schema) -> Result<Batch> {
        let source = PSource::whole(batch);
        self.drive(source, &[PStage::Filter(pred)], &Sink::Materialize, schema)
    }

    /// Executes a probe's build input and prepares its key material under
    /// the planned layout.
    fn build_side(&self, pr: &ProbeStage<'_>) -> Result<BuildSide> {
        let batch = self.exec(pr.build)?;
        // String-typed build keys of a packed layout define the probe's
        // canonical code space: dictionary-encoded columns keep their
        // dictionary, plain string outputs (expression results) get a fresh
        // one. The layout planned these positions as 32-bit dict slots (see
        // `pipeline::key_layout`), so packing needs `DictStr` here.
        let packed = matches!(pr.layout, KeyLayout::Fixed { .. });
        let mut dicts: Vec<Option<Arc<pytond_common::Dictionary>>> = Vec::new();
        let key_cols: Vec<Column> = pr
            .build_keys
            .iter()
            .map(|e| {
                let c = e.eval(&batch, None)?;
                Ok(if packed && c.dtype() == DType::Str {
                    let enc = c.encode_str();
                    let (_, dict, _) = enc.dict_parts().expect("encode_str yields DictStr");
                    dicts.push(Some(dict.clone()));
                    enc
                } else {
                    dicts.push(None);
                    c
                })
            })
            .collect::<Result<_>>()?;
        let krefs: Vec<&Column> = key_cols.iter().collect();
        let keys = match &pr.layout {
            KeyLayout::Fixed { spec, .. } if spec.width() == KeyWidth::U64 => {
                BuildKeys::U64(spec.pack_u64(&krefs))
            }
            KeyLayout::Fixed { spec, .. } => BuildKeys::U128(spec.pack_u128(&krefs)),
            KeyLayout::Bytes(enc) => BuildKeys::Bytes(KeyArena::encode(&krefs, enc, true)),
        };
        Ok(BuildSide { batch, dicts, keys })
    }

    /// Turns an extracted stage into its runtime form; probe stages index
    /// their build side here.
    fn prepare_stage<'q>(
        &self,
        st: &'q Stage<'_>,
        side: Option<&'q BuildSide>,
    ) -> Result<PStage<'q>> {
        Ok(match (st, side) {
            (Stage::Filter(p), _) => PStage::Filter(p),
            (Stage::Project(e), _) => PStage::Project(e),
            (Stage::Probe(pr), Some(side)) => {
                let index = match (&side.keys, &pr.layout) {
                    (BuildKeys::U64(k), KeyLayout::Fixed { spec, .. }) => {
                        ProbeIndex::U64(spec, self.build_index(k)?)
                    }
                    (BuildKeys::U128(k), KeyLayout::Fixed { spec, .. }) => {
                        ProbeIndex::U128(spec, self.build_index(k)?)
                    }
                    (BuildKeys::Bytes(arena), KeyLayout::Bytes(enc)) => {
                        ProbeIndex::Bytes(enc, self.build_index(&arena.keys_and_nulls())?)
                    }
                    _ => unreachable!("build keys follow the planned layout"),
                };
                self.metrics.borrow_mut().joins_flipped += u64::from(pr.build_left);
                // A right/full join reports its unmatched build rows after
                // the last chunk: probes flag the rows they match.
                let matched = matches!(pr.kind, JKind::Right | JKind::Full).then(|| {
                    (0..side.batch.num_rows())
                        .map(|_| AtomicBool::new(false))
                        .collect()
                });
                PStage::Probe(PProbe {
                    stage: pr,
                    side,
                    index,
                    matched,
                    probed: AtomicU64::new(0),
                })
            }
            (Stage::Probe(_), None) => unreachable!("every probe stage has a build side"),
        })
    }

    /// Drives prepared stages over a source and finishes at the sink.
    ///
    /// Determinism: the chunk grid cuts every source part (a storage chunk,
    /// or a breaker's whole output) into zone-sized pieces for predicated
    /// scans — storage chunks start on zone boundaries, so that is the
    /// table's zone grid — and `opts.morsel`-sized ones otherwise (one piece
    /// per part when a single operator runs inline); filters, projections
    /// and probes are elementwise, so their concatenated output does not
    /// depend on the grid, and chunks merge in ascending order. An
    /// aggregate sink hands the concatenated key and argument columns to
    /// [`Executor::aggregate_from_cols`], whose own fixed grid depends only
    /// on the row count. Every extraction policy and thread count therefore
    /// produces the same bits, by construction.
    fn drive(
        &self,
        source: PSource<'_>,
        stages: &[PStage<'_>],
        sink: &Sink<'_>,
        schema: &Schema,
    ) -> Result<Batch> {
        let n = source.n;
        let step = if source.scan.is_some() {
            ZONE_ROWS
        } else {
            // A single operator run inline with nothing to poll for takes
            // its input as one chunk: each kernel and each gather runs once.
            // (Two operators — a stage under an aggregate sink — keep the
            // grid: that is what holds the chunk in cache between them.)
            let whole = stages.len() + usize::from(matches!(sink, Sink::Aggregate { .. })) <= 1
                && self.grid_threads(n.div_ceil(self.opts.morsel.max(1))) <= 1
                && !self.opts.cancel.is_armed()
                && fault::active().is_none();
            if whole {
                n
            } else {
                self.opts.morsel
            }
        };
        let grid: Vec<(usize, std::ops::Range<usize>)> = (source.parts.iter().enumerate())
            .flat_map(|(p, c)| {
                let r = c.rows.clone();
                (r.start..r.end)
                    .step_by(step.max(1))
                    .map(move |at| (p, at..(at + step.max(1)).min(r.end)))
            })
            .collect();
        // An aggregate sink streams only the input columns its keys and
        // arguments reference; the other sinks stream all of them.
        let only: Option<Vec<usize>> = match sink {
            Sink::Aggregate { group, aggs } => Some(agg_columns(group, aggs)),
            _ => None,
        };
        let regroup = matches!(sink, Sink::Regroup);
        // Chunks that reach the sink as views of the source are gathered
        // after the last one, once per source part. Chunks a stage
        // materialized are compacted where they are hot, except under a
        // regroup sink, whose one gather follows the counting sort over one
        // base — so there, views of a several-part source are compacted
        // too.
        let shared = !stages.iter().any(PStage::materializes);
        let views = shared && (source.parts.len() == 1 || !regroup);
        // Drive. Each claim passes the morsel guard; each stage boundary
        // polls again, so deadlines, budgets and explicit cancels trip
        // within one chunk even mid-pipeline.
        let cx = ChunkCx {
            cancel: &self.opts.cancel,
            tables: &self.dict_tables,
        };
        let done = self.par_grid("pipeline", grid.len(), 1, |z, _| {
            let Some(mut chunk) = source_chunk(&source, z, &grid[z], cx)? else {
                return Ok(None);
            };
            for st in stages {
                chunk = apply_stage(st, chunk, cx)?;
            }
            Ok(Some(if views || (regroup && !shared) {
                chunk
            } else {
                compact_chunk(chunk, only.as_deref())
            }))
        })?;
        for st in stages {
            if let PStage::Probe(p) = st {
                self.metrics.borrow_mut().join_probe_rows += p.probed.load(Relaxed);
            }
        }
        // Merge in chunk order into `base` — a view source's columns, or the
        // stitched chunk batches — plus the selection of `base` rows that
        // survive (`sel`), for one-part views and regroups. The stitched
        // row count is known before the merge starts, so the accumulating
        // columns reserve once instead of repeatedly doubling.
        let chunks: Vec<Chunk> = done.into_iter().flatten().collect();
        let owned_rows: usize = chunks.iter().map(|c| c.batch.num_rows()).sum();
        let total: usize = chunks.iter().map(|c| c.rows.len()).sum();
        // Every row of a several-chunk table reached the sink as views: the
        // merge concatenates its chunks, for this read.
        if views && source.parts.len() > 1 && total == n {
            self.metrics.borrow_mut().chunks_concatenated += source.parts.len() as u64;
        }
        let narrow = |b: &Batch| match &only {
            Some(used) => Batch {
                cols: used.iter().map(|&i| b.cols[i].clone()).collect(),
            },
            None => b.clone(),
        };
        // View chunks by source part, in order: the part's shared columns
        // and the chunks' selections of its rows.
        let mut parts: Vec<(usize, Batch, Vec<Vec<usize>>)> = Vec::new();
        let mut merged: Option<Vec<Column>> = None;
        let (mut sels, mut build_rows) = (Vec::new(), Vec::new());
        let mut offset = 0;
        for c in chunks {
            if views || regroup {
                build_rows.push(c.build_rows);
            }
            if views {
                if parts.last().map_or(true, |(p, ..)| *p != c.part) {
                    parts.push((c.part, narrow(&c.batch), Vec::new()));
                }
                parts.last_mut().expect("pushed").2.push(c.rows.into_vec(0));
                continue;
            }
            if regroup {
                sels.push(c.rows.into_vec(offset));
            }
            offset += c.batch.num_rows();
            match &mut merged {
                None => {
                    let mut first: Vec<Column> = c
                        .batch
                        .cols
                        .into_iter()
                        .map(|c| Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone()))
                        .collect();
                    for col in &mut first {
                        col.reserve(owned_rows - offset);
                    }
                    merged = Some(first);
                }
                Some(acc) => {
                    self.opts.cancel.check()?;
                    for (a, col) in acc.iter_mut().zip(&c.batch.cols) {
                        a.append(col)?;
                    }
                }
            }
        }
        let (base, sel) = match parts.len() {
            _ if !views => (
                merged.map(Batch::from_columns),
                regroup.then(|| stitch(sels)),
            ),
            0 | 1 => match parts.pop() {
                Some((_, batch, sels)) => (Some(batch), Some(stitch(sels))),
                None => (None, Some(Vec::new())),
            },
            _ => (Some(gather_parts(parts)?), None),
        };
        // The columns chunks carry into the sink: the node's output, except
        // that an inner regroup's chunks hold the streamed (right) input
        // only — the build side's columns lead the join's schema.
        let streamed = match stages.last() {
            Some(PStage::Probe(p)) if regroup && p.stage.kind == JKind::Inner => {
                &schema.fields[p.side.batch.cols.len()..]
            }
            _ => &schema.fields[..],
        };
        // Every chunk pruned or filtered away: typed, empty columns.
        let base = base.unwrap_or_else(|| narrow(&empty_batch(streamed)));
        if regroup {
            let Some(PStage::Probe(p)) = stages.last() else {
                unreachable!("a regroup sink follows a build-left probe");
            };
            let out = regroup_pairs(p, &base, &sel.unwrap_or_default(), &stitch(build_rows));
            return match p.stage.residual {
                Some(res) => self.filter(out, res, schema),
                None => Ok(out),
            };
        }
        // The surviving rows. A view selection is ascending and duplicate
        // free, so one as long as its base is the identity: share.
        let (total, rows) = match sel {
            Some(sel) if sel.len() == base.num_rows() => (sel.len(), base),
            Some(sel) => (sel.len(), base.gather(&sel)),
            None => (total, base),
        };
        match (sink, only) {
            (Sink::Aggregate { group, aggs }, Some(used)) => {
                // The tail addresses columns by their position in the last
                // stage's output: put each streamed column back in its place
                // and leave the unreferenced positions typed and empty.
                let mut wide = empty_batch(&schema.fields);
                for (i, c) in used.into_iter().zip(rows.cols) {
                    wide.cols[i] = c;
                }
                self.aggregate_from_cols(&wide, total, group, aggs)
            }
            _ => match stages.last() {
                Some(PStage::Probe(p)) if p.matched.is_some() => {
                    self.append_unmatched(rows, p, schema)
                }
                _ => Ok(rows),
            },
        }
    }

    /// Completes a right/full join: the build rows no probe matched follow
    /// the joined rows, in build-row order, NULL on the probe side.
    fn append_unmatched(&self, joined: Batch, p: &PProbe<'_>, schema: &Schema) -> Result<Batch> {
        let flags = p.matched.as_deref().unwrap_or_default();
        let unmatched: Vec<usize> = (0..flags.len())
            .filter(|&r| !flags[r].load(Relaxed))
            .collect();
        let lw = joined.cols.len() - p.side.batch.cols.len();
        let nulls = vec![None; unmatched.len()];
        let mut cols: Vec<Arc<Column>> = joined.cols[..lw]
            .iter()
            .map(|c| Arc::new(c.gather_opt(&nulls)))
            .collect();
        cols.extend(p.side.batch.gather(&unmatched).cols);
        let mut tail = Batch { cols };
        if let Some(res) = p.stage.residual {
            tail = self.filter(tail, res, schema)?;
        }
        if joined.num_rows() == 0 {
            return Ok(tail);
        }
        let mut out = Vec::with_capacity(joined.cols.len());
        for (c, t) in joined.cols.into_iter().zip(&tail.cols) {
            let mut c = Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone());
            c.append(t)?;
            out.push(c);
        }
        Ok(Batch::from_columns(out))
    }
}

// ---------------- pipeline chunk machinery ----------------
//
// Everything below runs inside worker closures, so it is free functions
// over `Sync` state only (columns, prepared stages, the cancel token) —
// never the executor's `RefCell` metrics.

/// Live rows of a chunk: a contiguous source range (evaluated through the
/// sliced kernel entry points, no index vector) or explicit survivors.
enum Rows {
    Range(std::ops::Range<usize>),
    Sel(Vec<usize>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Range(r) => r.len(),
            Rows::Sel(s) => s.len(),
        }
    }

    /// The kernel-side view: ranges go through the sliced kernel entry
    /// points, survivor selections through the classic gather path.
    fn as_ref(&self) -> RowsRef<'_> {
        match self {
            Rows::Range(r) => RowsRef::Range(r.start, r.end),
            Rows::Sel(s) => RowsRef::Sel(s),
        }
    }

    /// The row indices, each shifted by `offset`.
    fn into_vec(self, offset: usize) -> Vec<usize> {
        match self {
            Rows::Range(r) => (r.start + offset..r.end + offset).collect(),
            Rows::Sel(s) if offset == 0 => s,
            Rows::Sel(s) => s.into_iter().map(|i| i + offset).collect(),
        }
    }
}

/// What every chunk of one pipeline run shares: the query's lifecycle token
/// and its dictionary predicate tables.
#[derive(Clone, Copy)]
struct ChunkCx<'a> {
    cancel: &'a CancelToken,
    tables: &'a DictTables,
}

impl ChunkCx<'_> {
    /// Evaluates an expression over a chunk's live rows.
    fn eval(&self, e: &BExpr, batch: &Batch, rows: &Rows) -> Result<Column> {
        e.eval_rows(batch, rows.as_ref(), Some(self.tables))
    }

    /// [`ChunkCx::eval`] for predicates.
    fn mask(&self, pred: &BExpr, batch: &Batch, rows: &Rows) -> Result<Vec<bool>> {
        pred.mask_rows(batch, rows.as_ref(), Some(self.tables))
    }
}

/// One chunk flowing through a pipeline: a batch of columns (the source's
/// `Arc`-shared columns, or a chunk-sized materialization a stage produced),
/// plus the selection of live rows.
struct Chunk {
    batch: Batch,
    rows: Rows,
    /// The source part the chunk's rows came from.
    part: usize,
    /// After a build-left probe, the build row each live row matched (live
    /// rows then repeat, once per match); empty otherwise.
    build_rows: Vec<usize>,
}

/// A pipeline's prepared source: `n` rows arriving in parts — one for a
/// breaker's output, one per storage chunk (projected) for a table scan —
/// chunked by [`Executor::drive`]'s grid; a predicated scan also carries
/// its predicate through `scan`.
struct PSource<'a> {
    n: usize,
    parts: Vec<table::Chunk>,
    scan: Option<PScan<'a>>,
}

impl PSource<'_> {
    /// A materialized batch as a one-part source.
    fn whole(batch: Batch) -> PSource<'static> {
        PSource {
            n: batch.num_rows(),
            parts: vec![table::Chunk::whole(batch)],
            scan: None,
        }
    }
}

/// A streamed predicated scan: per source part, the stored columns the
/// predicate addresses; and the zone-map verdicts, one per grid piece (the
/// pieces of a stored table's chunks are its zones).
struct PScan<'a> {
    full: Vec<Arc<Batch>>,
    pred: &'a BExpr,
    zone_ok: Option<Vec<bool>>,
}

/// A prepared stage: filters and projections run as-is; probes carry their
/// built hash index and build-side batch.
enum PStage<'a> {
    Filter(&'a BExpr),
    Project(&'a [BExpr]),
    Probe(PProbe<'a>),
}

impl PStage<'_> {
    /// Whether the stage replaces the chunk's batch with a chunk-sized
    /// materialization (the others only narrow or re-list its live rows).
    fn materializes(&self) -> bool {
        match self {
            PStage::Filter(_) => false,
            PStage::Project(exprs) => !exprs.iter().all(|e| matches!(e, BExpr::Col(_))),
            PStage::Probe(p) => {
                !p.stage.build_left && !matches!(p.stage.kind, JKind::Semi | JKind::Anti)
            }
        }
    }
}

/// Per-row keys of one join side: packed words or arena slices, plus the
/// mask of rows whose key contains a NULL (`None` = no such row).
type JoinKeys<K> = (Vec<K>, Option<Vec<bool>>);

/// A build side's key material under the planned [`KeyLayout`].
enum BuildKeys {
    U64(JoinKeys<u64>),
    U128(JoinKeys<u128>),
    Bytes(KeyArena),
}

/// A probe's executed build input.
struct BuildSide {
    batch: Batch,
    /// Per key position: the canonical dictionary of a string key packed as
    /// codes (`None` for every other position). Probe chunks re-encode their
    /// key columns into this code space before packing; a probe string
    /// absent from the build dictionary becomes an invalid row, which packs
    /// to a NULL key — exactly a join miss.
    dicts: Vec<Option<Arc<pytond_common::Dictionary>>>,
    keys: BuildKeys,
}

/// A prepared join probe.
struct PProbe<'a> {
    stage: &'a ProbeStage<'a>,
    side: &'a BuildSide,
    index: ProbeIndex<'a>,
    /// Right/full joins: which build rows some probe row matched. Written
    /// `Relaxed` by the workers and read once they have all been joined
    /// (which is the synchronization).
    matched: Option<Vec<AtomicBool>>,
    /// Rows probed so far, over every chunk (a statistic: `Relaxed`).
    probed: AtomicU64,
}

/// The build-side hash index with the layout its keys (and every probe
/// chunk's) are produced under.
enum ProbeIndex<'a> {
    U64(&'a FixedKeySpec, PartitionedIndex<u64>),
    U128(&'a FixedKeySpec, PartitionedIndex<u128>),
    Bytes(&'a [KeyEncoding], PartitionedIndex<&'a [u8]>),
}

/// Produces the chunk for grid piece `z` — rows `r` of source part `part` —
/// or `None` when the zone is pruned or no row survives the scan predicate.
fn source_chunk(
    src: &PSource<'_>,
    z: usize,
    (part, r): &(usize, std::ops::Range<usize>),
    cx: ChunkCx<'_>,
) -> Result<Option<Chunk>> {
    let r = r.clone();
    let rows = match &src.scan {
        None => Rows::Range(r),
        Some(scan) => {
            if scan.zone_ok.as_ref().is_some_and(|ok| !ok[z]) {
                return Ok(None);
            }
            let mask = cx.mask(scan.pred, &scan.full[*part], &Rows::Range(r.clone()))?;
            let rows = if mask.iter().all(|&k| k) {
                Rows::Range(r)
            } else {
                shrink(Rows::Range(r), &mask)
            };
            if rows.len() == 0 {
                return Ok(None);
            }
            rows
        }
    };
    Ok(Some(Chunk {
        batch: (*src.parts[*part].batch).clone(),
        rows,
        part: *part,
        build_rows: Vec::new(),
    }))
}

/// Narrows a selection by a per-live-row mask.
fn shrink(rows: Rows, mask: &[bool]) -> Rows {
    let mut keep = Vec::with_capacity(mask.iter().filter(|&&k| k).count());
    match rows {
        Rows::Range(r) => keep.extend(r.zip(mask).filter_map(|(i, &k)| k.then_some(i))),
        Rows::Sel(s) => keep.extend(s.into_iter().zip(mask).filter_map(|(i, &k)| k.then_some(i))),
    }
    Rows::Sel(keep)
}

/// Maps local live-row positions back to batch row indices.
fn map_local(rows: &Rows, local: &[usize]) -> Vec<usize> {
    match rows {
        Rows::Range(r) => local.iter().map(|&i| r.start + i).collect(),
        Rows::Sel(s) => local.iter().map(|&i| s[i]).collect(),
    }
}

/// Charges freshly materialized columns against the memory budget. Only
/// sole-owner columns count: shared `Arc`s (zero-copy scans, bare-column
/// projections) are views of existing storage, not new allocations. No-op
/// without an armed budget.
fn charge_cols(cancel: &CancelToken, cols: &[Arc<Column>]) -> Result<()> {
    if cancel.budget_bytes().is_some() {
        let fresh = cols.iter().filter(|c| Arc::strong_count(c) == 1);
        cancel.charge(fresh.map(|c| c.heap_bytes()).sum())?;
    }
    Ok(())
}

/// Applies one stage to a chunk. Every stage boundary polls the token, so
/// lifecycle limits trip within one chunk even mid-pipeline.
fn apply_stage(st: &PStage<'_>, chunk: Chunk, cx: ChunkCx<'_>) -> Result<Chunk> {
    cx.cancel.check()?;
    match st {
        PStage::Filter(pred) => {
            let mask = cx.mask(pred, &chunk.batch, &chunk.rows)?;
            Ok(Chunk {
                rows: shrink(chunk.rows, &mask),
                ..chunk
            })
        }
        PStage::Project(exprs) => {
            let bare = |e: &BExpr| match e {
                BExpr::Col(i) => Some(chunk.batch.cols[*i].clone()),
                _ => None,
            };
            // Bare columns only: a re-listing of the chunk's columns, which
            // stay shared — and the chunk a view, if it was one.
            if let Some(cols) = exprs.iter().map(bare).collect() {
                return Ok(Chunk {
                    batch: Batch { cols },
                    ..chunk
                });
            }
            // Over all rows of its input, a bare column is the input's.
            let whole = matches!(&chunk.rows, Rows::Range(r) if r.start == 0 && r.end == chunk.batch.num_rows());
            let cols: Vec<Arc<Column>> = exprs
                .iter()
                .map(|e| match bare(e).filter(|_| whole) {
                    Some(col) => Ok(col),
                    None => cx.eval(e, &chunk.batch, &chunk.rows).map(Arc::new),
                })
                .collect::<Result<_>>()?;
            charge_cols(cx.cancel, &cols)?;
            Ok(Chunk {
                batch: Batch { cols },
                rows: Rows::Range(0..chunk.rows.len()),
                build_rows: Vec::new(),
                ..chunk
            })
        }
        PStage::Probe(p) => apply_probe(p, chunk, cx),
    }
}

/// Probes one chunk through a join's index. Semi/anti joins only narrow the
/// selection (no columns move); a build-left probe re-lists the selection
/// once per match and notes the build row beside it, for the regroup sink;
/// every other join materializes the joined chunk (probe columns gathered,
/// build columns gathered — with NULLs for a left/full join's unmatched
/// rows), each probe row's matches in ascending build-row order.
fn apply_probe(p: &PProbe<'_>, chunk: Chunk, cx: ChunkCx<'_>) -> Result<Chunk> {
    let st = p.stage;
    let kcols: Vec<Column> = st
        .probe_keys
        .iter()
        .zip(&p.side.dicts)
        .map(|(e, bd)| {
            let c = cx.eval(e, &chunk.batch, &chunk.rows)?;
            Ok(match bd {
                // Re-encode into the build side's code space (free when the
                // chunk already shares the build dictionary `Arc`); strings
                // the build never saw become invalid rows = NULL keys.
                Some(dict) => c.project_into_dict(dict),
                None => c,
            })
        })
        .collect::<Result<_>>()?;
    let krefs: Vec<&Column> = kcols.iter().collect();
    let n = chunk.rows.len();
    p.probed.fetch_add(n as u64, Relaxed);
    // A build-left probe lists every match pair whatever the kind: the sink
    // counts them per build row.
    let kind = if st.build_left { JKind::Inner } else { st.kind };
    let hits = match &p.index {
        ProbeIndex::U64(spec, idx) => {
            let (keys, nulls) = spec.pack_u64(&krefs);
            probe_rows(&keys, nulls.as_deref(), 0..n, idx, kind)
        }
        ProbeIndex::U128(spec, idx) => {
            let (keys, nulls) = spec.pack_u128(&krefs);
            probe_rows(&keys, nulls.as_deref(), 0..n, idx, kind)
        }
        ProbeIndex::Bytes(enc, idx) => {
            let arena = KeyArena::encode(&krefs, enc, true);
            let (keys, nulls) = arena.keys_and_nulls();
            probe_rows(&keys, nulls.as_deref(), 0..n, idx, kind)
        }
    };
    if let Some(matched) = &p.matched {
        for &r in hits.ri.iter().filter(|&&r| r != NO_ROW) {
            matched[r].store(true, Relaxed);
        }
    }
    let joined = if st.build_left || matches!(kind, JKind::Semi | JKind::Anti) {
        // No columns move: the selection narrows (semi/anti, no pairs), or
        // re-lists itself once per match beside the matched build rows.
        Chunk {
            rows: Rows::Sel(map_local(&chunk.rows, &hits.li)),
            build_rows: hits.ri,
            ..chunk
        }
    } else {
        let bi = map_local(&chunk.rows, &hits.li);
        let mut cols = chunk.batch.gather(&bi).cols;
        cols.extend(match kind {
            JKind::Left | JKind::Full => p.side.batch.gather_opt(&opt_rows(&hits.ri)).cols,
            _ => p.side.batch.gather(&hits.ri).cols,
        });
        charge_cols(cx.cancel, &cols)?;
        Chunk {
            batch: Batch { cols },
            rows: Rows::Range(0..hits.li.len()),
            build_rows: Vec::new(),
            ..chunk
        }
    };
    // A build-left join's residual reads both sides' columns: the sink
    // applies it, after the regroup.
    match st.residual.filter(|_| !st.build_left) {
        None => Ok(joined),
        Some(res) => {
            let mask = cx.mask(res, &joined.batch, &joined.rows)?;
            Ok(Chunk {
                rows: shrink(joined.rows, &mask),
                ..joined
            })
        }
    }
}

/// The regroup sink of a build-left join: match pairs arrive in probe
/// (right-row) order — `build_rows[k]` matched row `sel[k]` of `base` — and
/// a counting sort regroups them left-major (for each left row, its matching
/// right rows in right-row order), which is exactly the order a build-right
/// join emits, so the planned build side is invisible to results.
fn regroup_pairs(p: &PProbe<'_>, base: &Batch, sel: &[usize], build_rows: &[usize]) -> Batch {
    let left = &p.side.batch;
    let ln = left.num_rows();
    // Matches per left row, then (exclusive prefix sum) where each left
    // row's run starts in the left-major output.
    let mut at = vec![0u32; ln + 1];
    for &l in build_rows {
        at[l + 1] += 1;
    }
    if matches!(p.stage.kind, JKind::Semi | JKind::Anti) {
        let want = p.stage.kind == JKind::Semi;
        let keep: Vec<usize> = (0..ln).filter(|&l| (at[l + 1] > 0) == want).collect();
        return left.gather(&keep);
    }
    for l in 0..ln {
        at[l + 1] += at[l];
    }
    let total = at[ln] as usize;
    let (mut li, mut ri) = (vec![0usize; total], vec![0usize; total]);
    for (&l, &r) in build_rows.iter().zip(sel) {
        let slot = &mut at[l];
        li[*slot as usize] = l;
        ri[*slot as usize] = r;
        *slot += 1;
    }
    let mut cols = left.gather(&li).cols;
    cols.extend(base.gather(&ri).cols);
    Batch { cols }
}

/// A join without keys: semi/anti keep all of `left` or none of it
/// (uncorrelated EXISTS), everything else is the cross product, left-major.
/// A one-row side broadcasts; the other side's columns are shared.
fn keyless_join(left: &Batch, right: &Batch, kind: JKind) -> Batch {
    let (ln, rn) = (left.num_rows(), right.num_rows());
    if matches!(kind, JKind::Semi | JKind::Anti) {
        return if (rn > 0) == (kind == JKind::Semi) {
            left.clone()
        } else {
            left.gather(&[])
        };
    }
    let mut cols = match rn {
        1 => left.cols.clone(),
        _ => {
            let li: Vec<usize> = (0..ln)
                .flat_map(|i| std::iter::repeat(i).take(rn))
                .collect();
            left.gather(&li).cols
        }
    };
    cols.extend(match ln {
        1 => right.cols.clone(),
        _ => {
            let ri: Vec<usize> = (0..ln).flat_map(|_| 0..rn).collect();
            right.gather(&ri).cols
        }
    });
    Batch { cols }
}

/// One ORDER BY key, typed once so comparisons read slices and never box a
/// [`pytond_common::Value`]. The order is `Value::total_cmp`'s: NULL first,
/// then by value — floats by `f64::total_cmp`, strings bytewise.
struct SortKey<'a> {
    data: SortData<'a>,
    valid: Option<&'a [bool]>,
    asc: bool,
}

enum SortData<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    Date(&'a [i32]),
    Str(&'a [String]),
    /// Dictionary codes with each dictionary entry's rank in string order.
    Dict(&'a [u32], Vec<u32>),
}

impl<'a> SortKey<'a> {
    fn new(col: &'a Column, asc: bool) -> SortKey<'a> {
        let data = match col {
            Column::Int(d, _) => SortData::Int(d),
            Column::Float(d, _) => SortData::Float(d),
            Column::Bool(d, _) => SortData::Bool(d),
            Column::Date(d, _) => SortData::Date(d),
            Column::Str(d, _) => SortData::Str(d),
            Column::DictStr { codes, dict, .. } => {
                let mut by_str: Vec<u32> = (0..dict.len() as u32).collect();
                by_str.sort_unstable_by_key(|&c| dict.get(c));
                let mut rank = vec![0u32; dict.len()];
                for (r, &c) in by_str.iter().enumerate() {
                    rank[c as usize] = r as u32;
                }
                SortData::Dict(codes, rank)
            }
        };
        SortKey {
            data,
            valid: col.validity(),
            asc,
        }
    }

    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        let ord = match self.valid.map_or((true, true), |v| (v[a], v[b])) {
            (true, true) => match &self.data {
                SortData::Int(d) => d[a].cmp(&d[b]),
                SortData::Float(d) => d[a].total_cmp(&d[b]),
                SortData::Bool(d) => d[a].cmp(&d[b]),
                SortData::Date(d) => d[a].cmp(&d[b]),
                SortData::Str(d) => d[a].cmp(&d[b]),
                SortData::Dict(codes, rank) => {
                    rank[codes[a] as usize].cmp(&rank[codes[b] as usize])
                }
            },
            // NULL sorts first; two NULLs tie.
            (va, vb) => va.cmp(&vb),
        };
        if self.asc {
            ord
        } else {
            ord.reverse()
        }
    }
}

/// Concatenates per-chunk outputs in chunk order, growing the first in
/// place (a serial run's single chunk moves through untouched).
fn stitch<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    out.reserve(total - out.len());
    chunks.for_each(|c| out.extend(c));
    out
}

/// "No build row": the build index of an unmatched row of a left/full join.
const NO_ROW: usize = usize::MAX;

/// Build-row indices with [`NO_ROW`] as `None` (outer-join gathers).
fn opt_rows(ri: &[usize]) -> Vec<Option<usize>> {
    ri.iter().map(|&r| (r != NO_ROW).then_some(r)).collect()
}

/// Probe outcomes over a range of probe rows, in probe order. Semi/anti:
/// `li` lists the probe rows to keep and `ri` stays empty. Every other kind:
/// match pairs — probe row `li[k]` with build row `ri[k]`, or [`NO_ROW`] for
/// the unmatched probe rows a left/full join keeps — each probe row's
/// matches in ascending build-row order.
struct ProbeHits {
    li: Vec<usize>,
    ri: Vec<usize>,
}

/// The probe loop, generic over the key type: NULL keys never match, semi
/// keeps rows with a match, anti keeps NULL-key and matchless rows.
fn probe_rows<K: IndexKey>(
    keys: &[K],
    nulls: Option<&[bool]>,
    range: std::ops::Range<usize>,
    index: &PartitionedIndex<K>,
    kind: JKind,
) -> ProbeHits {
    let mut li: Vec<usize> = Vec::with_capacity(range.len());
    let mut ri: Vec<usize> = Vec::new();
    if matches!(kind, JKind::Semi | JKind::Anti) {
        let want = kind == JKind::Semi;
        li.extend(range.filter(|&i| index.probe(keys, nulls, i).is_some() == want));
        return ProbeHits { li, ri };
    }
    let keep_unmatched = matches!(kind, JKind::Left | JKind::Full);
    ri.reserve(range.len());
    for i in range {
        match index.probe(keys, nulls, i) {
            Some(rows) => {
                for &r in rows {
                    li.push(i);
                    ri.push(r as usize);
                }
            }
            None if keep_unmatched => {
                li.push(i);
                ri.push(NO_ROW);
            }
            None => {}
        }
    }
    ProbeHits { li, ri }
}

/// Compacts a chunk some stage materialized to its surviving rows,
/// restricted to the columns `only` names when the sink reads just those
/// (an aggregate sink's key and argument inputs).
fn compact_chunk(chunk: Chunk, only: Option<&[usize]>) -> Chunk {
    let batch = match only {
        None => chunk.batch,
        Some(used) => Batch {
            cols: used.iter().map(|&i| chunk.batch.cols[i].clone()).collect(),
        },
    };
    let batch = match &chunk.rows {
        // Every row survives: no copy.
        Rows::Range(r) if r.start == 0 && r.end == batch.num_rows() => batch,
        Rows::Range(r) => Batch {
            cols: batch
                .cols
                .iter()
                .map(|c| Arc::new(c.slice(r.start, r.end)))
                .collect(),
        },
        Rows::Sel(s) => batch.gather(s),
    };
    Chunk {
        rows: Rows::Range(0..chunk.rows.len()),
        batch,
        ..chunk
    }
}

/// The rows the selections keep of each view part, in order, as one batch.
/// A part whose kept rows are one run — every row of a storage chunk that
/// survived — appends that range, as [`Batch::concat_rows`] does; any other
/// is gathered, then appended. Parts of one dictionary lineage append by
/// code (see [`Column::append`]).
fn gather_parts(parts: Vec<(usize, Batch, Vec<Vec<usize>>)>) -> Result<Batch> {
    let parts: Vec<(Batch, Vec<usize>)> =
        parts.into_iter().map(|(_, b, s)| (b, stitch(s))).collect();
    let total = parts.iter().map(|(_, s)| s.len()).sum::<usize>();
    let cols = (0..parts[0].0.cols.len()).map(|i| {
        let mut out = parts[0].0.cols[i].slice(0, 0);
        out.reserve(total);
        for (b, sel) in &parts {
            match run_of(sel) {
                Some(rows) => out.append_range(&b.cols[i], rows)?,
                None => out.append(&b.cols[i].gather(sel))?,
            }
        }
        Ok(out)
    });
    Ok(Batch::from_columns(cols.collect::<Result<_>>()?))
}

/// The rows of an ascending, duplicate-free selection as one range, when
/// they are one run: its ends are as far apart as it is long.
fn run_of(sel: &[usize]) -> Option<std::ops::Range<usize>> {
    let (&lo, &hi) = (sel.first()?, sel.last()?);
    (hi - lo + 1 == sel.len()).then_some(lo..hi + 1)
}

/// An empty batch with the fields' dtypes (a pipeline whose every chunk
/// was pruned or filtered away still reports typed columns).
fn empty_batch(fields: &[crate::table::Field]) -> Batch {
    Batch {
        cols: fields
            .iter()
            .map(|f| Arc::new(Column::new(f.dtype)))
            .collect(),
    }
}

/// The key layout the engine chooses for the given key-column sets:
/// `Some(width)` = fixed-width packed fast path, `None` = byte-encoded
/// fallback. This is the exact decision joins (two column sets,
/// `nulls_matter = false`; planned from static dtypes in
/// [`crate::pipeline`]) and aggregation, DISTINCT included (one set,
/// `nulls_matter = true`), make — exposed so tests and diagnostics can assert
/// which path a query takes.
pub fn planned_key_width(col_sets: &[&[&Column]], nulls_matter: bool) -> Option<KeyWidth> {
    FixedKeySpec::plan(col_sets, nulls_matter).map(|s| s.width())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_fast_path_taken_for_int_date_keys() {
        let i = Column::from_i64(vec![1, 2]);
        let d = Column::from_dates(vec![3, 4]);
        let b = Column::from_bool(vec![true, false]);
        // Group-by / distinct (nulls_matter = true).
        assert_eq!(planned_key_width(&[&[&i]], true), Some(KeyWidth::U64));
        assert_eq!(planned_key_width(&[&[&d]], true), Some(KeyWidth::U64));
        assert_eq!(planned_key_width(&[&[&i, &d]], true), Some(KeyWidth::U128));
        // Two 32-bit dates fit a word; adding a bool (1 bit) tips into u128.
        assert_eq!(planned_key_width(&[&[&d, &d]], true), Some(KeyWidth::U64));
        assert_eq!(
            planned_key_width(&[&[&d, &d, &b]], true),
            Some(KeyWidth::U128)
        );
        // Join keys: the layout is planned jointly over both sides.
        assert_eq!(
            planned_key_width(&[&[&i], &[&d]], false),
            Some(KeyWidth::U64)
        );
        assert_eq!(
            planned_key_width(&[&[&i, &i], &[&i, &d]], false),
            Some(KeyWidth::U128)
        );
    }

    #[test]
    fn byte_fallback_covers_string_and_mixed_keys() {
        let i = Column::from_i64(vec![1]);
        let s = Column::from_strs(&["x"]);
        let f = Column::from_f64(vec![1.0]);
        assert_eq!(planned_key_width(&[&[&s]], true), None);
        assert_eq!(planned_key_width(&[&[&i, &s]], true), None);
        assert_eq!(planned_key_width(&[&[&f]], true), None);
        assert_eq!(planned_key_width(&[&[&i], &[&f]], false), None);
        // Three 64-bit columns overflow u128 and fall back too.
        assert_eq!(planned_key_width(&[&[&i, &i, &i]], true), None);
    }
}
