//! Physical execution: morsel-parallel operators over materialized batches.
//!
//! The executor walks the logical plan operator-at-a-time. Parallelism is
//! morsel-driven (see `docs/EXECUTION.md` for the full threading model):
//! predicated scans, filters, projections, join probes and partial
//! aggregations claim morsels from [`pytond_common::pool`]'s shared atomic
//! cursor, then merge deterministically — morsel order for row streams,
//! global first-occurrence order for groups (matching the Pandas baseline's
//! group order, which keeps differential tests exact). Hash-join build sides
//! above [`pytond_common::hash::MIN_PARTITIONED_BUILD`] rows are split by
//! key hash into partitions built concurrently
//! ([`pytond_common::hash::PartitionedIndex`]). Order-sensitive float
//! accumulation always folds over the fixed morsel grid — never over
//! per-thread chunks — so every thread count (including 1) produces
//! bit-identical results.
//!
//! Profile differences:
//!
//! * **vectorized** — every operator materializes its full output before the
//!   next starts (DuckDB-style operator-at-a-time with intermediate vectors);
//! * **fused** — the plan is decomposed into single-pass pipelines
//!   ([`crate::pipeline`]): a claimed morsel flows
//!   scan → filter → project → join-probe → aggregate-partial while hot in
//!   cache, with no intermediate relation between the fused operators — the
//!   observable effect of Hyper-style pipeline compilation at this engine's
//!   abstraction level. `PYTOND_NO_FUSE=1` forces the materializing path for
//!   every profile; differential suites (`tests/fusion_property.rs`,
//!   `tests/plan_fuzz.rs`) prove the two paths bit-identical.

use crate::agg::{AggLayout, AggState};
use crate::db::Snapshot;
use crate::expr::{BExpr, DictTables, RowsRef};
use crate::pipeline::{self, Pipeline, Sink, Stage};
use crate::plan::{BAgg, BoundQuery, JKind, LogicalPlan};
use crate::stats::ZONE_ROWS;
use crate::table::{Batch, Schema, StoredTable};
use pytond_common::cancel::CancelToken;
use pytond_common::fault::{self, FaultSite};
use pytond_common::hash::{
    distinct_keep, sql_key_encodings, FixedKeySpec, FxHashMap, FxHashSet, KeyArena, KeyWidth,
    PartitionedIndex,
};
use pytond_common::pool;
use pytond_common::{Column, DType, Error, Result};
use std::borrow::Cow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Runtime options (derived from [`crate::db::EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for morsel-parallel operators. This is the *resolved*
    /// degree of parallelism: [`crate::db::Database`] maps a configured `0`
    /// ("auto") to [`pytond_common::pool::default_threads`] before execution
    /// reaches here. `1` runs every operator inline with no worker threads.
    pub threads: usize,
    /// Fused (late-materialization) execution.
    pub fused: bool,
    /// Rows per morsel.
    pub morsel: usize,
    /// Consult zone maps to skip morsels on pushed-down scan predicates.
    pub zone_prune: bool,
    /// Per-query lifecycle token: deadline, explicit cancel and memory
    /// budget. Polled at every morsel claim, join-build step and
    /// aggregation-merge step (see `docs/RESILIENCE.md`). The default is a
    /// disarmed token that only meters check counts.
    pub cancel: CancelToken,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: pool::default_threads(),
            fused: false,
            morsel: 16 * 1024,
            zone_prune: true,
            cancel: CancelToken::disarmed(),
        }
    }
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

/// Minimum number of morsels' worth of input before an operator spawns
/// workers: below this, scoped-thread startup costs more than parallelism
/// recovers (sub-millisecond operators). Purely a scheduling gate — the
/// morsel grid, and therefore every result bit, is identical either way.
const SPAWN_MIN_MORSELS: usize = 4;

/// Executor counters for one query, reported through
/// [`crate::db::Database::execute_sql_traced`].
///
/// Scan "morsels" are statistics zones ([`crate::stats::ZONE_ROWS`] rows):
/// the granularity at which predicated scans either evaluate or skip input.
/// [`ExecMetrics::morsels_claimed_per_worker`] counts dispenser claims of
/// *any* parallel operator (scans, filters, projections, join probes,
/// aggregation partials), accumulated per worker id across the whole query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Resolved degree of parallelism the query ran with.
    pub threads: usize,
    /// Zones whose rows a predicated scan actually evaluated, as
    /// **per-pipeline totals**: each pipeline (fused, or the single-operator
    /// pipeline a materializing scan amounts to) counts every zone it
    /// evaluates exactly once, no matter how many downstream operators
    /// consume the scan's rows. Pinned by a trace assertion in
    /// `tests/fusion_property.rs`.
    pub morsels_scanned: u64,
    /// Zones skipped because zone-map bounds proved the predicate false.
    pub morsels_pruned: u64,
    /// Fused single-pass pipelines driven by this query (0 on the
    /// materializing path).
    pub pipelines: u64,
    /// Operators fused into each pipeline (source + streaming stages + an
    /// aggregation sink), in pipeline completion order.
    pub pipeline_ops: Vec<u64>,
    /// Full intermediate materializations the fused pipelines avoided
    /// compared to operator-at-a-time execution (see
    /// [`crate::pipeline::Pipeline::intermediates_avoided`]).
    pub intermediates_avoided: u64,
    /// Hash joins that built on the left input because it was the smaller
    /// side (the planner's layout defaults to building on the right).
    pub joins_flipped: u64,
    /// Work units claimed from the shared morsel dispenser, per worker id,
    /// summed over every parallel operator in the query. **Empty** when the
    /// whole query ran on the serial path (inline operators never touch the
    /// dispenser); parallel operators always contribute ≥ 2 worker entries.
    pub morsels_claimed_per_worker: Vec<u64>,
    /// Hash-join build partitions constructed concurrently (0 when every
    /// build ran serially on one partition).
    pub partitions_built: u64,
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

/// Executes a bound query, materializing CTEs in order.
pub fn execute(db: &Snapshot, q: &BoundQuery, opts: ExecOptions) -> Result<(Batch, Schema)> {
    let (batch, schema, _) = execute_traced(db, q, opts)?;
    Ok((batch, schema))
}

/// Like [`execute`], also returning the run's [`ExecMetrics`].
pub fn execute_traced(
    db: &Snapshot,
    q: &BoundQuery,
    opts: ExecOptions,
) -> Result<(Batch, Schema, ExecMetrics)> {
    execute_with_temps(db, q, FxHashMap::default(), opts)
}

/// Like [`execute_traced`], but execution starts with `temps` pre-seeded.
///
/// Temporaries shadow same-named base tables (the executor resolves temps
/// first), which is the delta-execution seam for incremental view
/// maintenance: overlaying a base table with a [`StoredTable`] holding only
/// its appended suffix makes every scan of that table see the delta rows
/// while all other inputs still read the pinned snapshot.
pub(crate) fn execute_with_temps(
    db: &Snapshot,
    q: &BoundQuery,
    temps: FxHashMap<String, StoredTable>,
    opts: ExecOptions,
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
    };
    for (name, plan) in &q.ctes {
        let batch = exec.exec(plan)?;
        let schema = plan.schema().clone();
        exec.temps.insert(
            name.to_lowercase(),
            StoredTable {
                schema: Schema::new(
                    schema
                        .fields
                        .iter()
                        .map(|f| crate::table::Field::new(f.name.clone(), f.dtype))
                        .collect(),
                ),
                batch,
                // CTE temporaries skip the stats pass: their scans filter
                // row-by-row without zone pruning.
                stats: None,
            },
        );
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
        self.charge_batch(&out)?;
        Ok(out)
    }

    /// Charges freshly materialized output columns against the memory
    /// budget. Only sole-owner columns count: shared `Arc`s (zero-copy
    /// scans, bare-column projections) are views of existing storage, not
    /// new allocations. No-op without an armed budget.
    fn charge_batch(&self, batch: &Batch) -> Result<()> {
        if self.opts.cancel.budget_bytes().is_none() {
            return Ok(());
        }
        let fresh: u64 = batch
            .cols
            .iter()
            .filter(|c| Arc::strong_count(c) == 1)
            .map(|c| c.heap_bytes())
            .sum();
        self.opts.cancel.charge(fresh)
    }

    fn exec_op(&self, plan: &LogicalPlan) -> Result<Batch> {
        // Fused profiles: drive the pipeline rooted here single-pass. Plans
        // (or subplans) that extract no pipeline fall through to the
        // materializing operators below — which are also the whole story
        // when fusion is off (`PYTOND_NO_FUSE=1` or the vectorized profile).
        if self.opts.fused {
            if let Some(pl) = pipeline::extract(plan) {
                return self.run_pipeline(plan, &pl);
            }
        }
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                pred,
                ..
            } => {
                let (batch, sel) = self.scan(table, projection.as_deref(), pred.as_ref())?;
                match sel {
                    Some(sel) => Ok(batch.gather(&sel)),
                    None => Ok(batch),
                }
            }
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
            LogicalPlan::Filter { input, pred } => {
                let batch = self.exec(input)?;
                let sel = self.filter_sel(&batch, pred)?;
                Ok(batch.gather(&sel))
            }
            LogicalPlan::Project { exprs, input, .. } => {
                let batch = self.exec(input)?;
                self.project(&batch, exprs, None)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                let lb = self.exec(left)?;
                let rb = self.exec(right)?;
                self.join(&lb, &rb, *kind, left_keys, right_keys, residual.as_ref())
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
            LogicalPlan::Distinct { input } => {
                let batch = self.exec(input)?;
                let cols: Vec<&Column> = batch.cols.iter().map(|c| c.as_ref()).collect();
                let keep = match FixedKeySpec::plan(&[&cols], true) {
                    Some(spec) if spec.width() == KeyWidth::U64 => {
                        self.distinct_rows(&spec.pack_u64(&cols).0)?
                    }
                    Some(spec) => self.distinct_rows(&spec.pack_u128(&cols).0)?,
                    None => {
                        let arena = KeyArena::encode_raw(&cols, false);
                        self.distinct_rows(&arena.dense_keys())?
                    }
                };
                Ok(batch.gather(&keep))
            }
        }
    }

    /// Resolves a scan's stored table (CTE temporaries shadow base tables).
    fn stored(&self, table: &str) -> Result<&StoredTable> {
        self.temps
            .get(&table.to_lowercase())
            .or_else(|| self.db.table(table))
            .ok_or_else(|| Error::Exec(format!("unknown table '{table}'")))
    }

    /// Zone-map pruning decision for a predicated scan: `(total zones,
    /// per-zone keep flags)`. `None` flags = nothing prunable (pruning off,
    /// or a stats-less CTE temp), every zone survives.
    fn zone_survivors(
        &self,
        stored: &StoredTable,
        pred: &BExpr,
    ) -> (usize, Option<Vec<bool>>, usize) {
        let n = stored.batch.num_rows();
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
                    let t = &match stored.batch.cols.get(col).and_then(|c| c.dict_parts()) {
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
        (total_zones, zone_ok, survived)
    }

    /// Scans a stored table: resolves the projection and, when a predicate
    /// was pushed down, evaluates it zone-at-a-time — consulting the zone
    /// maps first so morsels whose min/max bounds refute the predicate are
    /// skipped without touching their rows. Returns the (unfiltered)
    /// projected batch plus the selection of surviving rows.
    fn scan(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        pred: Option<&BExpr>,
    ) -> Result<(Batch, Option<Vec<usize>>)> {
        let stored = self.stored(table)?;
        let batch = match projection {
            None => stored.batch.clone(),
            Some(cols) => Batch {
                cols: cols.iter().map(|&i| stored.batch.cols[i].clone()).collect(),
            },
        };
        self.metrics.borrow_mut().dict_encoded_cols += batch.dict_cols() as u64;
        let Some(pred) = pred else {
            return Ok((batch, None));
        };
        let n = stored.batch.num_rows();
        let (total_zones, zone_ok, survived) = self.zone_survivors(stored, pred);
        {
            let mut m = self.metrics.borrow_mut();
            m.morsels_scanned += survived as u64;
            m.morsels_pruned += (total_zones - survived) as u64;
        }
        // Evaluate the predicate over the surviving rows against the *full*
        // stored batch (scan predicates address stored column indices).
        let full = Batch {
            cols: stored.batch.cols.clone(),
        };
        let scan_threads = if n <= ZONE_ROWS * (SPAWN_MIN_MORSELS - 1) {
            1
        } else {
            self.opts.threads
        };
        let sel = if scan_threads > 1 {
            // Parallel predicated scan: workers claim zone-aligned morsels
            // from the shared dispenser; pruned zones are claimed and
            // dropped without touching their rows. Surviving selections
            // stitch in zone order, so the selection is byte-for-byte the
            // serial scan's.
            let cancel = &self.opts.cancel;
            let tables = Some(&self.dict_tables);
            let outcome = pool::par_morsels(
                scan_threads,
                n,
                ZONE_ROWS,
                &self.job_label("scan"),
                |z, r| {
                    morsel_guard(cancel)?;
                    if zone_ok.as_ref().is_some_and(|ok| !ok[z]) {
                        return Ok(Vec::new());
                    }
                    let mask = pred.mask_rows(&full, RowsRef::Range(r.start, r.end), tables)?;
                    Ok(r.zip(mask)
                        .filter_map(|(i, keep)| keep.then_some(i))
                        .collect::<Vec<usize>>())
                },
            )?;
            self.note_claims(&outcome.claimed_per_worker);
            stitch(outcome.results)
        } else {
            match &zone_ok {
                // Something pruned: evaluate only the surviving candidates.
                Some(ok) if survived < total_zones => {
                    let mut rows = Vec::new();
                    for (z, keep) in ok.iter().enumerate() {
                        if *keep {
                            rows.extend(z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(n));
                        }
                    }
                    self.filter_sel_within(&full, pred, &rows)?
                }
                _ => self.filter_sel(&full, pred)?,
            }
        };
        Ok((batch, Some(sel)))
    }

    /// The worker count an operator over `n` rows should spawn: the
    /// configured count, or 1 (inline, no threads) when the input spans
    /// fewer than [`SPAWN_MIN_MORSELS`] morsels — sub-millisecond operators
    /// lose more to thread spawns than workers can win back. This gates only
    /// *who executes*; the morsel grid (and thus every result bit) is
    /// unaffected.
    fn op_threads(&self, n: usize) -> usize {
        if n <= self.opts.morsel * (SPAWN_MIN_MORSELS - 1) {
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

    /// Runs `f` over `(start, end)` ranges of `[0, n)` for **elementwise**
    /// work, whose per-row outputs are independent of the chunk grid. Serial
    /// (`threads = 1`) evaluates one range spanning the whole input — the
    /// exact pre-pool code path — unless the query's token is armed, in
    /// which case the serial run iterates the fixed morsel grid so a
    /// deadline or cancel trips within one morsel (elementwise outputs are
    /// chunk-independent, so the concatenated result is identical). Parallel
    /// runs claim morsel-grid ranges from the shared dispenser and return
    /// results in morsel order. `op` names the operator for pool-job panic
    /// diagnostics.
    fn par_elementwise<T: Send>(
        &self,
        op: &str,
        n: usize,
        f: impl Fn(usize, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let threads = self.op_threads(n);
        if threads <= 1 {
            if !self.opts.cancel.is_armed() && fault::active().is_none() {
                return Ok(vec![f(0, n)?]);
            }
            let morsel = self.opts.morsel.max(1);
            let count = n.div_ceil(morsel);
            let mut out = Vec::with_capacity(count);
            for i in 0..count {
                morsel_guard(&self.opts.cancel)?;
                out.push(f(i * morsel, ((i + 1) * morsel).min(n))?);
            }
            return Ok(out);
        }
        let cancel = &self.opts.cancel;
        let outcome =
            pool::par_morsels(threads, n, self.opts.morsel, &self.job_label(op), |_, r| {
                morsel_guard(cancel)?;
                f(r.start, r.end)
            })?;
        self.note_claims(&outcome.claimed_per_worker);
        Ok(outcome.results)
    }

    /// Runs `f` over the **fixed** morsel grid of `[0, n)` at every thread
    /// count — the grid for order-sensitive partials (float aggregation),
    /// where the merge tree must not depend on the worker count. See
    /// `docs/EXECUTION.md` § determinism. Every grid step passes through the
    /// morsel guard (cancellation poll + fault point).
    fn par_fixed<T: Send>(
        &self,
        op: &str,
        n: usize,
        f: impl Fn(usize, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let threads = self.op_threads(n);
        let cancel = &self.opts.cancel;
        let outcome =
            pool::par_morsels(threads, n, self.opts.morsel, &self.job_label(op), |_, r| {
                morsel_guard(cancel)?;
                f(r.start, r.end)
            })?;
        if threads > 1 {
            self.note_claims(&outcome.claimed_per_worker);
        }
        Ok(outcome.results)
    }

    /// Builds a hash-join build side: a CSR index, partitioned and built
    /// concurrently when the input is large enough and workers are
    /// available. Polls the token and charges what the flat layout
    /// allocates: a row id and a slot-scratch word per build row before the
    /// build, the key → slot state (proportional to the *distinct* keys)
    /// once its size is known.
    fn build_index<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        (keys, nulls): &JoinKeys<K>,
    ) -> Result<PartitionedIndex<K>> {
        self.opts.cancel.check()?;
        self.opts.cancel.charge(8 * keys.len() as u64)?;
        let idx = PartitionedIndex::build(keys, nulls.as_deref(), self.opts.threads);
        let row_ids = 4 * keys.len() as u64;
        self.opts
            .cancel
            .charge(idx.heap_bytes().saturating_sub(row_ids))?;
        let mut m = self.metrics.borrow_mut();
        m.join_build_rows += keys.len() as u64;
        if idx.partitioned() {
            m.partitions_built += idx.num_partitions() as u64;
        }
        Ok(idx)
    }

    /// First-occurrence distinct over per-row keys. Serial: one hash-set
    /// scan. Parallel: morsel-local first occurrences, merged through one
    /// global set in morsel order — the keep list is identical to the serial
    /// one by construction.
    fn distinct_rows<K: Hash + Eq + Copy + Send + Sync>(&self, keys: &[K]) -> Result<Vec<usize>> {
        let threads = self.op_threads(keys.len());
        if threads <= 1 {
            return Ok(distinct_keep(keys));
        }
        let cancel = &self.opts.cancel;
        let outcome = pool::par_morsels(
            threads,
            keys.len(),
            self.opts.morsel,
            &self.job_label("distinct"),
            |_, r| {
                morsel_guard(cancel)?;
                let mut seen: FxHashSet<K> = FxHashSet::default();
                let mut keep = Vec::new();
                for i in r {
                    if seen.insert(keys[i]) {
                        keep.push(i);
                    }
                }
                Ok(keep)
            },
        )?;
        self.note_claims(&outcome.claimed_per_worker);
        let mut global: FxHashSet<K> = FxHashSet::default();
        let mut keep = Vec::new();
        for local in outcome.results {
            for i in local {
                if global.insert(keys[i]) {
                    keep.push(i);
                }
            }
        }
        Ok(keep)
    }

    /// Like [`Executor::filter_sel`], restricted to the given candidate rows.
    fn filter_sel_within(
        &self,
        batch: &Batch,
        pred: &BExpr,
        candidates: &[usize],
    ) -> Result<Vec<usize>> {
        let tables = Some(&self.dict_tables);
        let chunks = self.par_elementwise("filter", candidates.len(), |start, end| {
            let local = &candidates[start..end];
            let mask = pred.mask_rows(batch, RowsRef::Sel(local), tables)?;
            Ok(local
                .iter()
                .zip(mask)
                .filter_map(|(&i, keep)| keep.then_some(i))
                .collect::<Vec<usize>>())
        })?;
        Ok(stitch(chunks))
    }

    /// Evaluates a predicate, returning the surviving row indices.
    fn filter_sel(&self, batch: &Batch, pred: &BExpr) -> Result<Vec<usize>> {
        let n = batch.num_rows();
        let tables = Some(&self.dict_tables);
        let chunks = self.par_elementwise("filter", n, |start, end| {
            let mask = pred.mask_rows(batch, RowsRef::Range(start, end), tables)?;
            Ok((start..end)
                .zip(mask)
                .filter_map(|(i, keep)| keep.then_some(i))
                .collect::<Vec<usize>>())
        })?;
        Ok(stitch(chunks))
    }

    fn project(&self, batch: &Batch, exprs: &[BExpr], sel: Option<&[usize]>) -> Result<Batch> {
        let n = sel.map_or(batch.num_rows(), |s| s.len());
        let mut out_cols: Vec<Arc<Column>> = Vec::with_capacity(exprs.len());
        for e in exprs {
            // Bare column without a selection: share the input column
            // (permutation projections — e.g. the join-reorder restore
            // projection — cost one Arc clone instead of a copy).
            if sel.is_none() {
                if let BExpr::Col(i) = e {
                    out_cols.push(batch.cols[*i].clone());
                    continue;
                }
            }
            out_cols.push(Arc::new(self.eval_parallel("project", batch, e, sel, n)?));
        }
        Ok(Batch { cols: out_cols })
    }

    // ---------------- join ----------------

    fn join(
        &self,
        left: &Batch,
        right: &Batch,
        kind: JKind,
        left_keys: &[BExpr],
        right_keys: &[BExpr],
        residual: Option<&BExpr>,
    ) -> Result<Batch> {
        // Keyless joins.
        if left_keys.is_empty() {
            return self.keyless_join(left, right, kind, residual);
        }
        let mut lkey_cols: Vec<Column> = left_keys
            .iter()
            .map(|e| e.eval(left, None))
            .collect::<Result<_>>()?;
        let mut rkey_cols: Vec<Column> = right_keys
            .iter()
            .map(|e| e.eval(right, None))
            .collect::<Result<_>>()?;
        // String key pairs: unify both sides into one shared dictionary so
        // `FixedKeySpec` can pack 32-bit codes instead of byte-encoding every
        // row. Skipped under the no-dict oracle, which exercises the byte
        // fallback end to end.
        if !crate::db::no_dict() {
            for i in 0..lkey_cols.len() {
                if lkey_cols[i].dtype() == DType::Str && rkey_cols[i].dtype() == DType::Str {
                    let (l, r) = pytond_common::unify_dict_pair(&lkey_cols[i], &rkey_cols[i]);
                    lkey_cols[i] = l;
                    rkey_cols[i] = r;
                }
            }
        }
        let lrefs: Vec<&Column> = lkey_cols.iter().collect();
        let rrefs: Vec<&Column> = rkey_cols.iter().collect();
        // Pick the key layout jointly over both sides; the packed fast paths
        // and the byte fallback share one generic build/probe implementation.
        match FixedKeySpec::plan(&[&lrefs, &rrefs], false) {
            Some(spec) if spec.width() == KeyWidth::U64 => {
                let (lk, rk) = (spec.pack_u64(&lrefs), spec.pack_u64(&rrefs));
                self.hash_join(left, right, kind, &lk, &rk, residual)
            }
            Some(spec) => {
                let (lk, rk) = (spec.pack_u128(&lrefs), spec.pack_u128(&rrefs));
                self.hash_join(left, right, kind, &lk, &rk, residual)
            }
            None => {
                // Per-position encodings keep fallback equality identical to
                // what the packed path would compute (exact int-like keys,
                // f64-normalized only where a float column participates).
                let enc = sql_key_encodings(&[&lrefs, &rrefs]);
                let la = KeyArena::encode(&lrefs, &enc, true);
                let ra = KeyArena::encode(&rrefs, &enc, true);
                let (lk, rk) = (la.keys_and_nulls(), ra.keys_and_nulls());
                self.hash_join(left, right, kind, &lk, &rk, residual)
            }
        }
    }

    /// Hash join over precomputed per-row keys with their NULL-key masks
    /// (NULL keys never match). `K` is `u64`/`u128` on the packed fast path
    /// and a borrowed `&[u8]` arena slice on the fallback — either way
    /// `Copy`, so the build side inserts without cloning.
    ///
    /// Build/probe side selection: the index defaults to the right input,
    /// but when the left side's (actual, post-filter) cardinality is smaller
    /// and the join kind permits, it builds on the left instead and probes
    /// with the right — output order is preserved either way.
    fn hash_join<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        left: &Batch,
        right: &Batch,
        kind: JKind,
        lkeys: &JoinKeys<K>,
        rkeys: &JoinKeys<K>,
        residual: Option<&BExpr>,
    ) -> Result<Batch> {
        let flip = matches!(kind, JKind::Inner | JKind::Semi | JKind::Anti)
            && left.num_rows() < right.num_rows();
        let mut out = if flip {
            self.metrics.borrow_mut().joins_flipped += 1;
            self.join_build_left(left, right, kind, lkeys, rkeys)?
        } else {
            self.join_build_right(left, right, kind, lkeys, rkeys)?
        };
        if let Some(res) = residual {
            let sel = self.filter_sel(&out, res)?;
            out = out.gather(&sel);
        }
        Ok(out)
    }

    /// Hash join building on the **left** (smaller) side and probing with the
    /// right — used for inner/semi/anti joins when the left input is smaller.
    /// Match pairs regroup left-major by a counting sort (for each left row,
    /// its matching right rows in right-row order), which is exactly the
    /// order [`Executor::join_build_right`] produces, so flipping is
    /// invisible to results.
    fn join_build_left<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        left: &Batch,
        right: &Batch,
        kind: JKind,
        lkeys: &JoinKeys<K>,
        rkeys: &JoinKeys<K>,
    ) -> Result<Batch> {
        let ln = left.num_rows();
        let table = self.build_index(lkeys)?;
        self.metrics.borrow_mut().join_probe_rows += right.num_rows() as u64;
        let (rk, rnulls) = (&rkeys.0, rkeys.1.as_deref());
        // Probe: right side in parallel morsels, emitting (left row, right
        // row) pairs; chunks stitch in range order, so pairs arrive with
        // right rows ascending.
        let pairs = self.par_elementwise("join-probe", right.num_rows(), |start, end| {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for j in start..end {
                if let Some(rows) = table.probe(rk, rnulls, j) {
                    pairs.extend(rows.iter().map(|&l| (l, j as u32)));
                }
            }
            Ok(pairs)
        })?;
        // Matches per left row, then (exclusive prefix sum) where each left
        // row's run starts in the left-major output.
        let mut at = vec![0u32; ln + 1];
        for &(l, _) in pairs.iter().flatten() {
            at[l as usize + 1] += 1;
        }
        if matches!(kind, JKind::Semi | JKind::Anti) {
            let want = kind == JKind::Semi;
            let keep: Vec<usize> = (0..ln).filter(|&l| (at[l + 1] > 0) == want).collect();
            return Ok(left.gather(&keep));
        }
        for l in 0..ln {
            at[l + 1] += at[l];
        }
        let total = at[ln] as usize;
        let (mut li, mut ri) = (vec![0usize; total], vec![0usize; total]);
        for &(l, r) in pairs.iter().flatten() {
            let slot = &mut at[l as usize];
            li[*slot as usize] = l as usize;
            ri[*slot as usize] = r as usize;
            *slot += 1;
        }
        let mut cols = left.gather(&li).cols;
        cols.extend(right.gather(&ri).cols);
        Ok(Batch { cols })
    }

    /// Hash join building on the right input and probing with the left, in
    /// parallel morsels stitched in range order: left-major output, each
    /// left row's matches in ascending right-row order.
    fn join_build_right<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        left: &Batch,
        right: &Batch,
        kind: JKind,
        lkeys: &JoinKeys<K>,
        rkeys: &JoinKeys<K>,
    ) -> Result<Batch> {
        let table = self.build_index(rkeys)?;
        self.metrics.borrow_mut().join_probe_rows += left.num_rows() as u64;
        let (lk, lnulls) = (&lkeys.0, lkeys.1.as_deref());
        let chunks = self.par_elementwise("join-probe", left.num_rows(), |start, end| {
            Ok(probe_rows(lk, lnulls, start..end, &table, kind))
        })?;
        let (li, ri): (Vec<_>, Vec<_>) = chunks.into_iter().map(|h| (h.li, h.ri)).unzip();
        let (li, ri) = (stitch(li), stitch(ri));
        Ok(match kind {
            JKind::Semi | JKind::Anti => left.gather(&li),
            JKind::Inner => {
                let mut cols = left.gather(&li).cols;
                cols.extend(right.gather(&ri).cols);
                Batch { cols }
            }
            _ => {
                let mut lo: Vec<Option<usize>> = li.into_iter().map(Some).collect();
                let mut ro = opt_rows(&ri);
                if matches!(kind, JKind::Right | JKind::Full) {
                    // Unmatched build rows, in right-row order.
                    let mut matched = vec![false; right.num_rows()];
                    ro.iter().flatten().for_each(|&r| matched[r] = true);
                    for r in (0..matched.len()).filter(|&r| !matched[r]) {
                        lo.push(None);
                        ro.push(Some(r));
                    }
                }
                let mut cols = left.gather_opt(&lo).cols;
                cols.extend(right.gather_opt(&ro).cols);
                Batch { cols }
            }
        })
    }

    fn keyless_join(
        &self,
        left: &Batch,
        right: &Batch,
        kind: JKind,
        residual: Option<&BExpr>,
    ) -> Result<Batch> {
        match kind {
            JKind::Semi | JKind::Anti => {
                // Uncorrelated EXISTS: keep all or nothing.
                let keep = (right.num_rows() > 0) == matches!(kind, JKind::Semi);
                if keep {
                    Ok(left.clone())
                } else {
                    Ok(left.gather(&[]))
                }
            }
            _ => {
                let (ln, rn) = (left.num_rows(), right.num_rows());
                let mut li = Vec::with_capacity(ln * rn);
                let mut ri = Vec::with_capacity(ln * rn);
                for i in 0..ln {
                    for j in 0..rn {
                        li.push(i);
                        ri.push(j);
                    }
                }
                let mut cols = left.gather(&li).cols;
                cols.extend(right.gather(&ri).cols);
                let mut out = Batch { cols };
                if let Some(res) = residual {
                    let sel = self.filter_sel(&out, res)?;
                    out = out.gather(&sel);
                }
                Ok(out)
            }
        }
    }

    // ---------------- aggregate ----------------

    /// The aggregation tail shared by the materializing operator and the
    /// fused pipeline sink: the `n` input rows in (only the columns that keys
    /// and arguments reference need to be populated), final batch out.
    /// Group keys are evaluated and packed once over all rows; aggregate
    /// arguments are evaluated inside [`Executor::agg_states`], one grid
    /// morsel at a time. The fixed morsel grid over `n` rows (and the
    /// ascending merge of its partials) depends only on `(n, opts.morsel)`,
    /// so any producer that delivers the same column *values* in the same
    /// row order gets a bit-identical result — the keystone of the
    /// fused/unfused equivalence.
    fn aggregate_from_cols(
        &self,
        input: &Batch,
        n: usize,
        group: &[BExpr],
        aggs: &[BAgg],
    ) -> Result<Batch> {
        let layout = AggLayout::plan(aggs, input, &self.dict_tables)?;
        // A bare-column key is read in place.
        let key_cols: Vec<Cow<'_, Column>> = group
            .iter()
            .map(|e| match e {
                BExpr::Col(i) if *i < input.cols.len() => Ok(Cow::Borrowed(&*input.cols[*i])),
                e => self
                    .eval_parallel("eval", input, e, None, n)
                    .map(Cow::Owned),
            })
            .collect::<Result<_>>()?;
        // Group keys take the packed fast path when every key column is
        // fixed-width (group semantics: NULL is a key value, so the layout
        // folds a validity bit in); strings/floats fall back to arena-encoded
        // byte keys. Scalar aggregation has no keys at all.
        let krefs: Vec<&Column> = key_cols.iter().map(|c| c.as_ref()).collect();
        let state = if group.is_empty() {
            self.agg_states::<u64>(input, n, None, &layout)?
        } else {
            match FixedKeySpec::plan(&[&krefs], true) {
                Some(spec) if spec.width() == KeyWidth::U64 => {
                    self.agg_states(input, n, Some(&spec.pack_u64(&krefs).0), &layout)?
                }
                Some(spec) => {
                    self.agg_states(input, n, Some(&spec.pack_u128(&krefs).0), &layout)?
                }
                None => {
                    let enc = sql_key_encodings(&[&krefs]);
                    let arena = KeyArena::encode(&krefs, &enc, false);
                    self.agg_states(input, n, Some(&arena.dense_keys()), &layout)?
                }
            }
        };
        self.metrics.borrow_mut().agg_groups += state.groups() as u64;
        // Assemble output: group keys (at each group's first row — groups are
        // in global first-occurrence order) then aggregates.
        let mut out_cols: Vec<Column> = key_cols
            .iter()
            .map(|k| k.gather(&state.first_row))
            .collect();
        out_cols.extend(state.finalize(&layout)?);
        Ok(Batch::from_columns(out_cols))
    }

    /// Partial aggregation on the **fixed morsel grid**, merged by global
    /// first occurrence. `keys` are the per-row group keys — a packed
    /// `u64`/`u128` word or a borrowed byte slice, never cloned — or `None`
    /// for scalar aggregation, which needs neither keys nor a hash map: every
    /// morsel is one group.
    ///
    /// Determinism: partials are computed per fixed-size morsel (the grid
    /// depends only on `n` and `opts.morsel`, never on the worker count) and
    /// merged in ascending morsel order, each partial's groups visited in
    /// their local first-occurrence order. Float sums therefore fold over
    /// the *same tree* at every thread count — the engine's "fixed merge
    /// order" policy (`docs/EXECUTION.md`) — and the global group order is
    /// exactly global first-occurrence order.
    fn agg_states<K: Hash + Eq + Copy + Send + Sync>(
        &self,
        input: &Batch,
        n: usize,
        keys: Option<&[K]>,
        layout: &AggLayout<'_>,
    ) -> Result<AggState> {
        let tables = &self.dict_tables;
        let partials = self.par_fixed("agg-partial", n, |start, end| {
            let Some(keys) = keys else {
                let part = layout.partial(input, (start, end), None, vec![start], tables)?;
                return Ok((Vec::new(), part));
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
            let part = layout.partial(input, (start, end), Some(&gids), first_row, tables)?;
            Ok((order, part))
        })?;
        // Merge partials in ascending morsel order — the explicit merge
        // order every thread count shares. Each merge step polls the token
        // and charges newly retained groups against the budget: their slots
        // in every accumulator array plus the key → group map entry.
        let group_bytes = layout.group_bytes() + std::mem::size_of::<(K, u32)>();
        let mut global: FxHashMap<K, u32> = FxHashMap::default();
        let mut state = layout.empty();
        let mut to_global: Vec<u32> = Vec::new();
        for (order, part) in partials {
            self.opts.cancel.check()?;
            let before = state.groups();
            to_global.clear();
            if keys.is_none() {
                to_global.push(0);
                if before == 0 {
                    state.push_group(part.first_row[0]);
                }
            }
            for (key, &row) in order.iter().zip(&part.first_row) {
                let g = *global.entry(*key).or_insert(state.groups() as u32);
                if g as usize == state.groups() {
                    state.push_group(row);
                }
                to_global.push(g);
            }
            self.opts
                .cancel
                .charge(((state.groups() - before) * group_bytes) as u64)?;
            state.merge(part, &to_global, layout);
        }
        // Scalar aggregation over empty input still yields one row.
        if keys.is_none() && state.groups() == 0 {
            state.push_group(0);
        }
        Ok(state)
    }

    /// Evaluates `e` over `sel` (or all `n` rows) of `batch`, morsel-parallel
    /// when the input is large enough; chunks concatenate in morsel order.
    fn eval_parallel(
        &self,
        op: &str,
        batch: &Batch,
        e: &BExpr,
        sel: Option<&[usize]>,
        n: usize,
    ) -> Result<Column> {
        let tables = Some(&self.dict_tables);
        let chunks = self.par_elementwise(op, n, |start, end| {
            let rows = match sel {
                Some(s) => RowsRef::Sel(&s[start..end]),
                None => RowsRef::Range(start, end),
            };
            e.eval_rows(batch, rows, tables)
        })?;
        let mut it = chunks.into_iter();
        let mut col = it.next().unwrap_or_else(|| Column::new(DType::Int));
        for c in it {
            col.append(&c)?;
        }
        Ok(col)
    }

    // ---------------- sort / window ----------------

    fn sort(&self, batch: &Batch, keys: &[(BExpr, bool)]) -> Result<Batch> {
        let n = batch.num_rows();
        let key_cols: Vec<(Column, bool)> = keys
            .iter()
            .map(|(e, asc)| Ok((e.eval(batch, None)?, *asc)))
            .collect::<Result<_>>()?;
        let indices = self.sorted_indices(n, &key_cols);
        Ok(batch.gather(&indices))
    }

    fn sorted_indices(&self, n: usize, key_cols: &[(Column, bool)]) -> Vec<usize> {
        let cmp = |&a: &usize, &b: &usize| {
            for (col, asc) in key_cols {
                let ord = col.get(a).total_cmp(&col.get(b));
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b) // stable tie-break on original position
        };
        let mut idx: Vec<usize> = (0..n).collect();
        if self.opts.threads > 1 && n > 4 * self.opts.morsel {
            // Parallel chunk sort (pool tasks) + k-way merge. The comparator
            // totally orders rows (ties broken on original position), so the
            // merged output is the serial sort's, independent of chunking.
            let chunk = n.div_ceil(self.opts.threads);
            let bounds: Vec<&[usize]> = idx.chunks(chunk).collect();
            let chunks: Vec<Vec<usize>> = pool::par_indexed(
                self.opts.threads,
                bounds.len(),
                &self.job_label("sort"),
                |ci| {
                    let mut c = bounds[ci].to_vec();
                    c.sort_by(cmp);
                    c
                },
            );
            // k-way merge
            let mut heads = vec![0usize; chunks.len()];
            let mut out = Vec::with_capacity(n);
            loop {
                let mut best: Option<(usize, usize)> = None; // (chunk, idx value)
                for (ci, c) in chunks.iter().enumerate() {
                    if heads[ci] < c.len() {
                        let cand = c[heads[ci]];
                        best = match best {
                            None => Some((ci, cand)),
                            Some((bci, bv)) => {
                                if cmp(&cand, &bv) == std::cmp::Ordering::Less {
                                    Some((ci, cand))
                                } else {
                                    Some((bci, bv))
                                }
                            }
                        };
                    }
                }
                match best {
                    Some((ci, v)) => {
                        out.push(v);
                        heads[ci] += 1;
                    }
                    None => break,
                }
            }
            out
        } else {
            idx.sort_by(cmp);
            idx
        }
    }

    fn window(&self, batch: &Batch, order: &[(BExpr, bool)]) -> Result<Batch> {
        let n = batch.num_rows();
        let ranks: Vec<i64> = if order.is_empty() {
            (1..=n as i64).collect()
        } else {
            let key_cols: Vec<(Column, bool)> = order
                .iter()
                .map(|(e, asc)| Ok((e.eval(batch, None)?, *asc)))
                .collect::<Result<_>>()?;
            let sorted = self.sorted_indices(n, &key_cols);
            let mut ranks = vec![0i64; n];
            for (pos, &row) in sorted.iter().enumerate() {
                ranks[row] = pos as i64 + 1;
            }
            ranks
        };
        let mut cols = batch.cols.clone();
        cols.push(Arc::new(Column::from_i64(ranks)));
        Ok(Batch { cols })
    }

    // ---------------- fused pipeline driver ----------------

    /// Drives one extracted pipeline single-pass: every claimed morsel flows
    /// source → stages → sink entirely while hot in cache.
    ///
    /// Determinism: the morsel grid is zone-aligned for fused scans (the
    /// same grid the materializing scan uses) and `opts.morsel`-aligned for
    /// materialized sources; chunks merge in ascending morsel order. A
    /// materialize sink therefore stitches exactly the rows the
    /// operator-at-a-time path would emit, in the same order; an aggregate
    /// sink stitches just the input columns its keys and arguments
    /// reference, in that same order, and hands them to
    /// [`Executor::aggregate_from_cols`], whose fixed grid over the
    /// concatenated rows is byte-identical to the unfused one. Fused ≡
    /// unfused, bit for bit, by construction.
    fn run_pipeline(&self, plan: &LogicalPlan, pl: &Pipeline<'_>) -> Result<Batch> {
        // Source: a predicated scan fuses (zone-aligned grid, claim-time
        // zone-map skip); any breaker materializes once, then chunks.
        let (source, n, step, threads) = match pl.source {
            LogicalPlan::Scan {
                table,
                projection,
                pred: Some(pred),
                ..
            } => {
                let stored = self.stored(table)?;
                let n = stored.batch.num_rows();
                let (total_zones, zone_ok, survived) = self.zone_survivors(stored, pred);
                {
                    let mut m = self.metrics.borrow_mut();
                    m.morsels_scanned += survived as u64;
                    m.morsels_pruned += (total_zones - survived) as u64;
                }
                let full = Batch {
                    cols: stored.batch.cols.clone(),
                };
                let proj = match projection {
                    None => stored.batch.clone(),
                    Some(cols) => Batch {
                        cols: cols.iter().map(|&i| stored.batch.cols[i].clone()).collect(),
                    },
                };
                self.metrics.borrow_mut().dict_encoded_cols += proj.dict_cols() as u64;
                let threads = if n <= ZONE_ROWS * (SPAWN_MIN_MORSELS - 1) {
                    1
                } else {
                    self.opts.threads
                };
                (
                    PSource::Scan {
                        full,
                        proj,
                        pred,
                        zone_ok,
                    },
                    n,
                    ZONE_ROWS,
                    threads,
                )
            }
            src => {
                let batch = self.exec(src)?;
                let n = batch.num_rows();
                (
                    PSource::Mat(batch),
                    n,
                    self.opts.morsel.max(1),
                    self.op_threads(n),
                )
            }
        };
        // Stage preparation: join build sides execute here (recursively —
        // possibly as pipelines of their own), before morsels start flowing.
        let stages: Vec<PStage<'_>> = pl
            .stages
            .iter()
            .map(|s| self.prepare_stage(s))
            .collect::<Result<_>>()?;
        {
            let mut m = self.metrics.borrow_mut();
            m.pipelines += 1;
            m.pipeline_ops.push(pl.ops() as u64);
            m.intermediates_avoided += pl.intermediates_avoided() as u64;
            m.dict_probe_pipelines += u64::from(stages.iter().any(
                |s| matches!(s, PStage::Probe(p) if p.build_dicts.iter().any(Option::is_some)),
            ));
        }
        // An aggregate sink streams only the input columns its keys and
        // arguments reference; a materialize sink streams all of them.
        let sink_cols: Option<Vec<usize>> = match &pl.sink {
            Sink::Materialize => None,
            Sink::Aggregate { group, aggs } => {
                let mut used = Vec::new();
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                group
                    .iter()
                    .chain(args)
                    .for_each(|e| e.columns_used(&mut used));
                used.sort_unstable();
                Some(used)
            }
        };
        // Drive. Each claim passes the morsel guard (fault point + cancel
        // poll); each stage boundary polls again, so deadlines, budgets and
        // explicit cancels trip within one morsel even mid-pipeline.
        let cx = ChunkCx {
            cancel: &self.opts.cancel,
            tables: &self.dict_tables,
        };
        let outcome = pool::par_morsels(threads, n, step, &self.job_label("pipeline"), |z, r| {
            morsel_guard(cx.cancel)?;
            let Some(mut chunk) = source_chunk(&source, z, r, cx)? else {
                return Ok(None);
            };
            for st in &stages {
                chunk = apply_stage(st, chunk, cx)?;
            }
            Ok(Some(finish_chunk(chunk, sink_cols.as_deref())))
        })?;
        if threads > 1 {
            self.note_claims(&outcome.claimed_per_worker);
        }
        for st in &stages {
            if let PStage::Probe(p) = st {
                self.metrics.borrow_mut().join_probe_rows += p.probed.load(Relaxed);
            }
        }
        // Merge surviving chunks in morsel order. The total surviving row
        // count is known before the merge starts, so the accumulating
        // columns reserve once instead of repeatedly doubling.
        let chunks: Vec<(usize, Batch)> = outcome.results.into_iter().flatten().collect();
        let total: usize = chunks.iter().map(|(rows, _)| rows).sum();
        let mut merged: Option<Vec<Column>> = None;
        for (rows, b) in chunks {
            match &mut merged {
                None => {
                    let mut first: Vec<Column> = b
                        .cols
                        .into_iter()
                        .map(|c| Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone()))
                        .collect();
                    for c in &mut first {
                        c.reserve(total - rows);
                    }
                    merged = Some(first);
                }
                Some(acc) => {
                    self.opts.cancel.check()?;
                    for (a, c) in acc.iter_mut().zip(&b.cols) {
                        a.append(c)?;
                    }
                }
            }
        }
        match (&pl.sink, sink_cols) {
            (Sink::Aggregate { group, aggs }, Some(used)) => {
                let LogicalPlan::Aggregate { input, .. } = plan else {
                    unreachable!("aggregate sink under a non-aggregate root");
                };
                // The tail addresses columns by their position in the last
                // stage's output: put each streamed column back in its place
                // and leave the unreferenced positions typed and empty (also
                // the whole story when every zone was pruned or filtered).
                let mut wide = empty_batch(input.schema());
                for (i, c) in used.into_iter().zip(merged.into_iter().flatten()) {
                    wide.cols[i] = Arc::new(c);
                }
                self.aggregate_from_cols(&wide, total, group, aggs)
            }
            _ => Ok(match merged {
                Some(cols) => Batch::from_columns(cols),
                None => empty_batch(plan.schema()),
            }),
        }
    }

    /// Turns an extracted stage into its runtime form; probe stages execute
    /// their build side and construct the hash index here.
    fn prepare_stage<'q>(&self, st: &'q Stage<'_>) -> Result<PStage<'q>> {
        Ok(match st {
            Stage::Filter(p) => PStage::Filter(p),
            Stage::Project(e) => PStage::Project(e),
            Stage::Probe(pr) => {
                let right = self.exec(pr.build)?;
                // String-typed build keys define the probe's canonical code
                // space: dictionary-encoded columns keep their dictionary,
                // plain string outputs (expression results) get a fresh one.
                // The spec planned these positions as 32-bit dict slots (see
                // `pipeline::probe_spec`), so packing needs `DictStr` here.
                let mut build_dicts: Vec<Option<Arc<pytond_common::Dictionary>>> = Vec::new();
                let rkey_cols: Vec<Column> = pr
                    .right_keys
                    .iter()
                    .map(|e| {
                        let c = e.eval(&right, None)?;
                        Ok(if c.dtype() == DType::Str {
                            let enc = c.encode_str();
                            let (_, dict, _) = enc.dict_parts().expect("encode_str yields DictStr");
                            build_dicts.push(Some(dict.clone()));
                            enc
                        } else {
                            build_dicts.push(None);
                            c
                        })
                    })
                    .collect::<Result<_>>()?;
                let rrefs: Vec<&Column> = rkey_cols.iter().collect();
                let index = match pr.spec.width() {
                    KeyWidth::U64 => ProbeIndex::U64(self.build_index(&pr.spec.pack_u64(&rrefs))?),
                    KeyWidth::U128 => {
                        ProbeIndex::U128(self.build_index(&pr.spec.pack_u128(&rrefs))?)
                    }
                };
                PStage::Probe(PProbe {
                    kind: pr.kind,
                    left_keys: pr.left_keys,
                    residual: pr.residual,
                    spec: &pr.spec,
                    right,
                    index,
                    build_dicts,
                    probed: AtomicU64::new(0),
                })
            }
        })
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

/// One morsel's worth of data flowing through a pipeline: a batch of
/// columns (`Arc`-shared source columns, or a morsel-sized materialization
/// a stage produced — `owned`), plus the selection of live rows.
struct Chunk {
    batch: Batch,
    rows: Rows,
    owned: bool,
}

/// A pipeline's prepared source.
enum PSource<'a> {
    /// Fused predicated scan: the full stored batch (scan predicates
    /// address stored column indices), the projected view chunks flow from,
    /// the predicate, and the zone-map verdicts.
    Scan {
        full: Batch,
        proj: Batch,
        pred: &'a BExpr,
        zone_ok: Option<Vec<bool>>,
    },
    /// Materialized breaker output, chunked on the `opts.morsel` grid.
    Mat(Batch),
}

/// A prepared stage: filters and projections run as-is; probes carry their
/// built hash index and build-side batch.
enum PStage<'a> {
    Filter(&'a BExpr),
    Project(&'a [BExpr]),
    Probe(PProbe<'a>),
}

/// A prepared fused join probe.
struct PProbe<'a> {
    kind: JKind,
    left_keys: &'a [BExpr],
    residual: Option<&'a BExpr>,
    spec: &'a FixedKeySpec,
    right: Batch,
    index: ProbeIndex,
    /// Per key position: the build side's canonical dictionary for
    /// string-typed keys (`None` for non-string positions). Probe chunks
    /// re-encode their key columns into this code space before packing; a
    /// probe string absent from the build dictionary becomes an invalid row,
    /// which packs to a NULL key — exactly a join miss.
    build_dicts: Vec<Option<Arc<pytond_common::Dictionary>>>,
    /// Rows probed so far, over every chunk (a statistic: `Relaxed`).
    probed: AtomicU64,
}

/// The build-side hash index at its planned key width.
enum ProbeIndex {
    U64(PartitionedIndex<u64>),
    U128(PartitionedIndex<u128>),
}

/// Produces the chunk for one claimed morsel, or `None` when the zone is
/// pruned or no row survives the scan predicate.
fn source_chunk(
    src: &PSource<'_>,
    z: usize,
    r: std::ops::Range<usize>,
    cx: ChunkCx<'_>,
) -> Result<Option<Chunk>> {
    match src {
        PSource::Mat(b) => Ok(Some(Chunk {
            batch: b.clone(),
            rows: Rows::Range(r),
            owned: false,
        })),
        PSource::Scan {
            full,
            proj,
            pred,
            zone_ok,
        } => {
            if zone_ok.as_ref().is_some_and(|ok| !ok[z]) {
                return Ok(None);
            }
            let mask = pred.mask_rows(full, RowsRef::Range(r.start, r.end), Some(cx.tables))?;
            if mask.iter().all(|&k| k) {
                return Ok(Some(Chunk {
                    batch: proj.clone(),
                    rows: Rows::Range(r),
                    owned: false,
                }));
            }
            let rows: Vec<usize> = r
                .zip(mask)
                .filter_map(|(i, keep)| keep.then_some(i))
                .collect();
            if rows.is_empty() {
                return Ok(None);
            }
            Ok(Some(Chunk {
                batch: proj.clone(),
                rows: Rows::Sel(rows),
                owned: false,
            }))
        }
    }
}

/// Narrows a selection by a per-live-row mask.
fn shrink(rows: Rows, mask: &[bool]) -> Rows {
    match rows {
        Rows::Range(r) => Rows::Sel(
            r.zip(mask)
                .filter_map(|(i, &keep)| keep.then_some(i))
                .collect(),
        ),
        Rows::Sel(s) => Rows::Sel(
            s.into_iter()
                .zip(mask)
                .filter_map(|(i, &keep)| keep.then_some(i))
                .collect(),
        ),
    }
}

/// Maps local live-row positions back to batch row indices.
fn map_local(rows: &Rows, local: &[usize]) -> Vec<usize> {
    match rows {
        Rows::Range(r) => local.iter().map(|&i| r.start + i).collect(),
        Rows::Sel(s) => local.iter().map(|&i| s[i]).collect(),
    }
}

/// Keeps the live rows at the given local positions (semi/anti probes).
fn select_local(rows: Rows, keep: &[usize]) -> Rows {
    match rows {
        Rows::Range(r) => Rows::Sel(keep.iter().map(|&i| r.start + i).collect()),
        Rows::Sel(s) => Rows::Sel(keep.iter().map(|&i| s[i]).collect()),
    }
}

/// Materializes a chunk's live rows.
fn chunk_gather(batch: &Batch, rows: &Rows) -> Batch {
    match rows {
        Rows::Range(r) => Batch {
            cols: batch
                .cols
                .iter()
                .map(|c| Arc::new(c.slice(r.start, r.end)))
                .collect(),
        },
        Rows::Sel(s) => batch.gather(s),
    }
}

/// Charges a stage's freshly materialized chunk columns against the memory
/// budget (no-op without an armed budget, matching
/// [`Executor::charge_batch`]'s accounting policy).
fn charge_cols(cancel: &CancelToken, cols: &[Arc<Column>]) -> Result<()> {
    if cancel.budget_bytes().is_some() {
        cancel.charge(cols.iter().map(|c| c.heap_bytes()).sum())?;
    }
    Ok(())
}

/// Applies one stage to a chunk. Every stage boundary polls the token, so
/// lifecycle limits trip within one morsel even mid-pipeline.
fn apply_stage(st: &PStage<'_>, chunk: Chunk, cx: ChunkCx<'_>) -> Result<Chunk> {
    cx.cancel.check()?;
    match st {
        PStage::Filter(pred) => {
            let mask = cx.mask(pred, &chunk.batch, &chunk.rows)?;
            let Chunk { batch, rows, owned } = chunk;
            Ok(Chunk {
                batch,
                rows: shrink(rows, &mask),
                owned,
            })
        }
        PStage::Project(exprs) => {
            let n = chunk.rows.len();
            let cols: Vec<Arc<Column>> = exprs
                .iter()
                .map(|e| cx.eval(e, &chunk.batch, &chunk.rows).map(Arc::new))
                .collect::<Result<_>>()?;
            charge_cols(cx.cancel, &cols)?;
            Ok(Chunk {
                batch: Batch { cols },
                rows: Rows::Range(0..n),
                owned: true,
            })
        }
        PStage::Probe(p) => apply_probe(p, chunk, cx),
    }
}

/// Probes one chunk through a fused join. Semi/anti joins only narrow the
/// selection (no columns move); inner/left joins materialize the joined
/// morsel (left columns gathered, right columns gathered-with-nulls), in
/// exactly the left-major, right-ascending order the materializing join
/// emits.
fn apply_probe(p: &PProbe<'_>, chunk: Chunk, cx: ChunkCx<'_>) -> Result<Chunk> {
    let kcols: Vec<Column> = p
        .left_keys
        .iter()
        .zip(&p.build_dicts)
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
    let hits = match &p.index {
        ProbeIndex::U64(idx) => {
            let (keys, nulls) = p.spec.pack_u64(&krefs);
            probe_rows(&keys, nulls.as_deref(), 0..n, idx, p.kind)
        }
        ProbeIndex::U128(idx) => {
            let (keys, nulls) = p.spec.pack_u128(&krefs);
            probe_rows(&keys, nulls.as_deref(), 0..n, idx, p.kind)
        }
    };
    let joined = if matches!(p.kind, JKind::Semi | JKind::Anti) {
        let Chunk { batch, rows, owned } = chunk;
        Chunk {
            batch,
            rows: select_local(rows, &hits.li),
            owned,
        }
    } else {
        let bi = map_local(&chunk.rows, &hits.li);
        let mut cols = chunk.batch.gather(&bi).cols;
        cols.extend(match p.kind {
            JKind::Inner => p.right.gather(&hits.ri).cols,
            _ => p.right.gather_opt(&opt_rows(&hits.ri)).cols,
        });
        charge_cols(cx.cancel, &cols)?;
        let n = cols.first().map_or(0, |c| c.len());
        Chunk {
            batch: Batch { cols },
            rows: Rows::Range(0..n),
            owned: true,
        }
    };
    match p.residual {
        None => Ok(joined),
        Some(res) => {
            let mask = cx.mask(res, &joined.batch, &joined.rows)?;
            let Chunk { batch, rows, owned } = joined;
            Ok(Chunk {
                batch,
                rows: shrink(rows, &mask),
                owned,
            })
        }
    }
}

/// Concatenates per-morsel outputs in morsel order, growing the first in
/// place (a serial run's single chunk moves through untouched).
fn stitch<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    chunks.for_each(|c| out.extend(c));
    out
}

/// Per-row keys of one join side: packed words or arena slices, plus the
/// mask of rows whose key contains a NULL (`None` = no such row).
type JoinKeys<K> = (Vec<K>, Option<Vec<bool>>);

/// "No build row": the right index of an unmatched row of a left/full join.
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

/// The probe loop, generic over the key type; shared by the materializing
/// join and the fused probe stage, so their match semantics cannot drift:
/// NULL keys never match, semi keeps rows with a match, anti keeps NULL-key
/// and matchless rows.
fn probe_rows<K: Hash + Eq + Copy + Send + Sync>(
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

/// Terminates a chunk at the pipeline's sink: its surviving rows (and how
/// many), restricted to the columns `only` names when the sink reads just
/// those (an aggregate sink's key and argument inputs).
fn finish_chunk(chunk: Chunk, only: Option<&[usize]>) -> (usize, Batch) {
    let n = chunk.rows.len();
    let batch = match only {
        None => chunk.batch,
        Some(used) => Batch {
            cols: used.iter().map(|&i| chunk.batch.cols[i].clone()).collect(),
        },
    };
    // A stage-owned batch whose rows all survive needs no copy.
    let whole = matches!(&chunk.rows, Rows::Range(r) if r.start == 0 && r.end == batch.num_rows());
    if chunk.owned && whole {
        return (n, batch);
    }
    (n, chunk_gather(&batch, &chunk.rows))
}

/// An empty batch with the schema's dtypes (a pipeline whose every chunk
/// was pruned or filtered away still reports typed columns).
fn empty_batch(schema: &Schema) -> Batch {
    Batch {
        cols: schema
            .fields
            .iter()
            .map(|f| Arc::new(Column::new(f.dtype)))
            .collect(),
    }
}

/// The key layout the executor chooses for the given key-column sets:
/// `Some(width)` = fixed-width packed fast path, `None` = byte-encoded
/// fallback. This is the exact decision `join` (two column sets,
/// `nulls_matter = false`), `aggregate` and `distinct` (one set,
/// `nulls_matter = true`) make internally — exposed so tests and diagnostics
/// can assert which path a query takes.
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
