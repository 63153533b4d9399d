//! Incremental view maintenance (IVM) for standing queries.
//!
//! [`Database::register_view`] compiles a standing query once, materializes
//! its initial result, and keeps the result up to date on every subsequent
//! [`Database::append`] — propagating only the appended rows (a **delta**)
//! where the plan shape allows it, and falling back to a full, explicitly
//! traced recompute where it does not. Readers call [`Database::view`] and
//! get a lock-free, never-torn [`ViewState`]: an immutable result plus the
//! snapshot version it is consistent with.
//!
//! # Delta rules
//!
//! Refresh happens inside the writer critical section, right after the new
//! snapshot version is published, so each refresh sees exactly one table
//! grown by exactly the appended suffix. Per referenced table the plan is
//! classified once, at prepare time:
//!
//! * **delta-chain** — the path from the table's scan up to the root is all
//!   `Filter`/`Project`/`Join` nodes, with the scan feeding the **left**
//!   (probe) side of every join on the path and every such join
//!   insert-monotone (`Inner`/`Left`/`Semi`/`Anti`/`Cross`). These
//!   operators are elementwise or left-major, so the new result is exactly
//!   the old result plus a suffix: re-running the plan with the table's
//!   scan overlaid by just the appended rows (a delta-join against the
//!   pinned base snapshot) yields precisely that suffix, bit-identically.
//! * **delta-agg** — the chain reaches a single `Aggregate` barrier. The
//!   view carries that aggregate's `Fold` (`crate::agg`) across appends: the merged
//!   partials of every closed (full) morsel of its input so far, plus the
//!   raw rows of the open trailing morsel. A refresh runs the plan over the
//!   overlay as above; the barrier resumes the fold with the rows that
//!   reach it — on the same fixed morsel grid, closing whatever fills —
//!   and hands `finalize(closed ⊕ partial(open))` to the plan above it.
//!   That is the fold tree a from-scratch run over the whole input walks,
//!   so float `SUM`/`AVG` come out **bit-identical**, at O(batch + morsel +
//!   groups) per append and O(groups + morsel) memory. (Merging finished
//!   aggregates would change the summation order; keeping and
//!   re-aggregating the whole input — what this module did before — costs
//!   O(input).)
//! * **recompute** — everything else: tables scanned inside a CTE that
//!   survived binding (one referenced more than once; single-use CTEs are
//!   spliced into the tree and classify like any subtree), tables scanned
//!   more than once, deltas feeding a join build side or a non-monotone
//!   (`Right`/`Full`) join, and order-sensitive operators (`Sort`,
//!   `Window`, `Limit`) between the scan and the root (above the aggregate
//!   barrier they are fine — they re-run from the small aggregate output
//!   every refresh). `DISTINCT` is no such operator: it binds as a key-only
//!   `Aggregate`, so it is a delta-agg barrier like any `GROUP BY`.
//!
//! # Consistency and staleness
//!
//! A published [`ViewState`] stamped with snapshot version *v* is
//! bit-identical to executing the view's own prepared plan from scratch
//! against the pinned snapshot *v* (`Value::total_cmp`-identical cells, same
//! row order). Refresh runs under the same lifecycle machinery as queries
//! (`Snapshot::run_bound`) — armed [`CancelToken`](pytond_common::CancelToken)
//! (deadline + memory budget from the view's [`EngineConfig`] or
//! environment), worker-panic containment, and the
//! [`FaultSite::ViewPublish`] injection point — and publishes atomically via
//! [`Versioned`]. A failed, cancelled, or fault-injected refresh publishes
//! nothing: the view stays at its prior consistent version (staleness is
//! visible as `state.snapshot_version() < db.stats_version()`), and the next
//! successful refresh heals it with a full recompute. Events on tables the
//! view does not reference re-stamp the carried result only when the view
//! is currently consistent — a stale view is never re-stamped without
//! recomputing, so the staleness check above cannot be defeated by writes
//! to unrelated tables.
//!
//! # Differential oracle
//!
//! [`Database::view_oracle_at`] recomputes a view from scratch against a
//! pinned snapshot with the view's own prepared plan (so cost-based join
//! orders cannot drift between the two sides); [`Database::view_oracle`]
//! does so against the current one. The maintenance suites compare every
//! maintained state with it after every append. See `docs/VIEWS.md`.

use crate::agg::Fold;
use crate::ast::Query;
use crate::db::{CatalogReads, Database, EngineConfig, PreparedQuery, Refresh, Snapshot};
use crate::exec::Resume;
use crate::parser::parse_sql;
use crate::plan::{JKind, LogicalPlan};
use crate::table::{Batch, Chunk, Schema, StoredTable};
use pytond_common::fault::{self, FaultSite};
use pytond_common::hash::FxHashMap;
use pytond_common::version::Versioned;
use pytond_common::{Error, Relation, Result};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A standing query's compile step: the query lowered against a snapshot,
/// with what the lowering read of that snapshot's catalog. A SQL view's
/// returns its parsed tree; a `@pytond` view's compiles its source.
pub type ViewCompile = Arc<dyn Fn(&Snapshot) -> Result<(Query, CatalogReads)> + Send + Sync>;

/// How the most recent refresh produced the published result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// The initial materialization at [`Database::register_view`] time.
    Initial,
    /// Incremental propagation of the appended rows (delta-chain or
    /// delta-agg; a no-op append publishes `Delta` with zero rows).
    Delta,
    /// Full re-execution of the prepared plan (ineligible shape, stale
    /// maintenance state, or a plan compiled again because a fact it was
    /// compiled under no longer holds).
    Recompute,
}

impl RefreshMode {
    /// Lower-case token used in traces (`delta` / `recompute` / `initial`).
    pub fn name(self) -> &'static str {
        match self {
            RefreshMode::Initial => "initial",
            RefreshMode::Delta => "delta",
            RefreshMode::Recompute => "recompute",
        }
    }
}

/// One immutable published state of a view: the result, the snapshot
/// version it is consistent with, and how the refresh produced it.
///
/// Obtained from [`Database::view`]; the `Arc` pins this state for as long
/// as it is held — concurrent refreshes publish new states without ever
/// mutating one a reader observes.
#[derive(Debug)]
pub struct ViewState {
    name: String,
    rel: Arc<Relation>,
    snapshot_version: u64,
    mode: RefreshMode,
    rows_propagated: u64,
    reason: String,
    refresh_ns: u64,
}

impl ViewState {
    /// The materialized result.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The materialized result, shareable without a deep copy.
    pub fn shared_relation(&self) -> Arc<Relation> {
        self.rel.clone()
    }

    /// The [`Snapshot::version`] this result is consistent with: executing
    /// the view's prepared plan from scratch against that pinned snapshot
    /// reproduces [`ViewState::relation`] bit-for-bit. A value behind
    /// [`Database::stats_version`] means the view is stale (its last
    /// refresh failed or was cancelled).
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot_version
    }

    /// How the refresh that published this state ran.
    pub fn mode(&self) -> RefreshMode {
        self.mode
    }

    /// Rows the refresh pushed through the plan: the delta rows propagated
    /// (chain output or aggregate-input rows) in `delta` mode, the full
    /// result rows in `initial`/`recompute` mode.
    pub fn rows_propagated(&self) -> u64 {
        self.rows_propagated
    }

    /// Why the refresh chose its mode (empty for an ordinary delta).
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Wall-clock nanoseconds the refresh took (compute + publication).
    pub fn refresh_ns(&self) -> u64 {
        self.refresh_ns
    }

    /// One-line `view:` trace header, e.g.
    /// `view: top_suppliers v12 mode=delta rows=512 refresh=180µs`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "view: {} v{} mode={} rows={} refresh={:.0}µs",
            self.name,
            self.snapshot_version,
            self.mode.name(),
            self.rows_propagated,
            self.refresh_ns as f64 / 1e3,
        );
        if !self.reason.is_empty() {
            out.push_str(&format!(" ({})", self.reason));
        }
        out
    }
}

/// Per-referenced-table maintenance decision, fixed at prepare time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableClass {
    /// Appends propagate as a suffix through the chain to the root.
    Chain,
    /// Appends propagate into the carried fold of the barrier aggregate.
    Agg,
    /// Appends force a full recompute, for the recorded reason.
    Recompute(&'static str),
}

impl TableClass {
    fn render(&self) -> String {
        match self {
            TableClass::Chain => "delta (chain)".to_string(),
            TableClass::Agg => "delta (agg)".to_string(),
            TableClass::Recompute(r) => format!("recompute ({r})"),
        }
    }
}

/// The compiled maintenance plan of a view: prepared query + per-table
/// classification (+ where the barrier aggregate sits when any table is
/// agg-eligible).
#[derive(Debug)]
struct ViewPlan {
    prepared: PreparedQuery,
    /// Lower-cased referenced base table → decision. Tables absent from
    /// this map are unreferenced: events on them only bump the stamp (and
    /// only while the view is currently consistent).
    classes: FxHashMap<String, TableClass>,
    /// Child-index path from the root to the aggregate whose fold the view
    /// carries across appends.
    agg: Option<Vec<usize>>,
}

impl ViewPlan {
    /// The executor hook that makes the barrier aggregate fold into `fold`.
    fn resume<'a>(&'a self, fold: Option<&'a mut Fold>) -> Option<Resume<'a>> {
        let mut node = &self.prepared.plan().root;
        for &i in self.agg.as_ref()? {
            node = node.children()[i];
        }
        Some(Resume { node, fold: fold? })
    }
}

/// Mutable maintenance state, guarded by the entry mutex (all mutations run
/// inside the database writer critical section).
#[derive(Debug)]
struct ViewInner {
    /// Never executed at a snapshot where a fact it was compiled under no
    /// longer holds ([`PreparedQuery::broken_fact`]): every refresh or read
    /// compiles the view again first, and stays stale while that fails.
    plan: ViewPlan,
    /// Snapshot version of the last successful refresh; a refresh may apply
    /// a delta only when it extends exactly this version.
    parent_version: u64,
    /// Row counts of the referenced tables at `parent_version` (delta = the
    /// rows past the recorded count).
    base_rows: FxHashMap<String, usize>,
    /// The published result in engine (pre-decode) column space; appended
    /// in place by chain deltas. `None` = state lost to a failed refresh;
    /// the next refresh recomputes.
    content: Option<Batch>,
    /// What the barrier aggregate has folded so far (delta-agg views only).
    fold: Option<Fold>,
    /// Most recent refresh failure, for diagnostics.
    last_error: Option<String>,
}

/// One registered view: immutable identity + config, the atomically
/// published state, and the lock-guarded maintenance internals.
pub(crate) struct ViewEntry {
    name: String,
    /// The standing query, from source to the tree the plan binds.
    compile: ViewCompile,
    config: EngineConfig,
    published: Versioned<ViewState>,
    inner: Mutex<ViewInner>,
}

impl std::fmt::Debug for ViewEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Plan classification
// ---------------------------------------------------------------------------

/// Collects the base tables `plan` scans: a name one of the `ctes` visible
/// to it defines is that CTE's temporary, not a table.
fn collect_scan_tables(
    plan: &LogicalPlan,
    ctes: &[(String, LogicalPlan)],
    out: &mut BTreeSet<String>,
) {
    if let LogicalPlan::Scan { table, .. } = plan {
        if !ctes.iter().any(|(c, _)| c.eq_ignore_ascii_case(table)) {
            out.insert(table.to_lowercase());
        }
    }
    for child in plan.children() {
        collect_scan_tables(child, ctes, out);
    }
}

fn scan_count(plan: &LogicalPlan, table: &str) -> usize {
    let here = matches!(plan, LogicalPlan::Scan { table: t, .. } if t.eq_ignore_ascii_case(table))
        as usize;
    here + plan
        .children()
        .iter()
        .map(|c| scan_count(c, table))
        .sum::<usize>()
}

/// Rolled-up eligibility of the (unique) path from `table`'s scan to the
/// current node.
enum Roll {
    /// `table` is not scanned in this subtree.
    NotHere,
    /// So far the path is pure chain: the delta surfaces as a suffix here.
    Chain,
    /// The path hit an `Aggregate` barrier at this root-relative path;
    /// everything above re-runs from the maintained input.
    Agg(Vec<usize>),
    /// The path hit an operator that breaks suffix order.
    Stop(&'static str),
}

fn roll(plan: &LogicalPlan, table: &str, path: &mut Vec<usize>) -> Roll {
    if let LogicalPlan::Scan { table: t, .. } = plan {
        return if t.eq_ignore_ascii_case(table) {
            Roll::Chain
        } else {
            Roll::NotHere
        };
    }
    for (i, child) in plan.children().iter().enumerate() {
        path.push(i);
        let r = roll(child, table, path);
        path.pop();
        match r {
            Roll::NotHere => continue,
            Roll::Stop(_) | Roll::Agg(_) => return r,
            Roll::Chain => {
                return match plan {
                    LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => Roll::Chain,
                    LogicalPlan::Join { kind, .. } => {
                        if i == 0
                            && matches!(
                                kind,
                                JKind::Inner
                                    | JKind::Left
                                    | JKind::Semi
                                    | JKind::Anti
                                    | JKind::Cross
                            )
                        {
                            // Joins enumerate output left-major, so delta
                            // rows on the probe (left) side stay a suffix;
                            // these kinds are also insert-monotone on that
                            // side (existing output rows never change).
                            Roll::Chain
                        } else if i == 1 {
                            Roll::Stop("delta feeds a join build side")
                        } else {
                            Roll::Stop("non-monotone outer join")
                        }
                    }
                    LogicalPlan::Aggregate { .. } => Roll::Agg(path.clone()),
                    LogicalPlan::Sort { .. } => Roll::Stop("sort"),
                    LogicalPlan::Limit { .. } => Roll::Stop("limit"),
                    LogicalPlan::Window { .. } => Roll::Stop("window"),
                    LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {
                        unreachable!("leaves have no children")
                    }
                };
            }
        }
    }
    Roll::NotHere
}

fn build_plan(prepared: PreparedQuery) -> ViewPlan {
    let bound = prepared.plan();
    // The binder splices single-use CTEs into the tree; a CTE that survives
    // is shared, re-materialized by every refresh, and opaque to deltas.
    let mut shared = BTreeSet::new();
    for (i, (_, p)) in bound.ctes.iter().enumerate() {
        collect_scan_tables(p, &bound.ctes[..i], &mut shared);
    }
    let mut tables = shared.clone();
    collect_scan_tables(&bound.root, &bound.ctes, &mut tables);
    let mut classes = FxHashMap::default();
    let mut agg: Option<Vec<usize>> = None;
    for t in tables {
        let class = if shared.contains(&t) {
            TableClass::Recompute("scanned inside a shared CTE")
        } else if scan_count(&bound.root, &t) > 1 {
            TableClass::Recompute("table scanned more than once")
        } else {
            match roll(&bound.root, &t, &mut Vec::new()) {
                Roll::Chain => TableClass::Chain,
                Roll::Agg(p) if agg.as_ref().map_or(true, |q| *q == p) => {
                    agg = Some(p);
                    TableClass::Agg
                }
                Roll::Agg(_) => TableClass::Recompute("second aggregate barrier"),
                Roll::Stop(reason) => TableClass::Recompute(reason),
                Roll::NotHere => unreachable!("table was collected from a scan"),
            }
        };
        classes.insert(t, class);
    }
    ViewPlan {
        prepared,
        classes,
        agg,
    }
}

// ---------------------------------------------------------------------------
// Execution helpers
// ---------------------------------------------------------------------------

/// A [`StoredTable`] overlay holding only rows `[from, len)` of `stored` —
/// the appended suffix a delta execution scans instead of the full table:
/// the chunks pushed since the view's stamp, shared (the first one trimmed
/// to the suffix; the last one kept, empty, when nothing was pushed).
/// Statistics are dropped: no zone pruning over the delta.
fn suffix_overlay(stored: &StoredTable, from: usize) -> StoredTable {
    let (mut start, mut chunks) = (0, Vec::new());
    for c in &stored.chunks {
        let skip = from.saturating_sub(start).min(c.rows.len());
        start += c.rows.len();
        if skip < c.rows.len() || (start == stored.num_rows() && chunks.is_empty()) {
            let rows = c.rows.start + skip..c.rows.end;
            chunks.push(Chunk { rows, ..c.clone() });
        }
    }
    StoredTable {
        schema: stored.schema.clone(),
        chunks,
        stats: None,
    }
}

/// Appends `delta`'s rows onto `dst` column by column (copy-on-write: a
/// column still shared with a published state is cloned before mutation).
fn append_batch(dst: &mut Batch, delta: &Batch) -> Result<()> {
    debug_assert_eq!(dst.cols.len(), delta.cols.len());
    for (d, s) in dst.cols.iter_mut().zip(&delta.cols) {
        Arc::make_mut(d).append(s)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Refresh
// ---------------------------------------------------------------------------

/// Writer hook: refresh every registered view against the snapshot a
/// `register` or `append` of `table` just published. Runs inside the writer
/// critical section; view failures are contained per view and never fail
/// the write.
pub(crate) fn on_publish(db: &Database, snap: &Arc<Snapshot>, table: &str) {
    let mut entries: Vec<Arc<ViewEntry>> = {
        let views = db.shared.views.lock().expect("view registry poisoned");
        if views.is_empty() {
            return;
        }
        views.values().cloned().collect()
    };
    // Deterministic refresh order: fault-site visit counters (and therefore
    // seeded fault schedules) must not depend on hash-map iteration order.
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for entry in entries {
        entry.refresh(snap, table);
    }
}

impl ViewEntry {
    /// Current row counts of the referenced tables (the baseline future
    /// deltas measure against).
    fn base_rows(plan: &ViewPlan, snap: &Snapshot) -> FxHashMap<String, usize> {
        plan.classes
            .keys()
            .filter_map(|t| snap.table(t).map(|s| (t.clone(), s.num_rows())))
            .collect()
    }

    /// Runs a plan of the view against `snap` with `temps` shadowing base
    /// tables and, with `resume`, the barrier aggregate resuming a carried
    /// fold — under the query lifecycle minus admission
    /// ([`Snapshot::run_bound`]).
    fn run(
        &self,
        prepared: &PreparedQuery,
        snap: &Snapshot,
        temps: FxHashMap<String, StoredTable>,
        resume: Option<Resume<'_>>,
    ) -> Result<(Batch, Schema)> {
        let label = format!("mv:{}@v{}", self.name, snap.version());
        let refresh = Refresh {
            label,
            temps,
            resume,
        };
        let run = snap.run_bound(prepared.plan(), &self.config, None, Some(refresh));
        run.map(|(batch, schema, _)| (batch, schema))
    }

    /// Full recompute of content (and, when the plan is agg-eligible, of the
    /// fold its barrier aggregate leaves behind). Returns `(content, fold,
    /// schema)` without touching `inner` — the caller commits on success.
    fn recompute(&self, plan: &ViewPlan, snap: &Snapshot) -> Result<(Batch, Option<Fold>, Schema)> {
        let mut fold = plan.agg.as_ref().map(|_| Fold::default());
        let resume = plan.resume(fold.as_mut());
        let (content, schema) = self.run(&plan.prepared, snap, FxHashMap::default(), resume)?;
        Ok((content, fold, schema))
    }

    /// The standing query compiled and prepared against `snap`.
    fn prepare(&self, snap: &Snapshot) -> Result<PreparedQuery> {
        let (query, reads) = (self.compile)(snap)?;
        snap.prepare_query(&query, self.config.profile, &reads)
            .map_err(|e| {
                Error::Plan(format!(
                    "view '{}' does not prepare against the current schema: {e}",
                    self.name
                ))
            })
    }

    fn publish(
        &self,
        snap: &Snapshot,
        rel: Arc<Relation>,
        mode: RefreshMode,
        rows: u64,
        reason: String,
        started: Instant,
    ) {
        self.published.publish(Arc::new(ViewState {
            name: self.name.clone(),
            rel,
            snapshot_version: snap.version(),
            mode,
            rows_propagated: rows,
            reason,
            refresh_ns: started.elapsed().as_nanos() as u64,
        }));
    }

    /// One refresh attempt against the just-published snapshot. Any error
    /// (injected fault, cancellation, budget, panic) leaves the published
    /// state untouched at its prior consistent version and drops the
    /// maintenance state so the next refresh recomputes.
    fn refresh(&self, snap: &Arc<Snapshot>, table: &str) {
        let started = Instant::now();
        let mut inner = self.inner.lock().expect("view entry poisoned");
        let inner = &mut *inner;
        if let Err(e) = self.refresh_event(inner, snap, table, started) {
            // Keep the prior consistent version; heal by recompute next time.
            inner.content = None;
            inner.fold = None;
            inner.last_error = Some(e.to_string());
        }
    }

    fn refresh_event(
        &self,
        inner: &mut ViewInner,
        snap: &Arc<Snapshot>,
        table: &str,
        started: Instant,
    ) -> Result<()> {
        // A fact the plan was compiled under no longer holds (a table it
        // depends on was replaced, or a column it saw NULL-free holds a
        // NULL): the plan may bind dead column positions or rely on a
        // rewrite that is now wrong — compile the view again and recompute.
        // Stays stale (and unexecuted) until the view compiles again.
        if let Some(broken) = inner.plan.prepared.broken_fact(snap) {
            inner.plan = build_plan(self.prepare(snap)?);
            let reason = format!("re-planned: {broken}");
            return self.refresh_full(inner, snap, &reason, started);
        }
        self.refresh_append(inner, snap, table, started)
    }

    /// An event on a table the plan does not reference: the result cannot
    /// have changed, so a view that is consistent with the immediately
    /// preceding version just advances its stamp (the published relation is
    /// carried by pointer, no copy). A view that is NOT consistent — its
    /// last refresh failed or was cancelled — must never be re-stamped
    /// (that would falsely mark stale content as fresh and defeat the
    /// `snapshot_version() < stats_version()` staleness check); it heals by
    /// full recompute instead, keeping its prior stale stamp if the
    /// recompute fails too.
    fn refresh_unreferenced(
        &self,
        inner: &mut ViewInner,
        snap: &Snapshot,
        t: &str,
        started: Instant,
    ) -> Result<()> {
        let consistent = inner.content.is_some() && inner.parent_version + 1 == snap.version();
        if !consistent {
            return self.refresh_full(inner, snap, "healing stale view", started);
        }
        let rel = self.published.load().rel.clone();
        inner.parent_version = snap.version();
        self.publish(
            snap,
            rel,
            RefreshMode::Delta,
            0,
            format!("'{t}' not referenced"),
            started,
        );
        Ok(())
    }

    /// Full recompute + publish (the fallback path).
    fn refresh_full(
        &self,
        inner: &mut ViewInner,
        snap: &Snapshot,
        reason: &str,
        started: Instant,
    ) -> Result<()> {
        let (content, fold, schema) = self.recompute(&inner.plan, snap)?;
        self.fault_gate(snap)?;
        let rel = Arc::new(content.to_relation(&schema));
        let rows = content.num_rows() as u64;
        inner.content = Some(content);
        inner.fold = fold;
        inner.parent_version = snap.version();
        inner.base_rows = Self::base_rows(&inner.plan, snap);
        inner.last_error = None;
        self.publish(
            snap,
            rel,
            RefreshMode::Recompute,
            rows,
            reason.to_string(),
            started,
        );
        Ok(())
    }

    /// The [`FaultSite::ViewPublish`] injection point: fires after the new
    /// result is computed but before anything becomes visible.
    fn fault_gate(&self, snap: &Snapshot) -> Result<()> {
        if fault::injected(FaultSite::ViewPublish) {
            return Err(Error::Internal(format!(
                "injected fault: view-publish ('{}' at v{})",
                self.name,
                snap.version()
            )));
        }
        Ok(())
    }

    /// Delta (or fallback) refresh after a write to `t` published `snap`
    /// without breaking a fact the plan depends on — an append, or a
    /// `register` of a table the plan does not depend on.
    fn refresh_append(
        &self,
        inner: &mut ViewInner,
        snap: &Snapshot,
        t: &str,
        started: Instant,
    ) -> Result<()> {
        let key = t.to_lowercase();
        let Some(&class) = inner.plan.classes.get(&key) else {
            return self.refresh_unreferenced(inner, snap, t, started);
        };
        let reason = match class {
            TableClass::Recompute(r) => r,
            _ if inner.content.is_none() => "maintenance state lost",
            _ if inner.parent_version + 1 != snap.version() => "stale maintenance state",
            _ if !inner.base_rows.contains_key(&key) => "untracked base rows",
            TableClass::Chain | TableClass::Agg => {
                return self.refresh_delta(inner, snap, &key, class == TableClass::Agg, started)
            }
        };
        self.refresh_full(inner, snap, reason, started)
    }

    /// Delta refresh: run the whole plan with the appended table overlaid by
    /// its new suffix. A chain's output is exactly the rows to append to the
    /// maintained content. Under an aggregate barrier (`agg`) the suffix's
    /// rows reach the barrier, which resumes the carried fold with them and
    /// hands the plan above it the aggregate of everything folded so far —
    /// the output is the new content.
    fn refresh_delta(
        &self,
        inner: &mut ViewInner,
        snap: &Snapshot,
        key: &str,
        agg: bool,
        started: Instant,
    ) -> Result<()> {
        let old_n = inner.base_rows[key];
        let stored = snap
            .table(key)
            .ok_or_else(|| Error::Exec(format!("view base table '{key}' disappeared")))?;
        let mut temps = FxHashMap::default();
        temps.insert(key.to_string(), suffix_overlay(stored, old_n));
        let mut fold = None;
        if agg {
            let carried = inner.fold.as_mut();
            fold = Some(carried.ok_or_else(|| Error::Internal("view lost its fold".into()))?);
        }
        let resume = inner.plan.resume(fold.as_deref_mut());
        let (out, schema) = self.run(&inner.plan.prepared, snap, temps, resume)?;
        self.fault_gate(snap)?;
        let rows = fold.map_or(out.num_rows(), |f| f.fed) as u64;
        let content = inner.content.as_mut().expect("checked by caller");
        if agg {
            *content = out;
        } else {
            append_batch(content, &out)?;
        }
        let rel = Arc::new(content.to_relation(&schema));
        inner.parent_version = snap.version();
        inner.base_rows.insert(key.to_string(), stored.num_rows());
        inner.last_error = None;
        self.publish(snap, rel, RefreshMode::Delta, rows, String::new(), started);
        Ok(())
    }

    /// The plan the oracle executes at `snap`: the view's own, or — where a
    /// fact it was compiled under no longer holds there — the view compiled
    /// against `snap`.
    fn read_prepared(&self, snap: &Snapshot) -> Result<PreparedQuery> {
        let prepared = self
            .inner
            .lock()
            .expect("view entry poisoned")
            .plan
            .prepared
            .clone();
        match prepared.broken_fact(snap) {
            None => Ok(prepared),
            Some(_) => self.prepare(snap),
        }
    }
}

/// Builds a fully-materialized [`ViewEntry`] compiled, prepared and
/// materialized against the pinned `snap` (the caller inserts it into the
/// registry).
fn materialize_view(
    key: &str,
    compile: &ViewCompile,
    config: &EngineConfig,
    snap: &Snapshot,
) -> Result<ViewEntry> {
    let started = Instant::now();
    let (query, reads) = compile(snap)?;
    let plan = build_plan(snap.prepare_query(&query, config.profile, &reads)?);
    let entry = ViewEntry {
        name: key.to_string(),
        compile: compile.clone(),
        config: *config,
        // Placeholder published state, replaced below before the entry
        // becomes visible in the registry.
        published: Versioned::new(ViewState {
            name: key.to_string(),
            rel: Arc::new(Relation::empty()),
            snapshot_version: snap.version(),
            mode: RefreshMode::Initial,
            rows_propagated: 0,
            reason: String::new(),
            refresh_ns: 0,
        }),
        inner: Mutex::new(ViewInner {
            plan,
            parent_version: snap.version(),
            base_rows: FxHashMap::default(),
            content: None,
            fold: None,
            last_error: None,
        }),
    };
    {
        let mut inner = entry.inner.lock().expect("fresh entry");
        let inner = &mut *inner;
        let (content, fold, schema) = entry.recompute(&inner.plan, snap)?;
        let rel = Arc::new(content.to_relation(&schema));
        let rows = content.num_rows() as u64;
        inner.content = Some(content);
        inner.fold = fold;
        inner.base_rows = ViewEntry::base_rows(&inner.plan, snap);
        entry.publish(
            snap,
            rel,
            RefreshMode::Initial,
            rows,
            String::new(),
            started,
        );
    }
    Ok(entry)
}

// ---------------------------------------------------------------------------
// Database API
// ---------------------------------------------------------------------------

impl Database {
    /// Registers a standing query as a materialized view: compiles `sql`
    /// once against the current snapshot, materializes the initial result,
    /// and keeps it maintained on every subsequent [`Database::append`] —
    /// incrementally where the plan shape allows (see the [`crate::mv`]
    /// module docs for the delta rules), by traced full recompute otherwise.
    /// Re-registering a name replaces the view. Uses the default
    /// [`EngineConfig`]; see [`Database::register_view_with`].
    pub fn register_view(&self, name: &str, sql: &str) -> Result<()> {
        self.register_view_with(name, sql, &EngineConfig::default())
    }

    /// Like [`Database::register_view`] with an explicit [`EngineConfig`]
    /// (profile, threads, morsel size, deadline and memory budget) applied
    /// to the initial materialization and to every refresh.
    pub fn register_view_with(&self, name: &str, sql: &str, config: &EngineConfig) -> Result<()> {
        let query = parse_sql(sql)?;
        let compile = move |_: &Snapshot| Ok((query.clone(), CatalogReads::default()));
        self.register_view_compiled(name, Arc::new(compile), config)
    }

    /// [`Database::register_view_with`] for a standing query given by its
    /// compile step — what `Pytond::register_view` hands in for a
    /// `@pytond` program. The view compiles through it at registration and
    /// again whenever a fact its plan was compiled under stops holding.
    ///
    /// The initial materialization runs the full standing query, which can
    /// be arbitrarily expensive, so it does **not** hold the database
    /// writer lock: it materializes against a pinned snapshot, then takes
    /// the lock only to validate that no writer intervened and insert the
    /// entry. If a writer did intervene, registration retries against the
    /// new snapshot; after two contended rounds it falls back to
    /// materializing under the lock (guaranteed progress under a hot write
    /// stream, at the cost of stalling writers for that one attempt).
    pub fn register_view_compiled(
        &self,
        name: &str,
        compile: ViewCompile,
        config: &EngineConfig,
    ) -> Result<()> {
        let key = name.to_lowercase();
        for _ in 0..2 {
            let snap = self.shared.current.load();
            let entry = materialize_view(&key, &compile, config, &snap)?;
            let writer = self.shared.write.lock().expect("database writer poisoned");
            if self.shared.current.load().version() == snap.version() {
                self.shared
                    .views
                    .lock()
                    .expect("view registry poisoned")
                    .insert(key, Arc::new(entry));
                return Ok(());
            }
            // A writer intervened mid-materialization: the result is
            // already stale and must not be published. Retry.
            drop(writer);
        }
        let _writer = self.shared.write.lock().expect("database writer poisoned");
        let entry = materialize_view(&key, &compile, config, &self.shared.current.load())?;
        self.shared
            .views
            .lock()
            .expect("view registry poisoned")
            .insert(key, Arc::new(entry));
        Ok(())
    }

    fn view_entry(&self, name: &str) -> Result<Arc<ViewEntry>> {
        self.shared
            .views
            .lock()
            .expect("view registry poisoned")
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| Error::Data(format!("unknown view '{name}'")))
    }

    /// The current published state of a view: the materialized result plus
    /// the snapshot version it is consistent with. Lock-free against
    /// concurrent refreshes — the returned state is immutable and never
    /// torn.
    pub fn view(&self, name: &str) -> Result<Arc<ViewState>> {
        Ok(self.view_entry(name)?.published.load())
    }

    /// From-scratch recompute of a view against the **current** snapshot,
    /// using the view's own prepared plan (so cost-based join orders cannot
    /// drift from the maintained side): the in-process differential oracle.
    pub fn view_oracle(&self, name: &str) -> Result<Relation> {
        let snap = self.shared.current.load();
        self.view_oracle_at(name, &snap)
    }

    /// Like [`Database::view_oracle`] but against an explicitly pinned
    /// snapshot — the primitive the maintenance suite uses to prove that a
    /// state stamped with version *v* is bit-identical to a from-scratch
    /// recompute on snapshot *v*.
    pub fn view_oracle_at(&self, name: &str, snap: &Snapshot) -> Result<Relation> {
        let entry = self.view_entry(name)?;
        let prepared = entry.read_prepared(snap)?;
        let (batch, schema) = entry.run(&prepared, snap, FxHashMap::default(), None)?;
        Ok(batch.to_relation(&schema))
    }

    /// The `view:` trace of a view: the last refresh's one-line summary
    /// (mode, rows propagated, refresh time — see [`ViewState::summary`])
    /// followed by the per-table maintenance matrix fixed at prepare time
    /// and the last refresh error, if any.
    pub fn view_trace(&self, name: &str) -> Result<String> {
        let entry = self.view_entry(name)?;
        let state = self.view(name)?;
        let mut out = state.summary();
        let inner = entry.inner.lock().expect("view entry poisoned");
        let mut tables: Vec<(&String, &TableClass)> = inner.plan.classes.iter().collect();
        tables.sort_by_key(|(t, _)| t.as_str());
        for (t, class) in tables {
            out.push_str(&format!("\n  {t}: {}", class.render()));
        }
        if let Some(broken) = inner.plan.prepared.broken_fact(&self.snapshot()) {
            out.push_str(&format!("\n  plan: stale ({broken}; re-prepare pending)"));
        }
        if let Some(e) = &inner.last_error {
            out.push_str(&format!("\n  last-error: {e}"));
        }
        Ok(out)
    }

    /// Names of the registered views, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shared
            .views
            .lock()
            .expect("view registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Removes a view; returns whether it existed. In-flight readers
    /// holding its [`ViewState`] keep it alive.
    pub fn drop_view(&self, name: &str) -> bool {
        self.shared
            .views
            .lock()
            .expect("view registry poisoned")
            .remove(&name.to_lowercase())
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::Column;

    fn db() -> Database {
        let db = Database::new();
        db.register(
            "t",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![1, 2, 3, 4])),
                ("b".into(), Column::from_f64(vec![10.0, 20.0, 30.0, 40.0])),
                ("s".into(), Column::from_strs(&["x", "y", "x", "z"])),
            ])
            .unwrap(),
        );
        db.register(
            "u",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![2, 3, 5])),
                ("w".into(), Column::from_i64(vec![200, 300, 500])),
            ])
            .unwrap(),
        );
        db
    }

    fn delta_rows() -> Relation {
        Relation::new(vec![
            ("a".into(), Column::from_i64(vec![2, 5])),
            ("b".into(), Column::from_f64(vec![25.0, 55.0])),
            ("s".into(), Column::from_strs(&["y", "x"])),
        ])
        .unwrap()
    }

    fn assert_bits(name: &str, a: &Relation, b: &Relation) {
        assert_eq!(a.num_cols(), b.num_cols(), "{name}: column count");
        assert_eq!(a.num_rows(), b.num_rows(), "{name}: row count");
        for ci in 0..a.num_cols() {
            let (ca, cb) = (a.column_at(ci), b.column_at(ci));
            for i in 0..ca.len() {
                let (va, vb) = (ca.get(i), cb.get(i));
                assert!(
                    va.total_cmp(&vb) == std::cmp::Ordering::Equal,
                    "{name}: cell ({i}, {}) differs: {va:?} vs {vb:?}",
                    a.name_at(ci)
                );
            }
        }
    }

    /// The overlay is the chunks holding the suffix, shared with the table
    /// (the first trimmed); an empty suffix keeps one empty chunk.
    #[test]
    fn suffix_overlay_shares_the_chunks_since_the_stamp() {
        use crate::stats::ZONE_ROWS;
        let rows = |lo: i64, n: i64| {
            Relation::new(vec![("a".into(), Column::from_i64((lo..lo + n).collect()))]).unwrap()
        };
        let z = ZONE_ROWS as i64;
        let db = Database::new();
        db.register("t", rows(0, z + 5));
        for (lo, n) in [(z + 5, z), (2 * z + 5, 3), (2 * z + 8, 2 * z)] {
            db.append("t", &rows(lo, n)).unwrap();
        }
        let t = db.table("t").unwrap();
        let n = t.num_rows();
        assert!(t.chunks.len() > 2);
        for from in [0, 3, ZONE_ROWS, ZONE_ROWS + 7, n - 1, n] {
            let tail = suffix_overlay(&t, from);
            let want: Vec<i64> = (from as i64..n as i64).collect();
            assert_eq!(tail.num_rows(), n - from);
            let got = Batch::concat_rows(&tail.chunks).unwrap().cols[0].clone();
            assert_eq!(got.as_int(), want, "from {from}");
            assert!(!tail.chunks.is_empty() && tail.stats.is_none());
            let shared = |c: &Chunk| t.chunks.iter().any(|o| Arc::ptr_eq(&o.batch, &c.batch));
            assert!(tail.chunks.iter().all(shared), "from {from}");
        }
    }

    #[test]
    fn filter_view_refreshes_via_delta() {
        let db = db();
        db.register_view("v", "SELECT a, b FROM t WHERE a >= 2")
            .unwrap();
        let s0 = db.view("v").unwrap();
        assert_eq!(s0.relation().num_rows(), 3);
        db.append("t", &delta_rows()).unwrap();
        let s1 = db.view("v").unwrap();
        assert_eq!(s1.snapshot_version(), db.stats_version());
        assert_bits("filter", &db.view_oracle("v").unwrap(), s1.relation());
        assert_eq!(s0.mode(), RefreshMode::Initial);
        assert_eq!(s1.mode(), RefreshMode::Delta);
        assert_eq!(s1.rows_propagated(), 2);
        assert!(db.view_trace("v").unwrap().contains("mode=delta"));
    }

    #[test]
    fn agg_view_refreshes_via_delta_bit_identically() {
        let db = db();
        db.register_view(
            "v",
            "SELECT s, SUM(b) AS sb, COUNT(*) AS n, AVG(b) AS ab FROM t GROUP BY s",
        )
        .unwrap();
        db.append("t", &delta_rows()).unwrap();
        let s = db.view("v").unwrap();
        assert_bits("agg", &db.view_oracle("v").unwrap(), s.relation());
        let trace = db.view_trace("v").unwrap();
        assert!(trace.contains("t: delta (agg)"), "{trace}");
        assert_eq!(s.mode(), RefreshMode::Delta);
        assert!(trace.contains("mode=delta"), "{trace}");
    }

    /// CTEs: one referenced once is spliced into the tree at bind time and
    /// classifies like hand-written SQL; one referenced twice survives as a
    /// temporary, the tables scanned inside it recompute for that reason, and
    /// its name is not listed as a table.
    #[test]
    fn cte_views_classify_by_what_survives_binding() {
        let db = db();
        db.register_view(
            "spliced",
            "WITH c AS (SELECT s, b FROM t WHERE a >= 2), \
                  g AS (SELECT s, SUM(b) AS sb FROM c GROUP BY s) \
             SELECT * FROM g",
        )
        .unwrap();
        db.register_view(
            "shared",
            "WITH c AS (SELECT a, SUM(b) AS sb FROM t GROUP BY a) \
             SELECT u.w, x.sb + y.sb AS twice FROM u, c AS x, c AS y \
             WHERE u.a = x.a AND u.a = y.a",
        )
        .unwrap();
        db.append("t", &delta_rows()).unwrap();
        let trace = db.view_trace("spliced").unwrap();
        assert!(trace.contains("t: delta (agg)"), "{trace}");
        let shared = db.view_trace("shared").unwrap();
        assert!(
            shared.contains("t: recompute (scanned inside a shared CTE)"),
            "{shared}"
        );
        assert!(shared.contains("\n  u: "), "{shared}");
        assert!(!shared.contains("\n  c: "), "{shared}");
        assert_eq!(db.view("spliced").unwrap().mode(), RefreshMode::Delta);
        assert_eq!(db.view("shared").unwrap().mode(), RefreshMode::Recompute);
        for v in ["spliced", "shared"] {
            assert_bits(
                v,
                &db.view_oracle(v).unwrap(),
                db.view(v).unwrap().relation(),
            );
        }
    }

    #[test]
    fn sort_falls_back_to_recompute() {
        let db = db();
        db.register_view("v", "SELECT a, b FROM t WHERE a >= 2 ORDER BY b DESC")
            .unwrap();
        db.append("t", &delta_rows()).unwrap();
        let s = db.view("v").unwrap();
        assert_eq!(s.mode(), RefreshMode::Recompute);
        assert_bits("sort", &db.view_oracle("v").unwrap(), s.relation());
        assert_eq!(s.snapshot_version(), db.stats_version());
        let trace = db.view_trace("v").unwrap();
        assert!(trace.contains("recompute (sort)"), "{trace}");
    }

    #[test]
    fn agg_above_sortless_join_stays_consistent() {
        let db = db();
        db.register_view(
            "v",
            "SELECT u.w, SUM(t.b) AS sb FROM t, u WHERE t.a = u.a GROUP BY u.w",
        )
        .unwrap();
        db.append("t", &delta_rows()).unwrap();
        let s = db.view("v").unwrap();
        assert_bits("join-agg t", &db.view_oracle("v").unwrap(), s.relation());
        db.append(
            "u",
            &Relation::new(vec![
                ("a".into(), Column::from_i64(vec![4])),
                ("w".into(), Column::from_i64(vec![400])),
            ])
            .unwrap(),
        )
        .unwrap();
        let s = db.view("v").unwrap();
        assert_bits("join-agg u", &db.view_oracle("v").unwrap(), s.relation());
        assert_eq!(s.snapshot_version(), db.stats_version());
    }

    #[test]
    fn unreferenced_append_bumps_stamp_only() {
        let db = db();
        db.register_view("v", "SELECT a FROM u WHERE a > 1")
            .unwrap();
        let before = db.view("v").unwrap();
        db.append("t", &delta_rows()).unwrap();
        let after = db.view("v").unwrap();
        assert_eq!(after.snapshot_version(), db.stats_version());
        assert_bits("unref", before.relation(), after.relation());
        assert_eq!(after.rows_propagated(), 0);
        assert!(
            after.reason().contains("not referenced"),
            "{}",
            after.reason()
        );
        // The relation is literally shared, not copied.
        assert!(Arc::ptr_eq(
            &before.shared_relation(),
            &after.shared_relation()
        ));
    }

    #[test]
    fn replacing_a_referenced_table_recomputes() {
        let db = db();
        db.register_view("v", "SELECT a, b FROM t WHERE a >= 2")
            .unwrap();
        db.register(
            "t",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![7, 8])),
                ("b".into(), Column::from_f64(vec![70.0, 80.0])),
                ("s".into(), Column::from_strs(&["q", "r"])),
            ])
            .unwrap(),
        );
        let s = db.view("v").unwrap();
        assert_eq!(s.mode(), RefreshMode::Recompute);
        assert_eq!(s.relation().num_rows(), 2);
        assert_bits("replace", &db.view_oracle("v").unwrap(), s.relation());
        // And deltas work again on the replacement table.
        db.append("t", &delta_rows()).unwrap();
        let s = db.view("v").unwrap();
        assert_eq!(s.mode(), RefreshMode::Delta);
        assert_bits("replace+delta", &db.view_oracle("v").unwrap(), s.relation());
    }

    #[test]
    fn registry_management() {
        let db = db();
        db.register_view("alpha", "SELECT a FROM t").unwrap();
        db.register_view("beta", "SELECT w FROM u").unwrap();
        assert_eq!(
            db.view_names(),
            vec!["alpha".to_string(), "beta".to_string()]
        );
        assert!(db.drop_view("Alpha"));
        assert!(!db.drop_view("alpha"));
        assert_eq!(db.view_names(), vec!["beta".to_string()]);
        assert!(db.view("alpha").is_err());
    }

    #[test]
    fn stale_plan_never_executes_after_failed_replacement() {
        let db = db();
        db.register_view("v", "SELECT a, b FROM t WHERE a >= 2")
            .unwrap();
        let fresh_version = db.stats_version();
        // Positionally- and dtype-compatible rename: the view no longer
        // prepares, but the stored plan would happily bind the new columns
        // by position and publish plausible-but-wrong rows as fresh.
        let renamed = |lo: i64| {
            Relation::new(vec![
                ("x".into(), Column::from_i64(vec![lo, lo + 1])),
                (
                    "y".into(),
                    Column::from_f64(vec![lo as f64, lo as f64 + 1.0]),
                ),
                ("z".into(), Column::from_strs(&["p", "q"])),
            ])
            .unwrap()
        };
        db.register("t", renamed(7));
        db.append("t", &renamed(9)).unwrap();
        let s = db.view("v").unwrap();
        assert_eq!(
            s.snapshot_version(),
            fresh_version,
            "an append after a failed re-prepare ran the stale plan"
        );
        assert!(s.snapshot_version() < db.stats_version());
        let trace = db.view_trace("v").unwrap();
        assert!(trace.contains("plan: stale"), "{trace}");
        assert!(trace.contains("last-error"), "{trace}");
        // The oracle must not run the stale plan either.
        assert!(db.view_oracle("v").is_err());
        // Restoring a compatible schema heals: the next event re-prepares
        // from source and recomputes.
        db.register(
            "t",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![5, 6])),
                ("b".into(), Column::from_f64(vec![50.0, 60.0])),
                ("s".into(), Column::from_strs(&["m", "n"])),
            ])
            .unwrap(),
        );
        let s = db.view("v").unwrap();
        assert_eq!(s.snapshot_version(), db.stats_version());
        assert_bits("healed", &db.view_oracle("v").unwrap(), s.relation());
    }

    #[test]
    fn unreferenced_events_never_freshen_a_stale_view() {
        let db = Database::new();
        db.register(
            "t",
            Relation::new(vec![("k".into(), Column::from_i64((0..10).collect()))]).unwrap(),
        );
        db.register(
            "u",
            Relation::new(vec![("w".into(), Column::from_i64(vec![1]))]).unwrap(),
        );
        let tight = EngineConfig {
            timeout_ms: Some(50),
            morsel: 256,
            ..EngineConfig::default()
        };
        db.register_view_with(
            "explosive",
            "SELECT SUM(a.k + b.k) AS s FROM t AS a, t AS b WHERE a.k + b.k >= 0",
            &tight,
        )
        .unwrap();
        // Blow the deadline: the refresh for this append fails, the view
        // goes stale at its prior stamp.
        db.append(
            "t",
            &Relation::new(vec![("k".into(), Column::from_i64((10..3_000).collect()))]).unwrap(),
        )
        .unwrap();
        let stale = db.view("explosive").unwrap();
        assert!(stale.snapshot_version() < db.stats_version());
        // An append to an unreferenced table must not re-stamp the stale
        // content as fresh: the heal attempt recomputes (and here blows the
        // deadline again), so the stamp stays put.
        db.append(
            "u",
            &Relation::new(vec![("w".into(), Column::from_i64(vec![2]))]).unwrap(),
        )
        .unwrap();
        let after = db.view("explosive").unwrap();
        assert_eq!(
            after.snapshot_version(),
            stale.snapshot_version(),
            "unreferenced append falsely freshened a stale view"
        );
        assert!(after.snapshot_version() < db.stats_version());
        assert_bits("carried", stale.relation(), after.relation());
        // Registering an unrelated table must not freshen it either.
        db.register(
            "unrelated",
            Relation::new(vec![("w".into(), Column::from_i64(vec![3]))]).unwrap(),
        );
        let after = db.view("explosive").unwrap();
        assert!(
            after.snapshot_version() < db.stats_version(),
            "unreferenced register falsely freshened a stale view"
        );
        // A consistent view still gets the free re-stamp on the same event.
        db.register_view("cheap", "SELECT COUNT(*) AS n FROM t")
            .unwrap();
        db.append(
            "u",
            &Relation::new(vec![("w".into(), Column::from_i64(vec![4]))]).unwrap(),
        )
        .unwrap();
        let cheap = db.view("cheap").unwrap();
        assert_eq!(cheap.snapshot_version(), db.stats_version());
        assert_eq!(cheap.rows_propagated(), 0);
        assert!(
            cheap.reason().contains("not referenced"),
            "{}",
            cheap.reason()
        );
    }

    #[test]
    fn register_view_races_concurrent_appends_consistently() {
        let db = db();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..40i64 {
                    db.append("t", &delta_rows()).unwrap();
                    if i % 8 == 0 {
                        db.register(
                            "side",
                            Relation::new(vec![("x".into(), Column::from_i64(vec![i]))]).unwrap(),
                        );
                    }
                }
            })
        };
        for round in 0..10 {
            let name = format!("v{round}");
            db.register_view(
                &name,
                "SELECT s, SUM(b) AS sb, COUNT(*) AS n FROM t GROUP BY s",
            )
            .unwrap();
            // Registration raced a live writer: the published state may
            // already be one version behind, but never ahead, and never torn.
            let state = db.view(&name).unwrap();
            assert!(state.snapshot_version() <= db.stats_version(), "{name}");
        }
        writer.join().unwrap();
        // Quiesced: one more append brings every view to the live version,
        // bit-identical to its oracle.
        db.append("t", &delta_rows()).unwrap();
        for name in db.view_names() {
            let state = db.view(&name).unwrap();
            assert_eq!(state.snapshot_version(), db.stats_version(), "{name}");
            assert_bits(&name, &db.view_oracle(&name).unwrap(), state.relation());
        }
    }

    #[test]
    fn view_errors_are_contained_and_heal() {
        let db = db();
        db.register_view("v", "SELECT s, SUM(b) AS sb FROM t GROUP BY s")
            .unwrap();
        // Replace a referenced table with one the view no longer prepares
        // against: the view goes stale (prior version kept), appends still
        // succeed, and the trace reports the error.
        db.register(
            "t",
            Relation::new(vec![("z".into(), Column::from_i64(vec![1]))]).unwrap(),
        );
        let stale = db.view("v").unwrap();
        assert!(stale.snapshot_version() < db.stats_version());
        let trace = db.view_trace("v").unwrap();
        assert!(trace.contains("last-error"), "{trace}");
    }
}
