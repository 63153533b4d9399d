//! PyTond: compile Pandas/NumPy Python source to an optimized, prepared
//! query plan and execute it in-database — compile once, execute many.
//!
//! This crate wires the whole pipeline of the paper's Figure 1 together.
//! The compile phase runs the front-end and planner exactly once; the
//! execute phase runs the prepared plan with zero per-call lexing, parsing,
//! binding or planning:
//!
//! ```text
//! compile (once):
//! @pytond source ──pyparse──► AST ──translate──► TondIR ──optimizer──► TondIR
//!                                                                        │
//!                                                                   sqldb::lower
//!                                                                        ▼
//!                                                                      Query
//!                                                    ┌───────────────────┴──────────────┐
//!                                               bind + plan                  sqlgen::render(dialect)
//!                                                    ▼                                  ▼
//!                                              PreparedQuery                  SQL text (export for
//! execute (many):                                    ▼                        DuckDB/Hyper/LingoDB)
//!                                    sqldb::execute_prepared ──► Relation
//! ```
//!
//! A compile pins one database snapshot and reads the catalog it derives.
//! Prepared plans are cached per `(source, opt level, profile)` under one
//! lock, and a hit is validated against the facts the plan was
//! compiled under ([`PreparedQuery::is_current`]): the next execution
//! transparently compiles again once a table it depends on was
//! re-registered, lost a NULL-free column the optimizer relied on, or has
//! outgrown the plan's statistics by a quarter, so cost-based join orders
//! stay fresh as data grows while an append elsewhere — or a small one —
//! costs readers nothing. Generated SQL text is
//! still available on [`Compiled::sql`] as an *export format* for the
//! paper's real backends (DuckDB/Hyper/LingoDB dialects) — the in-process
//! engine never re-parses it.
//!
//! [`Pytond`] is `Send + Sync` and every method takes `&self`: wrap one
//! instance in an `Arc` (or hand out [`Database`] clones) and serve any
//! number of client threads — reads pin an immutable snapshot, appends
//! publish new versions without blocking them. `docs/SERVING.md` documents
//! the full concurrency model.
//!
//! # Quick start
//!
//! ```
//! use pytond::{Pytond, Backend};
//! use pytond_common::{Column, Relation};
//!
//! let py = Pytond::new();
//! py.register_table(
//!     "sales",
//!     Relation::new(vec![
//!         ("region".into(), Column::from_strs(&["eu", "us", "eu"])),
//!         ("amount".into(), Column::from_f64(vec![10.0, 20.0, 5.0])),
//!     ])
//!     .unwrap(),
//!     &[],
//! );
//! let out = py
//!     .run(
//!         r#"
//! @pytond
//! def total_by_region(sales):
//!     big = sales[sales.amount > 6.0]
//!     return big.groupby(['region']).agg(total=('amount', 'sum'))
//! "#,
//!         &Backend::duckdb_sim(1),
//!     )
//!     .unwrap();
//! assert_eq!(out.num_rows(), 2);
//! ```

#![warn(missing_docs)]

pub use pytond_optimizer::OptLevel;
pub use pytond_sqldb::{
    CancelToken, Database, EngineConfig, PreparedQuery, Profile, RefreshMode, Snapshot, ViewState,
};
pub use pytond_sqlgen::Dialect;

use pytond_common::hash::FxHashMap;
use pytond_common::{Error, Relation, Result};
use pytond_sqldb::ast::Query;
use pytond_sqldb::lower::lower_program;
use pytond_sqldb::CatalogReads;
use pytond_tondir::analysis::referenced_relations;
use pytond_tondir::{Catalog, Program};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// A named backend: engine profile + thread count (the paper's
/// DuckDB/Hyper/LingoDB × 1–4 threads matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// Engine profile.
    pub profile: Profile,
    /// Worker threads. `0` = auto: resolve to
    /// [`pytond_common::pool::default_threads`] (the `PYTOND_THREADS`
    /// environment variable, else the machine's hardware parallelism) when
    /// the query executes; `1` = the serial path. See `docs/EXECUTION.md`.
    pub threads: usize,
    /// Per-query deadline in milliseconds for every query run through this
    /// backend. `None` (the default) defers to `PYTOND_QUERY_TIMEOUT_MS`;
    /// `Some(0)` explicitly disables the deadline. On expiry the query
    /// returns the transient [`pytond_common::Error::Timeout`] within one
    /// morsel claim. See `docs/RESILIENCE.md`.
    pub timeout_ms: Option<u64>,
    /// Per-query memory budget in MiB. `None` defers to
    /// `PYTOND_QUERY_MEM_MB`; `Some(0)` disables the budget. Exceeding it
    /// returns the transient [`pytond_common::Error::ResourceExhausted`].
    pub mem_budget_mb: Option<u64>,
}

impl Backend {
    /// A profile at automatic parallelism (`threads = 0`): the engine uses
    /// every hardware thread, or whatever `PYTOND_THREADS` dictates.
    pub fn auto(profile: Profile) -> Backend {
        Backend {
            profile,
            threads: 0,
            timeout_ms: None,
            mem_budget_mb: None,
        }
    }

    /// DuckDB-like vectorized profile.
    pub fn duckdb_sim(threads: usize) -> Backend {
        Backend {
            profile: Profile::Vectorized,
            threads,
            timeout_ms: None,
            mem_budget_mb: None,
        }
    }

    /// Hyper-like fused profile.
    pub fn hyper_sim(threads: usize) -> Backend {
        Backend {
            profile: Profile::Fused,
            threads,
            timeout_ms: None,
            mem_budget_mb: None,
        }
    }

    /// LingoDB-like restricted profile.
    pub fn lingodb_sim(threads: usize) -> Backend {
        Backend {
            profile: Profile::Lingo,
            threads,
            timeout_ms: None,
            mem_budget_mb: None,
        }
    }

    /// The SQL dialect this backend's paper counterpart expects.
    pub fn dialect(&self) -> Dialect {
        match self.profile {
            Profile::Vectorized => Dialect::DuckDb,
            Profile::Fused => Dialect::Hyper,
            Profile::Lingo => Dialect::LingoDb,
        }
    }

    /// The engine profile a dialect pairs with (inverse of
    /// [`Backend::dialect`]).
    pub fn profile_for(dialect: Dialect) -> Profile {
        match dialect {
            Dialect::DuckDb => Profile::Vectorized,
            Dialect::Hyper => Profile::Fused,
            Dialect::LingoDb => Profile::Lingo,
        }
    }

    /// A copy of this backend with a per-query deadline (overrides the
    /// `PYTOND_QUERY_TIMEOUT_MS` default for queries run through it;
    /// `0` disables the deadline entirely).
    pub fn with_timeout_ms(mut self, ms: u64) -> Backend {
        self.timeout_ms = Some(ms);
        self
    }

    /// A copy of this backend with a per-query memory budget in MiB
    /// (overrides the `PYTOND_QUERY_MEM_MB` default; `0` disables it).
    pub fn with_mem_budget_mb(mut self, mb: u64) -> Backend {
        self.mem_budget_mb = Some(mb);
        self
    }

    /// Engine configuration.
    pub fn config(&self) -> EngineConfig {
        EngineConfig::new(self.profile, self.threads)
            .with_timeout(self.timeout_ms)
            .with_mem_budget(self.mem_budget_mb)
    }

    /// Display name (e.g. `duckdb-sim/4t`, `hyper-sim/auto`).
    pub fn name(&self) -> String {
        if self.threads == 0 {
            format!("{}/auto", self.profile.name())
        } else {
            format!("{}/{}t", self.profile.name(), self.threads)
        }
    }
}

/// The result of compiling a `@pytond` function: the prepared plan the
/// in-process engine executes, plus the generated SQL as an export format.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The `@pytond` source this was compiled from (the plan-cache key, so
    /// [`Pytond::execute`] can share re-planned entries with [`Pytond::run`]).
    pub source: String,
    /// TondIR straight out of translation (the "Grizzly-simulated" program).
    pub raw_ir: Program,
    /// TondIR after optimization.
    pub optimized_ir: Program,
    /// Generated SQL text — the *export* rendering for the dialect's real
    /// backend, printed from the same lowered query the plan was bound
    /// from; the in-process engine runs [`Compiled::prepared`] instead of
    /// re-parsing this.
    pub sql: String,
    /// The optimization level used.
    pub level: OptLevel,
    /// The dialect used for the SQL export.
    pub dialect: Dialect,
    /// The bound + cost-optimized plan of the query lowered from
    /// [`Compiled::optimized_ir`] (no SQL round-trip), carrying the facts it
    /// was compiled under. [`Pytond::execute`] runs it as-is while it
    /// [is current](PreparedQuery::is_current).
    pub prepared: Arc<PreparedQuery>,
}

impl Compiled {
    /// Pretty-prints the optimized IR (paper notation).
    pub fn ir_text(&self) -> String {
        pytond_tondir::printer::print_program(&self.optimized_ir)
    }
}

/// Key of one cached prepared plan: the full source text (not a hash — a
/// 64-bit digest could collide and silently serve the wrong plan) × opt
/// level × profile. Whether a found plan is still the one to run is not the
/// key's business: a hit is validated ([`PreparedQuery::is_current_at`])
/// and a re-plan replaces the entry.
type PlanKey = (String, OptLevel, Profile);

/// Cap on cached plans. Inserting a new key at the cap evicts the key
/// inserted longest ago.
const PLAN_CACHE_CAP: usize = 512;

/// The prepared-plan cache: one lock over the map and the insertion order
/// of its keys. The lock covers one lookup or one insert; compiles and
/// [`PreparedQuery::is_current_at`] run outside it.
#[derive(Debug, Default)]
struct PlanCache {
    state: Mutex<CacheState>,
}

#[derive(Debug, Default)]
struct CacheState {
    map: FxHashMap<PlanKey, Arc<PreparedQuery>>,
    /// Every cached key once, oldest insert first.
    order: VecDeque<PlanKey>,
}

impl PlanCache {
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("plan cache poisoned")
    }

    fn lookup(&self, key: &PlanKey) -> Option<Arc<PreparedQuery>> {
        self.state().map.get(key).cloned()
    }

    /// Caches `plan` under `key` and moves the key to the back of the
    /// insertion order. A re-plan pays a scan of at most
    /// [`PLAN_CACHE_CAP`] keys, after a full compile.
    fn insert(&self, key: PlanKey, plan: Arc<PreparedQuery>) {
        let mut state = self.state();
        if state.map.insert(key.clone(), plan).is_some() {
            state.order.retain(|k| *k != key);
        } else if state.map.len() > PLAN_CACHE_CAP {
            let oldest = state
                .order
                .pop_front()
                .expect("a full cache has an oldest key");
            state.map.remove(&oldest);
        }
        state.order.push_back(key);
    }

    fn len(&self) -> usize {
        self.state().map.len()
    }
}

/// The PyTond compiler + embedded database.
///
/// `Pytond` is `Send + Sync` and every method — including
/// [`Pytond::register_table`] and [`Pytond::append`] — takes `&self`:
/// share one instance behind an `Arc` across any number of client threads.
/// Reads pin an immutable database snapshot for the life of the query;
/// writes publish a new version without blocking in-flight reads (see
/// `docs/SERVING.md`). A compile reads the catalog of the snapshot it
/// pinned ([`Snapshot::catalog`]) and prepares against that same snapshot,
/// so the plan it yields records exactly the facts it was compiled under.
#[derive(Debug, Default)]
pub struct Pytond {
    db: Database,
    /// Prepared-plan cache for [`Pytond::run`]/[`Pytond::run_at`].
    plan_cache: PlanCache,
}

impl Pytond {
    /// An empty instance.
    pub fn new() -> Pytond {
        Pytond::default()
    }

    /// Registers a table, inferring its schema; `unique` lists single- or
    /// multi-column unique keys (the catalog constraints of Section III-A).
    /// Columns holding no NULL are recorded as such — declared keys are
    /// trusted, not validated, and may hold one. Publishes a new database
    /// version: every cached prepared plan that depends on the table
    /// compiles again on its next use; in-flight queries keep the snapshot
    /// they pinned.
    pub fn register_table(&self, name: &str, rel: Relation, unique: &[&[&str]]) {
        self.db.register_keyed(name, rel, unique);
    }

    /// Appends rows to a registered table (schema must match). Statistics
    /// update incrementally and a new version publishes: a cached prepared
    /// plan that depends on the table re-plans once the table has outgrown
    /// it, or once the append broke a fact its compile relied on — a NULL in
    /// a column it saw NULL-free, another row count for a program shaped by
    /// it ([`PreparedQuery::is_current`]). In-flight queries keep the
    /// version they pinned. A failed append changes nothing.
    pub fn append(&self, name: &str, rel: &Relation) -> Result<()> {
        self.db.append(name, rel)
    }

    /// The catalog (schemas + constraints + row counts + NULL-freeness) of
    /// the current database version. The returned `Arc` is immutable;
    /// later `register_table`/`append` calls publish new versions without
    /// disturbing it.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.db.snapshot().catalog()
    }

    /// The embedded database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Compiles the first `@pytond` function at the default level (O4).
    pub fn compile(&self, source: &str, dialect: Dialect) -> Result<Compiled> {
        self.compile_at(source, dialect, OptLevel::O4)
    }

    /// Compiles at an explicit optimization level (Figure 10's ablation):
    /// runs the front-end and the lowering once against one pinned
    /// snapshot, then hands the one lowered query to both consumers — the
    /// planner (prepared plan, against the same snapshot) and the dialect
    /// printer (SQL export).
    pub fn compile_at(&self, source: &str, dialect: Dialect, level: OptLevel) -> Result<Compiled> {
        let snap = self.db.snapshot();
        let (raw_ir, optimized_ir, query, reads) = lower(&snap, source, level, Program::clone)?;
        let sql = pytond_sqlgen::render(&query, dialect);
        // Profile-gated queries (e.g. window functions on the LingoDB
        // profile) must still *compile*: the SQL export targets the paper's
        // real backend. Carry a plan validated (and cached) under the
        // ungated profile instead; `execute` re-validates for the requested
        // backend because the profiles then differ.
        let plan = |profile| self.plan(&snap, plan_key(source, level, profile), &query, &reads);
        let prepared = match plan(Backend::profile_for(dialect)) {
            Err(Error::Unsupported(_)) => plan(Profile::Vectorized)?,
            planned => planned?,
        };
        Ok(Compiled {
            source: source.to_string(),
            raw_ir,
            optimized_ir,
            sql,
            level,
            dialect,
            prepared,
        })
    }

    /// The back half: binds and plans a lowered query against `snap` for
    /// the key's profile and caches the plan under it, replacing the one
    /// that was no longer current (a gate-skipping plan never satisfies a
    /// Lingo-profile lookup: the profile is in the key).
    fn plan(
        &self,
        snap: &Snapshot,
        key: PlanKey,
        query: &Query,
        reads: &CatalogReads,
    ) -> Result<Arc<PreparedQuery>> {
        let prepared = Arc::new(snap.prepare_query(query, key.2, reads)?);
        self.plan_cache.insert(key, prepared.clone());
        Ok(prepared)
    }

    /// Returns the cached prepared plan for a source, compiling and caching
    /// it if absent or no longer current ([`PreparedQuery::is_current`]).
    /// On a cache hit this performs zero lexing, parsing, binding or
    /// planning; a miss never touches SQL text either — that is an export
    /// format, not the wire format.
    pub fn prepare(
        &self,
        source: &str,
        backend: &Backend,
        level: OptLevel,
    ) -> Result<Arc<PreparedQuery>> {
        self.prepare_at(&self.db.snapshot(), source, backend.profile, level)
    }

    /// [`Pytond::prepare`] against a pinned snapshot: the cached plan if it
    /// is current there, else one compiled and prepared against it.
    fn prepare_at(
        &self,
        snap: &Snapshot,
        source: &str,
        profile: Profile,
        level: OptLevel,
    ) -> Result<Arc<PreparedQuery>> {
        let key = plan_key(source, level, profile);
        if let Some(plan) = self.plan_cache.lookup(&key) {
            if plan.is_current_at(snap) {
                return Ok(plan);
            }
        }
        let (_, _, query, reads) = lower(snap, source, level, |_| ())?;
        self.plan(snap, key, &query, &reads)
    }

    /// Executes a previously compiled function: runs the carried plan with
    /// no per-call compilation work while it is current (and the backend
    /// matches the compiled profile), and is [`Pytond::run_at`] of its
    /// source otherwise.
    pub fn execute(&self, compiled: &Compiled, backend: &Backend) -> Result<Relation> {
        let snap = self.db.snapshot();
        let prepared = &compiled.prepared;
        if prepared.profile() == backend.profile && prepared.is_current_at(&snap) {
            return snap.execute_prepared(prepared, &backend.config());
        }
        self.run_at(&compiled.source, backend, compiled.level)
    }

    /// Compile + execute in one call, through the prepared-plan cache:
    /// repeated runs of the same source execute the cached plan directly.
    pub fn run(&self, source: &str, backend: &Backend) -> Result<Relation> {
        self.run_at(source, backend, OptLevel::O4)
    }

    /// Compile at a level + execute (optimization ablations), through the
    /// prepared-plan cache.
    pub fn run_at(&self, source: &str, backend: &Backend, level: OptLevel) -> Result<Relation> {
        let snap = self.db.snapshot();
        let prepared = self.prepare_at(&snap, source, backend.profile, level)?;
        snap.execute_prepared(&prepared, &backend.config())
    }

    /// EXPLAIN rendering of the (cached) prepared plan for a source.
    pub fn explain(&self, source: &str, backend: &Backend, level: OptLevel) -> Result<String> {
        Ok(self.prepare(source, backend, level)?.explain())
    }

    /// Registers a `@pytond` program as a standing materialized view: the
    /// source is compiled against the current snapshot (translate →
    /// optimize → lower; the view plans the lowered query itself, so
    /// nothing is printed, re-parsed or left in the plan cache), the result
    /// is materialized, and every subsequent [`Pytond::append`] refreshes it
    /// — incrementally where the plan shape allows, by traced full
    /// recompute otherwise. The view compiles its source again whenever a
    /// fact its plan was compiled under stops holding (a table re-registered,
    /// a NULL in a column it saw NULL-free). See
    /// [`Database::register_view_with`] and the `pytond_sqldb::mv` module
    /// docs for the delta rules and the consistency contract.
    pub fn register_view(&self, name: &str, source: &str, backend: &Backend) -> Result<()> {
        self.register_view_with(name, source, &backend.config())
    }

    /// [`Pytond::register_view`] with an explicit [`EngineConfig`] (morsel
    /// size, zone pruning — what a [`Backend`] does not carry) applied to
    /// the initial materialization and to every refresh.
    ///
    /// A program whose shape depends on a table's row count (a dense
    /// transpose, matmul or outer product pivots by it) is refused with
    /// [`Error::Unsupported`]: an append would change the shape, which no
    /// refresh of the registered plan can follow.
    pub fn register_view_with(
        &self,
        name: &str,
        source: &str,
        config: &EngineConfig,
    ) -> Result<()> {
        let (view, source) = (name.to_string(), source.to_string());
        let compile = move |snap: &Snapshot| {
            let (_, _, query, reads) = lower(snap, &source, OptLevel::O4, |_| ())?;
            if let Some(table) = reads.exact_rows.first() {
                return Err(Error::Unsupported(format!(
                    "view '{view}': the program's shape depends on the row count of '{table}'"
                )));
            }
            Ok((query, reads))
        };
        self.db
            .register_view_compiled(name, Arc::new(compile), config)
    }

    /// The current published state of a standing view registered with
    /// [`Pytond::register_view`]: the materialized result plus the snapshot
    /// version it is consistent with. Never torn.
    pub fn view(&self, name: &str) -> Result<Arc<ViewState>> {
        self.db.view(name)
    }

    /// The `view:` trace header of a standing view: last refresh mode
    /// (`delta` vs `recompute`), rows propagated, refresh time, and the
    /// per-table maintenance matrix.
    pub fn view_trace(&self, name: &str) -> Result<String> {
        self.db.view_trace(name)
    }

    /// Number of prepared plans currently cached. Bounded by
    /// [`Pytond::plan_cache_capacity`] — the cache-bound regression suite
    /// asserts on this.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Upper bound on [`Pytond::cached_plans`].
    pub fn plan_cache_capacity(&self) -> usize {
        PLAN_CACHE_CAP
    }
}

/// Cache key for one (source, level, profile) combination.
fn plan_key(source: &str, level: OptLevel, profile: Profile) -> PlanKey {
    (source.to_string(), level, profile)
}

/// The front half of every compile, source to lowered query against one
/// pinned snapshot's catalog: translate → validate → optimize → validate →
/// lower. Returns what `keep` takes of the raw IR before the optimizer
/// consumes it (a clone for `compile_at`, nothing on the serving paths), the
/// optimized IR, the query lowered from it and what the compile read of the
/// catalog: the base tables the raw IR reads, and those whose row count
/// translation shaped the program by.
fn lower<R>(
    snap: &Snapshot,
    source: &str,
    level: OptLevel,
    keep: impl FnOnce(&Program) -> R,
) -> Result<(R, Program, Query, CatalogReads)> {
    let catalog = snap.catalog();
    let translated = pytond_translate::translate_source(source, &catalog)?;
    let raw_ir = translated.program;
    pytond_tondir::analysis::validate(&raw_ir, &catalog)?;
    let kept = keep(&raw_ir);
    let mut tables: Vec<String> = raw_ir
        .rules
        .iter()
        .flat_map(|r| referenced_relations(&r.body))
        .filter(|t| catalog.table(t).is_some())
        .collect();
    tables.sort_unstable();
    tables.dedup();
    let reads = CatalogReads {
        tables,
        exact_rows: translated.row_counts.into_keys().collect(),
    };
    let optimized_ir = pytond_optimizer::optimize(raw_ir, &catalog, level);
    pytond_tondir::analysis::validate(&optimized_ir, &catalog)?;
    let query = lower_program(&optimized_ir, &catalog)?;
    Ok((kept, optimized_ir, query, reads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::{Column, Value};

    fn instance() -> Pytond {
        let py = Pytond::new();
        py.register_table(
            "t",
            Relation::new(vec![
                ("k".into(), Column::from_strs(&["a", "b", "a", "c"])),
                ("v".into(), Column::from_i64(vec![1, 2, 3, 4])),
                ("w".into(), Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            ])
            .unwrap(),
            &[],
        );
        py
    }

    #[test]
    fn filter_project_end_to_end() {
        let py = instance();
        let out = py
            .run(
                "@pytond\ndef q(t):\n    big = t[t.v >= 2]\n    return big[['k', 'v']]\n",
                &Backend::duckdb_sim(1),
            )
            .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.names(), vec!["k", "v"]);
    }

    #[test]
    fn groupby_end_to_end_all_backends() {
        let py = instance();
        let src = "@pytond\ndef q(t):\n    g = t.groupby(['k']).agg(total=('v', 'sum'), n=('v', 'count'))\n    return g.sort_values(by=['total'], ascending=False)\n";
        let reference = py.run(src, &Backend::duckdb_sim(1)).unwrap();
        assert_eq!(reference.num_rows(), 3);
        assert_eq!(reference.get(0, "total"), Some(Value::Int(4)));
        for backend in [
            Backend::hyper_sim(1),
            Backend::lingodb_sim(1),
            Backend::duckdb_sim(4),
            Backend::hyper_sim(4),
        ] {
            let out = py.run(src, &backend).unwrap();
            assert!(
                reference.approx_eq(&out, 1e-9),
                "{} diverged: {:?}",
                backend.name(),
                reference.diff(&out, 1e-9)
            );
        }
    }

    #[test]
    fn optimization_levels_agree_semantically() {
        let py = instance();
        let src = "@pytond\ndef q(t):\n    big = t[t.v > 1]\n    p = big[['k', 'w']]\n    g = p.groupby(['k']).agg(s=('w', 'sum'))\n    return g.sort_values(by=['k'])\n";
        let baseline = py
            .run_at(src, &Backend::duckdb_sim(1), OptLevel::O0)
            .unwrap();
        for level in OptLevel::all() {
            let out = py.run_at(src, &Backend::duckdb_sim(1), level).unwrap();
            assert!(
                baseline.approx_eq(&out, 1e-9),
                "{} diverged: {:?}",
                level.name(),
                baseline.diff(&out, 1e-9)
            );
        }
    }

    #[test]
    fn o4_produces_fewer_ctes_than_o0() {
        let py = instance();
        let src = "@pytond\ndef q(t):\n    a = t[t.v > 0]\n    b = a[['k', 'v']]\n    c = b[b.v < 100]\n    return c\n";
        let o0 = py.compile_at(src, Dialect::DuckDb, OptLevel::O0).unwrap();
        let o4 = py.compile_at(src, Dialect::DuckDb, OptLevel::O4).unwrap();
        assert!(
            o4.optimized_ir.rules.len() < o0.optimized_ir.rules.len(),
            "O0={} O4={}",
            o0.optimized_ir.rules.len(),
            o4.optimized_ir.rules.len()
        );
    }

    #[test]
    fn repeated_runs_hit_the_plan_cache() {
        let py = instance();
        let src = "@pytond\ndef q(t):\n    return t[t.v > 2]\n";
        let backend = Backend::duckdb_sim(1);
        let first = py.prepare(src, &backend, OptLevel::O4).unwrap();
        let second = py.prepare(src, &backend, OptLevel::O4).unwrap();
        // Same Arc ⇒ the second lookup did zero compilation or planning.
        assert!(Arc::ptr_eq(&first, &second));
        // Different level or profile ⇒ distinct cache entries.
        let o0 = py.prepare(src, &backend, OptLevel::O0).unwrap();
        assert!(!Arc::ptr_eq(&first, &o0));
        let hyper = py
            .prepare(src, &Backend::hyper_sim(1), OptLevel::O4)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &hyper));
        // And the cached plan still computes the right answer.
        let out = py.run(src, &backend).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    /// The plan-cache rule: a hit is validated against the tables the plan
    /// scans. Unrelated append → hit; 0.3 % growth → hit; 2× growth → miss;
    /// re-register → miss.
    #[test]
    fn append_invalidates_cached_plans() {
        let rows = |lo: i64, n: i64| {
            Relation::new(vec![
                ("k".into(), Column::from_strs(&vec!["a"; n as usize])),
                ("v".into(), Column::from_i64((lo..lo + n).collect())),
                ("w".into(), Column::from_f64(vec![0.5; n as usize])),
            ])
            .unwrap()
        };
        let py = Pytond::new();
        py.register_table("t", rows(0, 1_000), &[]);
        py.register_table("u", rows(0, 10), &[]);
        let src = "@pytond\ndef q(t):\n    return t[t.v >= 998]\n";
        let backend = Backend::duckdb_sim(1);
        let before = py.prepare(src, &backend, OptLevel::O4).unwrap();
        let hit =
            |py: &Pytond| Arc::ptr_eq(&before, &py.prepare(src, &backend, OptLevel::O4).unwrap());
        // An append to a table the plan does not scan: still current.
        py.append("u", &rows(10, 10)).unwrap();
        assert!(before.is_current(py.database()));
        assert!(hit(&py), "an unrelated append evicted the plan");
        // 0.3 % growth of the scanned table: still current, and the cached
        // plan sees the new rows (plans execute against the live snapshot).
        py.append("t", &rows(1_000, 3)).unwrap();
        assert!(hit(&py), "0.3 % growth evicted the plan");
        assert_eq!(py.run(src, &backend).unwrap().num_rows(), 5);
        assert_eq!(py.catalog().table("t").unwrap().row_count, Some(1_003));
        // Past `REPLAN_GROWTH`: the join orders were costed for other sizes.
        py.append("t", &rows(1_003, 1_000)).unwrap();
        assert!(!before.is_current(py.database()));
        let after = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "stale plan must be replaced");
        assert!(after.is_current(py.database()));
        assert_eq!(py.run(src, &backend).unwrap().num_rows(), 1_005);
        assert_eq!(py.cached_plans(), 1, "the re-plan replaces its entry");
        // A re-registered table may have another schema: never current.
        py.register_table("t", rows(0, 1_000), &[]);
        assert!(!after.is_current(py.database()));
        let again = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(!Arc::ptr_eq(&after, &again));
        assert_eq!(py.run(src, &backend).unwrap().num_rows(), 2);
        // A dense transpose pivots by the catalog row count, so its plan is
        // the shape of that count: growth below `REPLAN_GROWTH` (8 → 9 rows)
        // still compiles again, through `run` and through a carried
        // `Compiled` alike, and agrees with a fresh instance.
        let tsrc = "@pytond\ndef q(m):\n    return m.transpose()\n";
        let hyper = Backend::hyper_sim(1);
        py.register_table("m", dense(0, 8), &[]);
        let compiled = py.compile(tsrc, Dialect::Hyper).unwrap();
        assert_eq!(py.run(tsrc, &hyper).unwrap().num_cols(), 9);
        py.append("m", &dense(8, 1)).unwrap();
        let fresh = Pytond::new();
        fresh.register_table("m", dense(0, 9), &[]);
        let want = fresh.run(tsrc, &hyper).unwrap();
        assert_eq!(want.num_cols(), 10);
        for got in [
            py.run(tsrc, &hyper).unwrap(),
            py.execute(&compiled, &hyper).unwrap(),
        ] {
            assert!(want.approx_eq(&got, 0.0), "{:?}", want.diff(&got, 0.0));
        }
    }

    /// A dense matrix `(__id, c0, c1)` of rows `[lo, lo + n)`.
    fn dense(lo: i64, n: i64) -> Relation {
        let vals = |k: f64| Column::from_f64((lo..lo + n).map(|i| i as f64 * k).collect());
        Relation::new(vec![
            ("__id".into(), Column::from_i64((lo..lo + n).collect())),
            ("c0".into(), vals(1.0)),
            ("c1".into(), vals(0.5)),
        ])
        .unwrap()
    }

    /// A view's plan cannot follow a shape change, so a program shaped by a
    /// row count is refused as a view.
    #[test]
    fn register_view_refuses_row_count_shaped_programs() {
        let py = Pytond::new();
        py.register_table("m", dense(0, 8), &[]);
        let err = py
            .register_view(
                "t",
                "@pytond\ndef q(m):\n    return m.transpose()\n",
                &Backend::hyper_sim(1),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
        assert!(py.database().view_names().is_empty());
    }

    /// An append that brings the first NULL into a column takes a fact away
    /// the optimizer may have compiled with: cached plans compile again.
    #[test]
    fn append_that_loses_a_catalog_fact_recompiles() {
        let py = Pytond::new();
        let base = Relation::new(vec![
            ("k".into(), Column::from_strs(&["a"; 100])),
            ("v".into(), Column::from_i64((0..100).collect())),
            ("w".into(), Column::from_f64(vec![0.5; 100])),
        ]);
        py.register_table("t", base.unwrap(), &[]);
        let src = "@pytond\ndef q(t):\n    return t[t.v > 2]\n";
        let backend = Backend::duckdb_sim(1);
        let before = py.prepare(src, &backend, OptLevel::O4).unwrap();
        let batch = |valid: bool| {
            Relation::new(vec![
                ("k".into(), Column::from_strs(&["d"])),
                ("v".into(), Column::Int(vec![9], Some(vec![valid]))),
                ("w".into(), Column::from_f64(vec![4.5])),
            ])
            .unwrap()
        };
        py.append("t", &batch(true)).unwrap();
        let same = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(Arc::ptr_eq(&before, &same));
        py.append("t", &batch(false)).unwrap();
        assert!(!py
            .catalog()
            .table("t")
            .unwrap()
            .not_null
            .contains(&"v".to_string()));
        let after = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
    }

    /// Column names in an appended batch match the registered ones
    /// case-insensitively — for the facts as for the data: an upper-cased
    /// batch without NULLs keeps `not_null` and the cached plan, one with a
    /// real NULL still drops the fact.
    #[test]
    fn append_matches_fact_columns_case_insensitively() {
        let py = Pytond::new();
        let rows = |q: Column| {
            Relation::new(vec![
                ("L_QUANTITY".into(), q),
                ("L_TAX".into(), Column::from_f64(vec![0.5; 3])),
            ])
            .unwrap()
        };
        let base = Relation::new(vec![
            ("l_quantity".into(), Column::from_i64((0..100).collect())),
            ("l_tax".into(), Column::from_f64(vec![0.5; 100])),
        ]);
        py.register_table("lineitem", base.unwrap(), &[]);
        let src = "@pytond\ndef q(lineitem):\n    return lineitem[lineitem.l_quantity > 2]\n";
        let backend = Backend::duckdb_sim(1);
        let before = py.prepare(src, &backend, OptLevel::O4).unwrap();
        let facts = |py: &Pytond| py.catalog().table("lineitem").unwrap().not_null.clone();
        py.append("lineitem", &rows(Column::from_i64(vec![7, 8, 9])))
            .unwrap();
        assert!(facts(&py).contains(&"l_quantity".to_string()));
        let same = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(Arc::ptr_eq(&before, &same), "a NULL-free append recompiled");
        py.append(
            "lineitem",
            &rows(Column::Int(vec![1, 2, 3], Some(vec![true, false, true]))),
        )
        .unwrap();
        assert!(!facts(&py).contains(&"l_quantity".to_string()));
        assert!(facts(&py).contains(&"l_tax".to_string()));
        let after = py.prepare(src, &backend, OptLevel::O4).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn execute_reuses_prepared_plan_and_survives_staleness() {
        let py = instance();
        let src = "@pytond\ndef q(t):\n    return t[t.v >= 2]\n";
        let compiled = py.compile(src, Dialect::DuckDb).unwrap();
        let backend = Backend::duckdb_sim(1);
        let fresh = py.execute(&compiled, &backend).unwrap();
        assert_eq!(fresh.num_rows(), 3);
        // Mutate the data past `REPLAN_GROWTH`: the carried plan goes stale
        // but execute re-plans transparently and sees the new rows.
        py.append(
            "t",
            &Relation::new(vec![
                ("k".into(), Column::from_strs(&["e", "f"])),
                ("v".into(), Column::from_i64(vec![7, 1])),
                ("w".into(), Column::from_f64(vec![9.5, 0.5])),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(!compiled.prepared.is_current(py.database()));
        let stale = py.execute(&compiled, &backend).unwrap();
        assert_eq!(stale.num_rows(), 4);
        // Cross-profile execution re-plans for the requested backend.
        let hyper = py.execute(&compiled, &Backend::hyper_sim(1)).unwrap();
        assert!(stale.approx_eq(&hyper, 1e-9));
    }

    #[test]
    fn facade_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pytond>();
        assert_send_sync::<Database>();
    }

    /// The cache-bound regression through the facade: feeding far more
    /// distinct sources than the capacity must (a) keep the total entry
    /// count at or under the cap, (b) keep recently
    /// inserted plans cached (FIFO evicts oldest-first, not wholesale
    /// clears), and (c) keep re-inserted keys correct.
    #[test]
    fn plan_cache_stays_bounded_under_many_sources() {
        let py = instance();
        let backend = Backend::duckdb_sim(1);
        let cap = py.plan_cache_capacity();
        let src = |i: usize| format!("@pytond\ndef q(t):\n    return t[t.v > {i}]\n");
        for i in 0..cap * 2 {
            py.prepare(&src(i), &backend, OptLevel::O4).unwrap();
        }
        assert!(
            py.cached_plans() <= cap,
            "cache exceeded its bound: {} > {cap}",
            py.cached_plans()
        );
        // The most recent insert is still cached (same Arc on re-lookup).
        let last = src(cap * 2 - 1);
        let a = py.prepare(&last, &backend, OptLevel::O4).unwrap();
        let b = py.prepare(&last, &backend, OptLevel::O4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "fresh entry was evicted prematurely");
        // Re-inserting an existing key must not inflate the count or evict
        // the entry itself (the stale-FIFO-record path).
        let before = py.cached_plans();
        for _ in 0..8 {
            py.prepare(&last, &backend, OptLevel::O4).unwrap();
        }
        assert_eq!(py.cached_plans(), before);
        let c = py.prepare(&last, &backend, OptLevel::O4).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    /// The cache's eviction order: at the cap, a new key evicts the key
    /// inserted longest ago, and re-inserting a key replaces its plan and
    /// moves it to the back.
    #[test]
    fn plan_cache_evicts_in_insertion_order() {
        let py = instance();
        let backend = Backend::duckdb_sim(1);
        let plan = |src: &str| py.prepare(src, &backend, OptLevel::O4).unwrap();
        let old = plan("@pytond\ndef q(t):\n    return t[t.v > 1]\n");
        let new = plan("@pytond\ndef q(t):\n    return t[t.v > 2]\n");
        let key = |i: usize| (format!("source {i}"), OptLevel::O4, Profile::Vectorized);
        let cache = PlanCache::default();
        for i in 0..PLAN_CACHE_CAP {
            cache.insert(key(i), old.clone());
        }
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        // A re-plan of key 0: same count, new plan, key 1 is now the oldest.
        cache.insert(key(0), new.clone());
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        assert!(Arc::ptr_eq(&cache.lookup(&key(0)).unwrap(), &new));
        for (evicted, i) in (1..3).zip(PLAN_CACHE_CAP..) {
            cache.insert(key(i), old.clone());
            assert_eq!(cache.len(), PLAN_CACHE_CAP);
            assert!(
                cache.lookup(&key(evicted)).is_none(),
                "key {evicted} outlived its turn"
            );
        }
        assert!((3..PLAN_CACHE_CAP + 2).all(|i| cache.lookup(&key(i)).is_some()));
        assert!(cache.lookup(&key(0)).is_some());
    }

    #[test]
    fn compiled_sql_is_inspectable() {
        let py = instance();
        let c = py
            .compile(
                "@pytond\ndef q(t):\n    return t[t.v > 2]\n",
                Dialect::DuckDb,
            )
            .unwrap();
        assert!(c.sql.starts_with("WITH"), "{}", c.sql);
        assert!(c.ir_text().contains(":-"), "{}", c.ir_text());
    }

    /// A view registered from `@pytond` source is planned exactly once, by
    /// the view: nothing lands in the plan cache, and under every backend
    /// (so with the Hyper/LingoDB spellings of `substr`/`year` on the
    /// export path too) its content is what `run` of the source returns.
    #[test]
    fn register_view_plans_once_and_matches_run() {
        let py = instance();
        py.register_table(
            "ev",
            Relation::new(vec![
                ("code".into(), Column::from_strs(&["ab1", "ab2", "cd3"])),
                ("day".into(), Column::from_dates(vec![8766, 9131, 9200])),
                ("n".into(), Column::from_i64(vec![1, 2, 3])),
            ])
            .unwrap(),
            &[],
        );
        let sources = [
            "@pytond\ndef q(t):\n    return t[t.v > 1]\n",
            "@pytond\ndef q(ev):\n    ev['p'] = ev.code.str.slice(0, 2)\n    ev['y'] = ev.day.dt.year\n    \
             g = ev.groupby(['p', 'y']).agg(total=('n', 'sum'))\n    \
             return g.sort_values(by=['p', 'y'])\n",
        ];
        for source in sources {
            for backend in [
                Backend::duckdb_sim(1),
                Backend::hyper_sim(1),
                Backend::lingodb_sim(1),
            ] {
                let before = py.cached_plans();
                py.register_view("v", source, &backend).unwrap();
                assert_eq!(py.cached_plans(), before, "{}", backend.name());
                let expected = py.run(source, &backend).unwrap();
                let view = py.view("v").unwrap();
                assert!(
                    expected.approx_eq(view.relation(), 0.0),
                    "{}: {:?}",
                    backend.name(),
                    expected.diff(view.relation(), 0.0)
                );
                // The exported text of the same program runs to the same rows.
                let sql = py.compile(source, backend.dialect()).unwrap().sql;
                let via_sql = py.database().execute_sql(&sql, &backend.config()).unwrap();
                assert!(expected.approx_eq(&via_sql, 0.0), "{}", backend.name());
            }
        }
    }
}
