//! The database façade: the `Arc`-cloneable multi-client [`Database`]
//! handle, immutable [`Snapshot`] versions of the table set, the
//! compile-once/execute-many [`PreparedQuery`] API, and the convenience
//! `execute_sql` wrappers.
//!
//! **Concurrency model** (full treatment in `docs/SERVING.md`): a
//! `Database` is a cheap-to-clone handle that any number of threads may
//! read and write simultaneously. The table set lives in immutable,
//! versioned [`Snapshot`]s published through
//! [`pytond_common::version::Versioned`]; every query pins exactly one
//! snapshot for its whole execution, so concurrent `register`/`append`
//! calls never tear, block, or become partially visible to an in-flight
//! read. Writers serialize among themselves and publish a new version that
//! shares everything unchanged with the one before: other tables by pointer,
//! and the appended table's closed storage chunks too (an append copies only
//! the open zone and the batch) — readers of older versions keep theirs
//! alive via `Arc`.
//!
//! Planning (parse → bind → optimize) and execution are separate phases:
//! [`Database::prepare`] (from SQL text) and [`Database::prepare_query`]
//! (from an already-built AST, e.g. the direct TondIR lowering in
//! [`crate::lower`]) run the whole front-end once against a pinned snapshot
//! and return a [`PreparedQuery`]; [`Database::execute_prepared`] then runs
//! the stored plan as many times as desired with zero per-call lexing,
//! parsing, binding or optimization. Every `register`/`append` publishes a
//! new snapshot version ([`Database::stats_version`]); a caller caching a
//! prepared plan asks [`PreparedQuery::is_current`] whether a fact it was
//! compiled under broke — a table replaced, a column it saw NULL-free
//! holding a NULL — or a table outgrew the statistics that drove its
//! cost-based decisions by more than [`REPLAN_GROWTH`]. The compiler's
//! catalog is derived from the snapshot too ([`Snapshot::catalog`]), so
//! one pinned version is everything a compile reads.

use crate::ast::{Query, Select, SelectItem, SqlExpr, TableRef};
use crate::bind::bind_query;
use crate::exec::{execute_with_temps, ExecMetrics, ExecOptions, Resume};
use crate::optimize::{estimate, optimize_with, StatsCatalog};
use crate::parser::parse_sql;
use crate::plan::BoundQuery;
use crate::table::{Batch, Schema, StoredTable};
use pytond_common::cancel::CancelToken;
use pytond_common::fault::{self, FaultSite};
use pytond_common::hash::FxHashMap;
use pytond_common::version::Versioned;
use pytond_common::{env, pool, Error, Relation, Result};
use pytond_tondir::{Catalog, TableSchema};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Execution profile emulating the paper's three backends (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Profile {
    /// DuckDB-like: one operator per pipeline, materialized intermediates.
    #[default]
    Vectorized,
    /// Hyper-like: maximal fused pipelines.
    Fused,
    /// LingoDB-like: the fusing policy plus a bind-time gate for the research
    /// prototype's gaps (no window functions; no aggregates over disjunctive
    /// CASE conditions).
    Lingo,
}

impl Profile {
    /// Short display name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Vectorized => "duckdb-sim",
            Profile::Fused => "hyper-sim",
            Profile::Lingo => "lingodb-sim",
        }
    }

    /// The profile's pipeline-extraction policy: `true` fuses streaming
    /// operators into maximal chains, `false` (`Vectorized`, the fusion
    /// oracle) runs one operator per pipeline.
    pub(crate) fn fuses(self) -> bool {
        self != Profile::Vectorized
    }
}

/// Engine configuration: profile + thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Execution profile.
    pub profile: Profile,
    /// Worker threads. `0` (the default) means **auto**: resolve to
    /// [`pytond_common::pool::default_threads`] — the `PYTOND_THREADS`
    /// environment variable when set, otherwise the machine's hardware
    /// parallelism — at execution time. `1` forces the serial path (no
    /// worker threads are ever spawned); any other value is taken literally.
    pub threads: usize,
    /// Rows per morsel (default 16 Ki).
    pub morsel: usize,
    /// Zone-map scan pruning (default on; benchmarks disable it to measure
    /// the pruned-vs-unpruned delta).
    pub zone_prune: bool,
    /// Per-query deadline in milliseconds. `None` (the default) falls back
    /// to the `PYTOND_QUERY_TIMEOUT_MS` environment variable; `Some(0)`
    /// explicitly disables the deadline for this config regardless of the
    /// environment. The deadline covers the whole lifecycle from submission
    /// (admission queueing included) and trips as the transient
    /// [`Error::Timeout`] within one morsel claim. See `docs/RESILIENCE.md`.
    pub timeout_ms: Option<u64>,
    /// Per-query memory budget in MiB, accounted at coarse allocation sites
    /// (join build tables, aggregation state, materialized intermediates).
    /// `None` falls back to `PYTOND_QUERY_MEM_MB`; `Some(0)` explicitly
    /// disables the budget. Exceeding it trips the transient
    /// [`Error::ResourceExhausted`], leaving snapshots and plan caches
    /// untouched.
    pub mem_budget_mb: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            profile: Profile::Vectorized,
            threads: 0,
            morsel: 16 * 1024,
            zone_prune: true,
            timeout_ms: None,
            mem_budget_mb: None,
        }
    }
}

/// Process-wide default per-query deadline: `PYTOND_QUERY_TIMEOUT_MS` when
/// set to a positive integer (read once, like `PYTOND_THREADS`).
fn default_timeout_ms() -> Option<u64> {
    static CACHED: OnceLock<Option<u64>> = OnceLock::new();
    *CACHED.get_or_init(|| env::positive_u64("PYTOND_QUERY_TIMEOUT_MS"))
}

/// Process-wide default per-query memory budget: `PYTOND_QUERY_MEM_MB` when
/// set to a positive integer (read once).
fn default_mem_budget_mb() -> Option<u64> {
    static CACHED: OnceLock<Option<u64>> = OnceLock::new();
    *CACHED.get_or_init(|| env::positive_u64("PYTOND_QUERY_MEM_MB"))
}

impl EngineConfig {
    /// Convenience constructor.
    pub fn new(profile: Profile, threads: usize) -> EngineConfig {
        EngineConfig {
            profile,
            threads,
            ..EngineConfig::default()
        }
    }

    /// A copy with [`EngineConfig::timeout_ms`] set (builder style).
    pub fn with_timeout(mut self, timeout_ms: Option<u64>) -> EngineConfig {
        self.timeout_ms = timeout_ms;
        self
    }

    /// A copy with [`EngineConfig::mem_budget_mb`] set (builder style).
    pub fn with_mem_budget(mut self, mem_budget_mb: Option<u64>) -> EngineConfig {
        self.mem_budget_mb = mem_budget_mb;
        self
    }
}

/// One immutable, versioned view of the table set: what a single query
/// executes against.
///
/// Snapshots are published by [`Database::register`]/[`Database::append`]
/// and pinned by readers via [`Database::snapshot`] (or implicitly by every
/// `prepare`/`execute` call). A pinned snapshot never changes — columns,
/// statistics and zone maps are frozen at [`Snapshot::version`] — so a
/// query's result is bit-identical to a serial run against that version
/// regardless of concurrent writes. Stored tables are `Arc`-shared between
/// versions; publishing version *v+1* builds a new version of the table that
/// changed — sharing its closed chunks with *v*, and its dictionaries'
/// frozen blocks — and the rest are pointer bumps.
#[derive(Debug, Default)]
pub struct Snapshot {
    tables: FxHashMap<String, Arc<StoredTable>>,
    /// Per table, how its current incarnation was registered (appends keep
    /// it).
    registered: FxHashMap<String, Arc<Registration>>,
    /// The stats version this snapshot carries (0 = the empty database).
    version: u64,
    /// [`Snapshot::catalog`], derived on first use.
    catalog: OnceLock<Arc<Catalog>>,
}

/// What a `register` declared about the incarnation it created.
#[derive(Debug)]
struct Registration {
    /// The version the `register` published: a plan bound against an
    /// earlier incarnation may read dead column positions.
    version: u64,
    /// The table name as registered (the map key is lower-cased).
    name: String,
    /// Declared unique keys, trusted, not validated.
    unique: Vec<Vec<String>>,
}

impl Snapshot {
    /// The version counter of this view: incremented by every `register`
    /// and successful `append` that produced it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks a table up (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&StoredTable> {
        self.tables.get(&name.to_lowercase()).map(Arc::as_ref)
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// The compiler's view of this version — the contextual information of
    /// the paper's Section III-A: per table its name as registered, schema,
    /// declared unique keys, exact row count, and the columns that hold no
    /// NULL (from the column statistics). Derived once per snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        let derive = || {
            let mut catalog = Catalog::new();
            for (key, reg) in &self.registered {
                let stored = &self.tables[key];
                let fields = &stored.schema.fields;
                let cols = fields.iter().map(|f| (f.name.clone(), f.dtype)).collect();
                let mut schema = TableSchema::new(&reg.name, cols).with_rows(rows(stored) as u64);
                schema.unique = reg.unique.clone();
                schema.not_null = null_free(stored).map(|c| fields[c].name.clone()).collect();
                catalog.add(schema);
            }
            Arc::new(catalog)
        };
        self.catalog.get_or_init(derive).clone()
    }

    /// Statistics snapshot over every table in this version, for the
    /// optimizer.
    fn stats_catalog(&self) -> StatsCatalog<'_> {
        let mut ctx = StatsCatalog::empty();
        for (name, stored) in &self.tables {
            if let Some(stats) = &stored.stats {
                ctx.add_table(name, stats);
            }
        }
        ctx
    }

    /// Prepares a query tree against this version: profile checks, binding
    /// and the full optimizer pipeline run **once**, here. The plan records
    /// the facts it may not outlive (see [`PreparedQuery::is_current`]): per
    /// table it scans or `reads` names, the incarnation and row count; per
    /// table `reads` names, the columns that hold no NULL now.
    pub fn prepare_query(
        &self,
        query: &Query,
        profile: Profile,
        reads: &CatalogReads,
    ) -> Result<PreparedQuery> {
        if profile == Profile::Lingo {
            lingo_check(query)?;
        }
        let mut bound = bind_query(self, query)?;
        let mut ctx = self.stats_catalog();
        bound.ctes = bound
            .ctes
            .into_iter()
            .map(|(n, p)| {
                let p = optimize_with(p, &ctx);
                ctx.set_rows(&n, estimate(&p, &ctx));
                (n, p)
            })
            .collect();
        bound.root = optimize_with(bound.root, &ctx);
        // The base tables the plans scan (a scan of a CTE temporary names
        // no table) and the ones the source read.
        let mut names = bound.root.scan_order();
        for (_, plan) in &bound.ctes {
            names.extend(plan.scan_order());
        }
        names.extend(reads.tables.iter().chain(&reads.exact_rows).cloned());
        names.iter_mut().for_each(|t| *t = t.to_lowercase());
        names.sort_unstable();
        names.dedup();
        let read = |list: &[String], t: &str| list.iter().any(|r| r.eq_ignore_ascii_case(t));
        let facts = names.into_iter().filter_map(|t| {
            let stored = self.tables.get(&t)?;
            let not_null = match read(&reads.tables, &t) {
                true => null_free(stored).collect(),
                false => Vec::new(),
            };
            Some(TableFacts {
                registered: self.registered[&t].version,
                rows: rows(stored),
                exact_rows: read(&reads.exact_rows, &t),
                not_null,
                table: t,
            })
        });
        Ok(PreparedQuery {
            facts: facts.collect(),
            bound,
            profile,
            stats_version: self.version,
        })
    }

    /// Executes a prepared plan against **this** pinned version of the
    /// data, regardless of what has been appended since. This is the
    /// primitive the differential serving suite uses to prove snapshot
    /// isolation: re-running the same plan on the same snapshot serially
    /// must reproduce a concurrent run bit-for-bit.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
    ) -> Result<Relation> {
        let (rel, _) = self.run_query(prepared, config, None)?;
        Ok(rel)
    }

    /// Like [`Snapshot::execute_prepared`] but the caller supplies the
    /// [`CancelToken`]: hold a clone and call [`CancelToken::cancel`] from
    /// any thread to abort the query mid-flight (it returns the transient
    /// [`Error::Cancelled`] within one morsel claim). Deadline and memory
    /// budget from `config`/environment are still applied to the token
    /// (tightest wins).
    pub fn execute_prepared_with(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
        cancel: CancelToken,
    ) -> Result<Relation> {
        let (rel, _) = self.run_query(prepared, config, Some(cancel))?;
        Ok(rel)
    }

    /// Like [`Snapshot::execute_prepared`] but also returns a
    /// [`QueryTrace`] (EXPLAIN rendering + executor counters, headed by the
    /// snapshot version, the admission queue wait, and the lifecycle
    /// limits in force).
    pub fn execute_prepared_traced(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
    ) -> Result<(Relation, QueryTrace)> {
        let (rel, metrics) = self.run_query(prepared, config, None)?;
        // Under the fusing policy the trace also shows the pipeline
        // decomposition the driver executed (one operator per pipeline needs
        // no listing: it is the plan).
        let pipelines = if config.profile.fuses() {
            crate::pipeline::describe(&prepared.bound)
        } else {
            String::new()
        };
        let trace = QueryTrace {
            plan: format!(
                "{}\n{}{pipelines}",
                trace_header(&metrics),
                render_plans(&prepared.bound)
            ),
            metrics,
        };
        Ok((rel, trace))
    }

    /// A query's run of a prepared plan: [`Snapshot::run_bound`], plus the
    /// decode of the result.
    fn run_query(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
        cancel: Option<CancelToken>,
    ) -> Result<(Relation, ExecMetrics)> {
        let (batch, schema, mut metrics) = self.run_bound(&prepared.bound, config, cancel, None)?;
        metrics.dict_decoded_cols = batch.dict_cols() as u64;
        Ok((batch.to_relation(&schema), metrics))
    }

    /// Execution of a bound query against this snapshot, shared by queries
    /// and view refreshes (`refresh`). The full lifecycle runs here:
    ///
    /// 1. A [`CancelToken`] is armed with the deadline/memory budget from
    ///    `config` (environment defaults `PYTOND_QUERY_TIMEOUT_MS` /
    ///    `PYTOND_QUERY_MEM_MB` when unset; the tightest wins against a
    ///    caller's own token). The deadline clock starts *before*
    ///    admission, so queue wait counts against it.
    /// 2. A query passes the process-wide [`pool::admission`] gate, bounded
    ///    by `PYTOND_ADMIT_TIMEOUT_MS` — an overloaded gate rejects with the
    ///    transient [`Error::Overloaded`] before any work is done. A view
    ///    refresh skips it: it runs inside the writer critical section and
    ///    must not queue behind the read load it exists to serve.
    /// 3. Execution polls the token at every morsel claim, join build and
    ///    aggregation merge; worker panics (including injected dispatch
    ///    faults) are contained to this run and surface as the transient
    ///    [`Error::Internal`]. The snapshot and plan cache are never
    ///    poisoned by a failed run.
    pub(crate) fn run_bound(
        &self,
        bound: &BoundQuery,
        config: &EngineConfig,
        cancel: Option<CancelToken>,
        refresh: Option<Refresh<'_>>,
    ) -> Result<(Batch, Schema, ExecMetrics)> {
        let timeout_ms = config
            .timeout_ms
            .or_else(default_timeout_ms)
            .filter(|&ms| ms > 0);
        let budget_mb = config
            .mem_budget_mb
            .or_else(default_mem_budget_mb)
            .filter(|&mb| mb > 0);
        let cancel = match cancel {
            Some(t) => t,
            None if timeout_ms.is_some() || budget_mb.is_some() => CancelToken::new(),
            None => CancelToken::disarmed(),
        };
        let admit = refresh.is_none();
        let overlay = refresh.unwrap_or_else(|| Refresh {
            label: format!("q@v{}", self.version),
            temps: FxHashMap::default(),
            resume: None,
        });
        cancel.set_label(overlay.label);
        if let Some(ms) = timeout_ms {
            cancel.set_deadline(Duration::from_millis(ms));
        }
        if let Some(mb) = budget_mb {
            cancel.set_budget_bytes(mb.saturating_mul(1024 * 1024));
        }
        let ticket = match admit {
            true => Some(pool::admission().admit_within(pool::default_admit_timeout())?),
            false => None,
        };
        let opts = ExecOptions {
            threads: pool::resolve_threads(config.threads),
            fused: config.profile.fuses(),
            morsel: config.morsel,
            zone_prune: config.zone_prune,
            cancel: cancel.clone(),
        };
        // Contain worker panics (the pool re-raises them on the submitting
        // thread with the job label attached): the helpers have already
        // drained, the snapshot is immutable, so the query slot stays
        // serviceable — map the payload to a transient error instead of
        // unwinding through the caller.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_with_temps(self, bound, overlay.temps, opts, overlay.resume)
        }));
        let (batch, schema, mut metrics) = match run {
            Ok(r) => r?,
            Err(payload) => {
                return Err(Error::Internal(format!(
                    "query '{}' aborted by worker panic: {}",
                    cancel.label(),
                    pool::panic_message(payload.as_ref())
                )))
            }
        };
        metrics.snapshot_version = self.version;
        metrics.queue_wait_ns = ticket.map_or(0, |t| t.queue_wait_ns);
        Ok((batch, schema, metrics))
    }
}

/// What a view refresh hands [`Snapshot::run_bound`]: the label its token
/// carries, temporaries that shadow base tables (the appended suffix), and
/// the aggregate resuming its carried fold.
pub(crate) struct Refresh<'a> {
    pub(crate) label: String,
    pub(crate) temps: FxHashMap<String, StoredTable>,
    pub(crate) resume: Option<Resume<'a>>,
}

/// A stored table's row count.
fn rows(stored: &StoredTable) -> usize {
    stored
        .stats
        .as_ref()
        .map_or_else(|| stored.num_rows(), |s| s.row_count)
}

/// Positions of a stored table's columns that hold no NULL.
fn null_free(stored: &StoredTable) -> impl Iterator<Item = usize> + '_ {
    let columns = stored.stats.iter().flat_map(|s| s.columns.iter());
    columns
        .enumerate()
        .filter(|(_, c)| c.null_count == 0)
        .map(|(i, _)| i)
}

/// Everything the `Database` handles share: the current snapshot plus the
/// writer lock that serializes version publication.
#[derive(Debug, Default)]
pub(crate) struct DbShared {
    pub(crate) current: Versioned<Snapshot>,
    /// Serializes writers: `register`/`append` read the current version,
    /// build the next one off it, and publish — two concurrent writers must
    /// not both base their copy on the same parent version.
    pub(crate) write: Mutex<()>,
    /// Registered standing queries, refreshed by the writer that publishes
    /// each new snapshot version (see [`crate::mv`]).
    pub(crate) views: Mutex<FxHashMap<String, Arc<crate::mv::ViewEntry>>>,
}

/// An in-memory database: named tables + SQL execution, shared by any
/// number of client threads.
///
/// `Database` is a cheap `Clone` handle (an `Arc` internally): clone it
/// into every client thread, or share one instance — all methods take
/// `&self`. Reads pin an immutable [`Snapshot`]; writes publish a new
/// version without blocking in-flight reads. See the module docs and
/// `docs/SERVING.md` for the visibility rules.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pub(crate) shared: Arc<DbShared>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Pins the current version of the table set. The returned snapshot is
    /// immutable and stays valid (and consistent) for as long as the `Arc`
    /// is held, no matter how many appends land after this call.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.current.load()
    }

    /// Registers (or replaces) a table, computing column statistics and zone
    /// maps for the optimizer and the pruning scan path, and publishes a new
    /// snapshot version — invalidating the prepared plans that scan it
    /// ([`PreparedQuery::is_current`]). In-flight
    /// queries keep the version they pinned; they never observe the new
    /// table.
    ///
    /// String columns are dictionary-encoded on the way in (dedup on build,
    /// first-occurrence code order); results decode back to plain strings at
    /// materialization, so callers never observe codes.
    pub fn register(&self, name: &str, rel: Relation) {
        self.register_table(name, rel, &[], true);
    }

    /// [`Database::register`] with declared unique keys — single- or
    /// multi-column, trusted, not validated — for the catalog the compiler
    /// reads ([`Snapshot::catalog`]).
    pub fn register_keyed(&self, name: &str, rel: Relation, unique: &[&[&str]]) {
        self.register_table(name, rel, unique, true);
    }

    /// Like [`Database::register`] but never dictionary-encodes — the
    /// plain-string path: the dictionary oracle the differential suites
    /// compare against.
    pub fn register_plain(&self, name: &str, rel: Relation) {
        self.register_table(name, rel, &[], false);
    }

    fn register_table(&self, name: &str, rel: Relation, unique: &[&[&str]], encode: bool) {
        let _writer = self.shared.write.lock().expect("database writer poisoned");
        let cur = self.shared.current.load();
        let key = name.to_lowercase();
        let mut tables = cur.tables.clone();
        tables.insert(
            key.clone(),
            Arc::new(StoredTable::from_relation_encoded(&rel, encode)),
        );
        let mut registered = cur.registered.clone();
        let registration = Registration {
            version: cur.version + 1,
            name: name.to_string(),
            unique: unique
                .iter()
                .map(|k| k.iter().map(|c| c.to_string()).collect())
                .collect(),
        };
        registered.insert(key.clone(), Arc::new(registration));
        let next = Arc::new(Snapshot {
            tables,
            registered,
            version: cur.version + 1,
            catalog: OnceLock::new(),
        });
        self.shared.current.publish(next.clone());
        // Still under the writer lock: views referencing the replaced table
        // re-prepare and recompute against the version just published.
        crate::mv::on_publish(self, &next, &key);
    }

    /// Appends a batch of rows to an existing table (columns must match the
    /// stored schema in name, order and dtype) and publishes a new snapshot
    /// version on success. A prepared plan that scans the table stays
    /// current until the table has outgrown what it was planned for by
    /// [`REPLAN_GROWTH`] (its cost-based join orders were chosen for the old
    /// row counts); plans over other tables are unaffected.
    ///
    /// An append is a **push**: the new version shares every closed chunk
    /// of the table with the current one and copies only the open zone —
    /// the rows past the last [`crate::stats::ZONE_ROWS`] boundary — with
    /// the batch into a new last chunk, so it costs O(batch + zone) however
    /// large the table. String columns grow the table's dictionary lineage
    /// without copying it, statistics absorb the new chunk incrementally,
    /// and all other tables are shared by pointer. A failed append
    /// publishes nothing — the current version, dictionaries included, is
    /// untouched.
    pub fn append(&self, name: &str, rel: &Relation) -> Result<()> {
        let _writer = self.shared.write.lock().expect("database writer poisoned");
        let cur = self.shared.current.load();
        let key = name.to_lowercase();
        let stored = cur
            .tables
            .get(&key)
            .ok_or_else(|| Error::Data(format!("unknown table '{name}'")))?;
        // The next version of the one table being appended, sharing its
        // closed chunks; every other table stays Arc-shared.
        let grown = stored.appended(rel)?;
        // Fault-injection site: fail *after* the next version — its new last
        // chunk and grown dictionaries — is built but *before* publication:
        // the resilience suite proves a failed append leaves the current
        // version untouched (nothing is published).
        if fault::injected(FaultSite::AppendPublish) {
            return Err(Error::Internal(format!(
                "injected fault: append-publish ('{name}' at v{})",
                cur.version
            )));
        }
        let mut tables = cur.tables.clone();
        tables.insert(key.clone(), Arc::new(grown));
        let next = Arc::new(Snapshot {
            tables,
            registered: cur.registered.clone(),
            version: cur.version + 1,
            catalog: OnceLock::new(),
        });
        self.shared.current.publish(next.clone());
        // Still under the writer lock: registered views absorb the appended
        // rows (delta propagation where eligible, full recompute otherwise)
        // before the next writer can publish another version. A failed view
        // refresh never fails the append — the view just stays at its prior
        // consistent version (see `crate::mv`).
        crate::mv::on_publish(self, &next, &key);
        Ok(())
    }

    /// Version counter of the table set + statistics: incremented by every
    /// [`Database::register`] and successful [`Database::append`]. Whether a
    /// [`PreparedQuery`] planned at an earlier version should be re-prepared
    /// — for fresh join orders once a table it scans has grown, and for
    /// correctness if a `register` replaced one (see
    /// [`Database::execute_prepared`]) — is [`PreparedQuery::is_current`]'s
    /// call, not this counter's.
    pub fn stats_version(&self) -> u64 {
        self.shared.current.load().version
    }

    /// Looks a table up in the current version (case-insensitive). The
    /// returned `Arc` is a pinned, immutable view of that one table.
    pub fn table(&self, name: &str) -> Option<Arc<StoredTable>> {
        self.shared
            .current
            .load()
            .tables
            .get(&name.to_lowercase())
            .cloned()
    }

    /// Parses one SQL statement and prepares it against the current
    /// snapshot: profile checks, binding and the full optimizer pipeline
    /// run **once**, here; the returned [`PreparedQuery`] can then be
    /// executed any number of times.
    pub fn prepare(&self, sql: &str, profile: Profile) -> Result<PreparedQuery> {
        let query = parse_sql(sql)?;
        self.prepare_query(&query, profile)
    }

    /// Prepares an already-built SQL AST (no text involved) against the
    /// current snapshot ([`Snapshot::prepare_query`], reading nothing of the
    /// catalog beyond the tables the plan scans): the tail of
    /// [`Database::prepare`]. The whole pipeline runs against one pinned
    /// snapshot — a concurrent append cannot feed binding one version and
    /// costing another.
    pub fn prepare_query(&self, query: &Query, profile: Profile) -> Result<PreparedQuery> {
        self.snapshot()
            .prepare_query(query, profile, &CatalogReads::default())
    }

    /// Executes a prepared plan against the current snapshot, pinned for
    /// the whole run. No lexing, parsing, binding or planning happens here —
    /// only the physical execution options are derived from `config`. A
    /// plan prepared from SQL and gone stale through [`Database::append`]
    /// still executes correctly (appends never change a table's schema); it
    /// merely keeps the join order chosen for the old statistics. A plan
    /// gone stale through [`Database::register`] **replacing** a table, or
    /// one whose compile relied on a catalog fact that no longer holds, must
    /// be re-prepared instead ([`PreparedQuery::is_current`]) — scans bind
    /// stored column indices, and a compiler rewrite may have assumed a key
    /// or a NULL-free column.
    ///
    /// To execute against an explicitly pinned older version, use
    /// [`Database::snapshot`] + [`Snapshot::execute_prepared`].
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
    ) -> Result<Relation> {
        self.snapshot().execute_prepared(prepared, config)
    }

    /// Like [`Database::execute_prepared`] but the caller supplies the
    /// [`CancelToken`] (see [`Snapshot::execute_prepared_with`]): hold a
    /// clone and call [`CancelToken::cancel`] from any thread to abort the
    /// query mid-flight.
    pub fn execute_prepared_with(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
        cancel: CancelToken,
    ) -> Result<Relation> {
        self.snapshot()
            .execute_prepared_with(prepared, config, cancel)
    }

    /// Like [`Database::execute_prepared`] but also returns a [`QueryTrace`]
    /// (EXPLAIN rendering + executor counters, including the pinned
    /// snapshot version and the admission queue wait).
    pub fn execute_prepared_traced(
        &self,
        prepared: &PreparedQuery,
        config: &EngineConfig,
    ) -> Result<(Relation, QueryTrace)> {
        self.snapshot().execute_prepared_traced(prepared, config)
    }

    /// Table names in the current version, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.shared.current.load().table_names()
    }

    /// Parses, binds, optimizes and executes one SQL statement — the
    /// one-shot convenience wrapper over [`Database::prepare`] +
    /// [`Database::execute_prepared`].
    ///
    /// Note prepare and execute pin *separate* snapshots here: an append
    /// landing between them executes the (still correct) plan against the
    /// newer data, exactly like any other stale-plan execution.
    pub fn execute_sql(&self, sql: &str, config: &EngineConfig) -> Result<Relation> {
        let prepared = self.prepare(sql, config.profile)?;
        self.execute_prepared(&prepared, config)
    }

    /// Like [`Database::execute_sql`] but also returns a [`QueryTrace`] with
    /// the optimized plan rendering and the executor's zone-pruning / join
    /// counters, so tests and benchmarks can assert on planner decisions.
    pub fn execute_sql_traced(
        &self,
        sql: &str,
        config: &EngineConfig,
    ) -> Result<(Relation, QueryTrace)> {
        let prepared = self.prepare(sql, config.profile)?;
        self.execute_prepared_traced(&prepared, config)
    }

    /// Like [`Database::execute_sql`] but returns the optimized plan's
    /// EXPLAIN rendering instead of running it.
    pub fn explain_sql(&self, sql: &str) -> Result<String> {
        let prepared = self.prepare(sql, Profile::Vectorized)?;
        Ok(prepared.explain())
    }
}

/// What a compile read of a snapshot's [`Snapshot::catalog`] beyond the
/// tables its plan scans — the facts [`Snapshot::prepare_query`] records so
/// that [`PreparedQuery::is_current`] can tell when they stop holding.
#[derive(Debug, Clone, Default)]
pub struct CatalogReads {
    /// Tables the source program reads: a rewrite may have relied on their
    /// declared keys and on which of their columns hold no NULL.
    pub tables: Vec<String>,
    /// Tables whose exact row count is part of the program's shape (a
    /// dense transpose, matmul or outer product pivots by it).
    pub exact_rows: Vec<String>,
}

/// A bound + cost-optimized query plan, detached from the SQL (or TondIR)
/// source that produced it: the compile-once/execute-many unit.
///
/// Created by [`Database::prepare`] (from SQL text), [`Database::prepare_query`]
/// or [`Snapshot::prepare_query`] (from a tree, e.g. the [`ast::Query`](Query)
/// that [`crate::lower::lower_program`] lowers TondIR to); executed by
/// [`Database::execute_prepared`]. Carries what it was planned under — the
/// [`Database::stats_version`] and, per table it depends on, the facts its
/// compile relied on — so callers can detect when those have moved
/// ([`PreparedQuery::is_current`]) and transparently re-plan.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    bound: BoundQuery,
    profile: Profile,
    stats_version: u64,
    facts: Vec<TableFacts>,
}

/// What a plan was compiled under, for one table it scans or its source
/// read.
#[derive(Debug, Clone)]
struct TableFacts {
    /// Lower-cased table name.
    table: String,
    /// The version that registered the incarnation bound against.
    registered: u64,
    /// Rows when planned.
    rows: usize,
    /// The program's shape is that row count.
    exact_rows: bool,
    /// Positions of the columns the compile saw NULL-free.
    not_null: Vec<usize>,
}

/// Why a plan's compile-time facts no longer hold at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BrokenFact {
    /// The table was re-registered (or dropped): another schema, other keys.
    Replaced(String),
    /// A table whose row count shaped the program holds another count.
    Resized(String),
    /// A column the compile saw NULL-free holds a NULL: `(table, column)`.
    Null(String, String),
}

impl fmt::Display for BrokenFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokenFact::Replaced(t) => write!(f, "'{t}' re-registered"),
            BrokenFact::Resized(t) => write!(f, "'{t}' changed its row count"),
            BrokenFact::Null(t, c) => write!(f, "'{t}.{c}' now holds a NULL"),
        }
    }
}

/// How far a table may outgrow the row count a plan was costed with before
/// [`PreparedQuery::is_current`] asks for a re-plan. Join orders and build
/// sides are chosen from ratios between inputs that differ by integer
/// factors; a quarter more rows in one of them does not flip them, while
/// re-planning after every append costs more than most small reads.
pub const REPLAN_GROWTH: f64 = 1.25;

impl PreparedQuery {
    /// The optimized plans (CTEs in materialization order + root).
    pub fn plan(&self) -> &BoundQuery {
        &self.bound
    }

    /// The profile the query was validated against at prepare time (the
    /// LingoDB profile's semantic gates run during `prepare`, not execute).
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The [`Database::stats_version`] this plan was optimized under.
    pub fn stats_version(&self) -> u64 {
        self.stats_version
    }

    /// `true` while this is still the plan to run against `db`'s current
    /// snapshot (see [`PreparedQuery::is_current_at`]).
    pub fn is_current(&self, db: &Database) -> bool {
        self.is_current_at(&db.snapshot())
    }

    /// `true` while this is still the plan to run against `snap`: the facts
    /// it was compiled under hold — every table it depends on is the
    /// incarnation it was bound against (a `register` may have changed the
    /// schema under the stored column positions, or the declared keys),
    /// holds the exact row count the program's shape was built for where
    /// that count is part of the shape, and has no NULL in a column the
    /// compile saw NULL-free — and no table holds more than
    /// [`REPLAN_GROWTH`] times the rows the plan was costed with. Appends
    /// below that factor that keep the facts, and writes to tables the plan
    /// does not depend on, leave it current — [`PreparedQuery::stats_version`]
    /// says when it was planned, not whether it must be planned again.
    pub fn is_current_at(&self, snap: &Snapshot) -> bool {
        self.broken_fact(snap).is_none()
            && self.facts.iter().all(|f| {
                let now = snap.tables.get(&f.table).map_or(usize::MAX, |s| rows(s));
                now as f64 <= REPLAN_GROWTH * f.rows as f64
            })
    }

    /// The first compile-time fact that no longer holds at `snap` — the
    /// correctness half of [`PreparedQuery::is_current_at`], without the
    /// growth test (a view keeps its plan while the data grows: re-planning
    /// would throw its maintenance state away).
    pub(crate) fn broken_fact(&self, snap: &Snapshot) -> Option<BrokenFact> {
        self.facts.iter().find_map(|f| {
            let t = || f.table.clone();
            let (Some(stored), Some(reg)) =
                (snap.tables.get(&f.table), snap.registered.get(&f.table))
            else {
                return Some(BrokenFact::Replaced(t()));
            };
            if reg.version != f.registered {
                return Some(BrokenFact::Replaced(t()));
            }
            if f.exact_rows && rows(stored) != f.rows {
                return Some(BrokenFact::Resized(t()));
            }
            let nulls = stored.stats.as_ref().map(|s| &s.columns)?;
            let c = *f.not_null.iter().find(|&&c| nulls[c].null_count > 0)?;
            Some(BrokenFact::Null(t(), stored.schema.fields[c].name.clone()))
        })
    }

    /// EXPLAIN rendering of every plan in the query (CTEs + root).
    pub fn explain(&self) -> String {
        render_plans(&self.bound)
    }
}

/// EXPLAIN rendering of every optimized plan in a bound query.
fn render_plans(bound: &BoundQuery) -> String {
    let mut out = String::new();
    for (name, plan) in &bound.ctes {
        out.push_str(&format!("CTE {name}:\n"));
        out.push_str(&plan.explain());
    }
    out.push_str("ROOT:\n");
    out.push_str(&bound.root.explain());
    out
}

/// The three lines that head both a [`QueryTrace`]'s plan and its
/// summary: parallelism, snapshot version with queue wait, and the
/// lifecycle limits in force (`none` where unset).
fn trace_header(m: &ExecMetrics) -> String {
    let limit = |v: u64, unit: &str| match v {
        0 => "none".to_string(),
        v => format!("{v}{unit}"),
    };
    format!(
        "parallelism: {} worker thread(s)\nsnapshot: v{} (queue wait {} ns)\nlimits: deadline {}, mem budget {}",
        m.threads,
        m.snapshot_version,
        m.queue_wait_ns,
        limit(m.deadline_ms, "ms"),
        limit(m.mem_budget_bytes, " bytes"),
    )
}

/// Planner + executor report for one traced query: the EXPLAIN rendering of
/// the optimized plans (join order included, headed by the resolved degree
/// of parallelism) plus runtime counters.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// EXPLAIN rendering of all CTE plans and the root plan, headed by a
    /// `parallelism: N worker thread(s)` line and a
    /// `snapshot: vN (queue wait N ns)` line.
    pub plan: String,
    /// Executor counters (zones pruned/scanned, storage chunks
    /// concatenated, joins flipped, dispenser claims per worker, join-build
    /// partitions, snapshot version and admission queue wait).
    pub metrics: ExecMetrics,
}

impl QueryTrace {
    /// Human-readable runtime summary: parallelism, snapshot version,
    /// admission queue wait, per-worker morsel claims, scan pruning and
    /// storage chunks concatenated, join
    /// counters and the rows the query spent in build / probe / aggregate —
    /// the numbers the `docs/EXECUTION.md`,
    /// `docs/SERVING.md` and ARCHITECTURE.md walk-throughs quote.
    pub fn summary(&self) -> String {
        format!(
            "{}\n\
             cancel checks: {}, mem charged: {} bytes\n\
             morsels claimed per worker: {:?}\n\
             scan zones: {} evaluated, {} pruned; storage chunks concatenated: {}\n\
             joins flipped: {}, build partitions: {}, direct builds: {}\n\
             rows: {} join build, {} join probe; {} aggregate group(s)\n\
             pipelines: {}, fused ops per pipeline: {:?}, intermediates avoided: {}\n\
             dict: {} encoded col(s) scanned, {} dict-probe pipeline(s), {} predicate table(s), {} col(s) decoded",
            trace_header(&self.metrics),
            self.metrics.cancel_checks,
            self.metrics.mem_peak_bytes,
            self.metrics.morsels_claimed_per_worker,
            self.metrics.morsels_scanned,
            self.metrics.morsels_pruned,
            self.metrics.chunks_concatenated,
            self.metrics.joins_flipped,
            self.metrics.partitions_built,
            self.metrics.direct_builds,
            self.metrics.join_build_rows,
            self.metrics.join_probe_rows,
            self.metrics.agg_groups,
            self.metrics.pipelines,
            self.metrics.pipeline_ops,
            self.metrics.intermediates_avoided,
            self.metrics.dict_encoded_cols,
            self.metrics.dict_probe_pipelines,
            self.metrics.dict_pred_tables,
            self.metrics.dict_decoded_cols,
        )
    }
}

/// The documented LingoDB-profile restrictions (see crate docs): reject
/// window functions and aggregates over disjunctive CASE conditions.
fn lingo_check(q: &Query) -> Result<()> {
    for cte in &q.ctes {
        lingo_check_select(&cte.select)?;
    }
    lingo_check_select(&q.body)
}

fn lingo_check_select(s: &Select) -> Result<()> {
    let check_expr = |e: &SqlExpr| -> Result<()> {
        if e.contains_window() {
            return Err(Error::Unsupported(
                "lingodb-sim profile does not support window functions".into(),
            ));
        }
        let mut bad = false;
        e.any(&mut |x| {
            if let SqlExpr::Agg { arg: Some(a), .. } = x {
                a.any(&mut |inner| {
                    if let SqlExpr::Case { arms, .. } = inner {
                        for (cond, _) in arms {
                            if cond.any(&mut |c| {
                                matches!(
                                    c,
                                    SqlExpr::Bin {
                                        op: crate::ast::BinOp::Or,
                                        ..
                                    }
                                )
                            }) {
                                bad = true;
                            }
                        }
                    }
                    false
                });
            }
            false
        });
        if bad {
            return Err(Error::Unsupported(
                "lingodb-sim profile cannot process aggregates over disjunctive CASE \
                 conditions (the shape of PyTond's Q12 SQL)"
                    .into(),
            ));
        }
        Ok(())
    };
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            check_expr(expr)?;
        }
    }
    if let Some(w) = &s.where_clause {
        check_expr(w)?;
    }
    if let Some(h) = &s.having {
        check_expr(h)?;
    }
    for (e, _) in &s.order_by {
        check_expr(e)?;
    }
    for tr in &s.from {
        lingo_check_tableref(tr)?;
    }
    Ok(())
}

fn lingo_check_tableref(tr: &TableRef) -> Result<()> {
    match tr {
        TableRef::Subquery { query, .. } => lingo_check_select(query),
        TableRef::Join { left, right, .. } => {
            lingo_check_tableref(left)?;
            lingo_check_tableref(right)
        }
        TableRef::Table { .. } => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::{Column, Value};

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

    fn run(sql: &str) -> Relation {
        db().execute_sql(sql, &EngineConfig::default()).unwrap()
    }

    #[test]
    fn select_filter_project() {
        let r = run("SELECT a, b * 2 AS b2 FROM t WHERE a >= 2");
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.column("b2").unwrap().as_float(), &[40.0, 60.0, 80.0]);
    }

    #[test]
    fn join_inner() {
        let r = run("SELECT t.a, u.w FROM t, u WHERE t.a = u.a");
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("w").unwrap().as_int(), &[200, 300]);
    }

    #[test]
    fn join_left_outer() {
        let r = run("SELECT t.a, u.w FROM t LEFT JOIN u ON t.a = u.a ORDER BY a");
        assert_eq!(r.num_rows(), 4);
        assert_eq!(r.column("w").unwrap().get(0), Value::Null);
        assert_eq!(r.column("w").unwrap().get(1), Value::Int(200));
    }

    #[test]
    fn group_by_with_having_and_order() {
        let r = run(
            "SELECT s, SUM(b) AS total, COUNT(*) AS n FROM t GROUP BY s \
             HAVING COUNT(*) >= 1 ORDER BY total DESC",
        );
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.column("s").unwrap().get(0), Value::Str("x".into()));
        assert_eq!(r.column("total").unwrap().get(0), Value::Float(40.0));
    }

    #[test]
    fn scalar_aggregate_without_group() {
        let r = run("SELECT SUM(a) AS s, AVG(b) AS m, COUNT(*) AS n FROM t");
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.column("s").unwrap().get(0), Value::Int(10));
        assert_eq!(r.column("m").unwrap().get(0), Value::Float(25.0));
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(4));
    }

    #[test]
    fn with_chain_and_reuse() {
        let r = run("WITH big AS (SELECT a, b FROM t WHERE b > 15), \
             top AS (SELECT a FROM big WHERE a < 4) \
             SELECT big.a, big.b FROM big, top WHERE big.a = top.a ORDER BY a");
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("a").unwrap().as_int(), &[2, 3]);
    }

    #[test]
    fn in_subquery_semi_join() {
        let r = run("SELECT a FROM t WHERE a IN (SELECT a FROM u) ORDER BY a");
        assert_eq!(r.column("a").unwrap().as_int(), &[2, 3]);
        let r = run("SELECT a FROM t WHERE a NOT IN (SELECT a FROM u) ORDER BY a");
        assert_eq!(r.column("a").unwrap().as_int(), &[1, 4]);
    }

    #[test]
    fn distinct_and_limit() {
        let r = run("SELECT DISTINCT s FROM t ORDER BY s LIMIT 2");
        assert_eq!(r.num_rows(), 2);
        assert_eq!(
            r.column("s").unwrap().as_str_col(),
            &["x".to_string(), "y".into()]
        );
    }

    #[test]
    fn row_number_window() {
        let r = run("SELECT a, row_number() OVER (ORDER BY b DESC) AS rn FROM t ORDER BY a");
        assert_eq!(r.column("rn").unwrap().as_int(), &[4, 3, 2, 1]);
    }

    #[test]
    fn values_cte() {
        let r = run("WITH v(c0) AS (VALUES (0), (1)) SELECT c0 FROM v ORDER BY c0");
        assert_eq!(r.column("c0").unwrap().as_int(), &[0, 1]);
    }

    #[test]
    fn case_when_aggregation() {
        let r = run("SELECT SUM(CASE WHEN s = 'x' THEN b ELSE 0 END) AS x_total FROM t");
        assert_eq!(r.column("x_total").unwrap().get(0), Value::Float(40.0));
    }

    #[test]
    fn scalar_subquery_in_where() {
        let r = run("SELECT a FROM t WHERE b > (SELECT AVG(b) FROM t) ORDER BY a");
        assert_eq!(r.column("a").unwrap().as_int(), &[3, 4]);
    }

    #[test]
    fn count_distinct() {
        let r = run("SELECT COUNT(DISTINCT s) AS n FROM t");
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(3));
    }

    #[test]
    fn like_filtering() {
        let r = run("SELECT a FROM t WHERE s LIKE 'x%'");
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn profiles_agree() {
        let sql = "SELECT s, SUM(a) AS n FROM t WHERE b >= 20 GROUP BY s ORDER BY s";
        let base = db()
            .execute_sql(sql, &EngineConfig::new(Profile::Vectorized, 1))
            .unwrap();
        for profile in [Profile::Fused, Profile::Lingo] {
            for threads in [1, 4] {
                let r = db()
                    .execute_sql(sql, &EngineConfig::new(profile, threads))
                    .unwrap();
                assert!(base.approx_eq(&r, 1e-9), "{profile:?}/{threads}");
            }
        }
    }

    #[test]
    fn lingo_rejects_window_functions() {
        let err = db()
            .execute_sql(
                "SELECT row_number() OVER (ORDER BY a) AS id FROM t",
                &EngineConfig::new(Profile::Lingo, 1),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn lingo_rejects_disjunctive_case_aggregates() {
        let err = db()
            .execute_sql(
                "SELECT SUM(CASE WHEN s = 'x' OR s = 'y' THEN 1 ELSE 0 END) AS n FROM t",
                &EngineConfig::new(Profile::Lingo, 1),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
        // The vectorized profile runs the same query fine.
        let ok = db()
            .execute_sql(
                "SELECT SUM(CASE WHEN s = 'x' OR s = 'y' THEN 1 ELSE 0 END) AS n FROM t",
                &EngineConfig::default(),
            )
            .unwrap();
        assert_eq!(ok.column("n").unwrap().get(0), Value::Int(3));
    }

    #[test]
    fn explain_renders_plan() {
        let text = db().explain_sql("SELECT a FROM t WHERE a > 1").unwrap();
        assert!(text.contains("Scan t"), "{text}");
        // The filter was sunk into the scan node.
        assert!(text.contains("where"), "{text}");
    }

    /// A clustered (sequentially keyed) table: zone maps give tight per-zone
    /// bounds, so selective range scans skip most morsels.
    fn clustered_db(rows: i64) -> Database {
        let db = Database::new();
        db.register(
            "events",
            Relation::new(vec![
                ("id".into(), Column::from_i64((0..rows).collect())),
                (
                    "v".into(),
                    Column::from_f64((0..rows).map(|i| (i % 97) as f64).collect()),
                ),
            ])
            .unwrap(),
        );
        db
    }

    #[test]
    fn zone_pruning_skips_morsels_and_preserves_results() {
        let db = clustered_db(40_000);
        let sql = "SELECT id, v FROM events WHERE id >= 100 AND id < 300";
        let (pruned, trace) = db
            .execute_sql_traced(sql, &EngineConfig::default())
            .unwrap();
        assert!(
            trace.metrics.morsels_pruned > 0,
            "expected pruned morsels, got {:?}\n{}",
            trace.metrics,
            trace.plan
        );
        // Same query with pruning disabled scans every morsel and agrees.
        let cfg = EngineConfig {
            zone_prune: false,
            ..EngineConfig::default()
        };
        let (full, t2) = db.execute_sql_traced(sql, &cfg).unwrap();
        assert_eq!(t2.metrics.morsels_pruned, 0);
        assert!(t2.metrics.morsels_scanned > trace.metrics.morsels_scanned);
        assert!(pruned.approx_eq(&full, 0.0), "pruned scan changed results");
        assert_eq!(pruned.num_rows(), 200);
    }

    #[test]
    fn zone_pruning_handles_in_lists_and_equality() {
        let db = clustered_db(40_000);
        let (r, trace) = db
            .execute_sql_traced(
                "SELECT id FROM events WHERE id IN (5, 39999)",
                &EngineConfig::default(),
            )
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert!(trace.metrics.morsels_pruned > 0, "{:?}", trace.metrics);
        let (r, trace) = db
            .execute_sql_traced(
                "SELECT id FROM events WHERE id = 12345",
                &EngineConfig::default(),
            )
            .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(trace.metrics.morsels_scanned, 1, "{:?}", trace.metrics);
    }

    /// TPC-H Q3 shape with the FROM clause in a deliberately bad order:
    /// the greedy cost-based rewrite must start from the cheap
    /// customer⋈orders pair instead of crossing lineitem with customer.
    fn q3_shaped_db() -> Database {
        let db = Database::new();
        let n_li = 8_000i64;
        db.register(
            "lineitem",
            Relation::new(vec![
                (
                    "l_orderkey".into(),
                    Column::from_i64((0..n_li).map(|i| i / 4).collect()),
                ),
                (
                    "l_extendedprice".into(),
                    Column::from_f64((0..n_li).map(|i| (i % 100) as f64).collect()),
                ),
            ])
            .unwrap(),
        );
        db.register(
            "orders",
            Relation::new(vec![
                ("o_orderkey".into(), Column::from_i64((0..2_000).collect())),
                (
                    "o_custkey".into(),
                    Column::from_i64((0..2_000).map(|i| i % 100).collect()),
                ),
            ])
            .unwrap(),
        );
        db.register(
            "customer",
            Relation::new(vec![(
                "c_custkey".into(),
                Column::from_i64((0..100).collect()),
            )])
            .unwrap(),
        );
        db
    }

    #[test]
    fn cost_based_rewrite_changes_join_order() {
        let db = q3_shaped_db();
        let sql = "SELECT SUM(l_extendedprice) AS rev \
                   FROM lineitem, customer, orders \
                   WHERE l_orderkey = o_orderkey AND c_custkey = o_custkey";
        let plan = db.explain_sql(sql).unwrap();
        let pos = |t: &str| plan.find(&format!("Scan {t}")).expect(t);
        // The FROM clause leads with lineitem; the rewrite starts from the
        // cheap orders⋈customer pair and attaches lineitem last.
        assert!(
            pos("lineitem") > pos("orders") && pos("lineitem") > pos("customer"),
            "join order not rewritten:\n{plan}"
        );
        // The rewritten plan computes the same answer as the well-ordered
        // query.
        let good = "SELECT SUM(l_extendedprice) AS rev \
                    FROM customer, orders, lineitem \
                    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey";
        let a = db.execute_sql(sql, &EngineConfig::default()).unwrap();
        let b = db.execute_sql(good, &EngineConfig::default()).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn well_ordered_joins_are_left_alone() {
        let db = q3_shaped_db();
        let plan = db
            .explain_sql(
                "SELECT SUM(l_extendedprice) AS rev \
                 FROM customer, orders, lineitem \
                 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey",
            )
            .unwrap();
        let pos = |t: &str| plan.find(&format!("Scan {t}")).expect(t);
        assert!(
            pos("customer") < pos("orders") && pos("orders") < pos("lineitem"),
            "optimal FROM order should be preserved:\n{plan}"
        );
    }

    #[test]
    fn joins_build_on_smaller_side() {
        let db = q3_shaped_db();
        // lineitem (8000 rows) streams; orders (2000 rows) builds even though
        // it is the left input here. The plan says so, and every profile
        // executes the plan's side.
        let sql = "SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey";
        let plan = db.explain_sql(sql).unwrap();
        assert!(plan.contains("Join Inner build=left on ["), "{plan}");
        for profile in [Profile::Vectorized, Profile::Fused, Profile::Lingo] {
            let (_, trace) = db
                .execute_sql_traced(sql, &EngineConfig::new(profile, 1))
                .unwrap();
            assert_eq!(
                trace.metrics.joins_flipped, 1,
                "{profile:?}: {:?}",
                trace.metrics
            );
            assert_eq!(trace.metrics.join_build_rows, 2000, "{profile:?}");
            assert_eq!(trace.metrics.join_probe_rows, 8000, "{profile:?}");
        }
    }

    #[test]
    fn joins_over_empty_tables_plan_and_run() {
        let db = db();
        db.register(
            "e",
            Relation::new(vec![("a".into(), Column::from_i64(vec![]))]).unwrap(),
        );
        // A zero-row input must not panic cardinality estimation.
        let r = db
            .execute_sql(
                "SELECT t.a FROM t, e WHERE t.a = e.a",
                &EngineConfig::default(),
            )
            .unwrap();
        assert_eq!(r.num_rows(), 0);
    }

    #[test]
    fn failed_append_leaves_table_untouched() {
        let db = clustered_db(100);
        // Second column has the wrong dtype: nothing may be appended.
        let bad = Relation::new(vec![
            ("id".into(), Column::from_i64(vec![100])),
            ("v".into(), Column::from_strs(&["oops"])),
        ])
        .unwrap();
        assert!(db.append("events", &bad).is_err());
        let stored = db.table("events").unwrap();
        assert_eq!(stored.num_rows(), 100);
        assert!(stored
            .chunks
            .iter()
            .all(|c| c.batch.cols.iter().all(|c| c.len() == 100)));
        let r = db
            .execute_sql("SELECT COUNT(*) AS n FROM events", &EngineConfig::default())
            .unwrap();
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(100));
    }

    #[test]
    fn append_updates_data_and_stats() {
        let db = clustered_db(5_000);
        let more = Relation::new(vec![
            ("id".into(), Column::from_i64((5_000..6_000).collect())),
            ("v".into(), Column::from_f64(vec![1.0; 1_000])),
        ])
        .unwrap();
        db.append("events", &more).unwrap();
        let r = db
            .execute_sql(
                "SELECT COUNT(*) AS n FROM events WHERE id >= 5000",
                &EngineConfig::default(),
            )
            .unwrap();
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(1_000));
        let stored = db.table("events").unwrap();
        let stats = stored.stats.as_ref().unwrap();
        assert_eq!(stats.row_count, 6_000);
        assert_eq!(stats.columns[0].max, Value::Int(5_999));
        // Mismatched schema is rejected.
        let bad = Relation::new(vec![("id".into(), Column::from_i64(vec![1]))]).unwrap();
        assert!(db.append("events", &bad).is_err());
    }

    #[test]
    fn register_and_append_bump_stats_version() {
        let db = Database::new();
        assert_eq!(db.stats_version(), 0);
        db.register(
            "t",
            Relation::new(vec![("a".into(), Column::from_i64(vec![1]))]).unwrap(),
        );
        assert_eq!(db.stats_version(), 1);
        db.append(
            "t",
            &Relation::new(vec![("a".into(), Column::from_i64(vec![2]))]).unwrap(),
        )
        .unwrap();
        assert_eq!(db.stats_version(), 2);
        // A failed append must NOT bump the version (nothing changed).
        let bad = Relation::new(vec![("a".into(), Column::from_f64(vec![1.0]))]).unwrap();
        assert!(db.append("t", &bad).is_err());
        assert_eq!(db.stats_version(), 2);
    }

    #[test]
    fn prepared_query_executes_without_replanning() {
        let db = db();
        let sql = "SELECT s, SUM(b) AS total FROM t WHERE a >= 2 GROUP BY s ORDER BY s";
        let prepared = db.prepare(sql, Profile::Vectorized).unwrap();
        assert!(prepared.is_current(&db));
        let reference = db.execute_sql(sql, &EngineConfig::default()).unwrap();
        // Execute the same prepared plan repeatedly; results are identical
        // to the one-shot path every time.
        for _ in 0..3 {
            let r = db
                .execute_prepared(&prepared, &EngineConfig::default())
                .unwrap();
            assert!(reference.approx_eq(&r, 0.0));
        }
        // The prepared EXPLAIN matches the one-shot EXPLAIN.
        assert_eq!(prepared.explain(), db.explain_sql(sql).unwrap());
    }

    /// The stale-plan hazard regression: a query prepared while `lineitem`
    /// is tiny joins it first; after appending enough rows to make it the
    /// biggest input, the stats version has moved, `is_current` turns false,
    /// and re-preparing yields a different (lineitem-last) join order while
    /// both plans still agree on results over the current data.
    #[test]
    fn append_invalidates_prepared_plans_and_replans_join_order() {
        let db = Database::new();
        let small_li = 40i64;
        db.register(
            "lineitem",
            Relation::new(vec![
                (
                    "l_orderkey".into(),
                    Column::from_i64((0..small_li).map(|i| i / 4).collect()),
                ),
                (
                    "l_extendedprice".into(),
                    Column::from_f64((0..small_li).map(|i| (i % 100) as f64).collect()),
                ),
            ])
            .unwrap(),
        );
        db.register(
            "orders",
            Relation::new(vec![
                ("o_orderkey".into(), Column::from_i64((0..2_000).collect())),
                (
                    "o_custkey".into(),
                    Column::from_i64((0..2_000).map(|i| i % 100).collect()),
                ),
            ])
            .unwrap(),
        );
        db.register(
            "customer",
            Relation::new(vec![(
                "c_custkey".into(),
                Column::from_i64((0..100).collect()),
            )])
            .unwrap(),
        );
        let sql = "SELECT SUM(l_extendedprice) AS rev \
                   FROM lineitem, customer, orders \
                   WHERE l_orderkey = o_orderkey AND c_custkey = o_custkey";
        let before = db.prepare(sql, Profile::Vectorized).unwrap();
        assert!(before.is_current(&db));
        let order_before = before.plan().root.scan_order();
        assert_eq!(
            order_before[0], "lineitem",
            "tiny lineitem should lead: {order_before:?}"
        );
        // Grow lineitem to 20k+ rows: it is now by far the largest input.
        let n = 20_000i64;
        db.append(
            "lineitem",
            &Relation::new(vec![
                (
                    "l_orderkey".into(),
                    Column::from_i64((0..n).map(|i| (small_li + i) / 4 % 2_000).collect()),
                ),
                (
                    "l_extendedprice".into(),
                    Column::from_f64((0..n).map(|i| (i % 100) as f64).collect()),
                ),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(
            !before.is_current(&db),
            "append must invalidate prepared plans"
        );
        let after = db.prepare(sql, Profile::Vectorized).unwrap();
        let order_after = after.plan().root.scan_order();
        assert_eq!(
            order_after.last().map(String::as_str),
            Some("lineitem"),
            "re-planned join order should attach the now-huge lineitem last: {order_after:?}"
        );
        assert_ne!(order_before, order_after, "join order must be re-planned");
        // Stale plans stay *correct* — they just keep the old join order.
        let a = db
            .execute_prepared(&before, &EngineConfig::default())
            .unwrap();
        let b = db
            .execute_prepared(&after, &EngineConfig::default())
            .unwrap();
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn full_outer_join() {
        let r =
            run("SELECT t.a, u.w FROM t FULL OUTER JOIN u ON t.a = u.a ORDER BY t.a NULLS FIRST");
        assert_eq!(r.num_rows(), 5);
        // Row with u.a = 5 has null t.a.
        assert_eq!(r.column("a").unwrap().get(0), Value::Null);
        assert_eq!(r.column("w").unwrap().get(0), Value::Int(500));
    }

    #[test]
    fn exists_uncorrelated() {
        let r = run("SELECT a FROM t WHERE EXISTS (SELECT a FROM u WHERE a > 100)");
        assert_eq!(r.num_rows(), 0);
        let r = run("SELECT a FROM t WHERE EXISTS (SELECT a FROM u WHERE a > 2)");
        assert_eq!(r.num_rows(), 4);
    }

    #[test]
    fn between_and_in_list() {
        let r = run("SELECT a FROM t WHERE a BETWEEN 2 AND 3 AND a IN (1, 3, 4)");
        assert_eq!(r.column("a").unwrap().as_int(), &[3]);
    }

    #[test]
    fn order_by_multiple_keys_with_desc() {
        let r = run("SELECT s, a FROM t ORDER BY s ASC, a DESC");
        assert_eq!(r.column("a").unwrap().as_int(), &[3, 1, 2, 4]);
    }

    /// What a join charges follows what its CSR index holds. Hashed: one row
    /// id (and one scratch word) per build row, key state per *distinct*
    /// key. Direct: one row id per build row and one offset per key in
    /// range. A 25-key build over 300 K rows must not be charged — or
    /// reserve — a key entry per row; a unique build pays for every key.
    #[test]
    fn join_index_memory_follows_distinct_keys() {
        let n = 300_000i64;
        let db = Database::new();
        let keyed = |keys: Vec<i64>| Relation::new(vec![("k".into(), Column::from_i64(keys))]);
        db.register("probe", keyed((0..n).collect()).unwrap());
        db.register("dup", keyed((0..n).map(|i| i % 25).collect()).unwrap());
        db.register(
            "dup_spread",
            keyed((0..n).map(|i| i % 25 * 100_003).collect()).unwrap(),
        );
        // Unique keys spanning ≥ 4× the rows hash; a span of 2× builds direct.
        db.register("uniq", keyed((0..n).map(|i| i * 7919).collect()).unwrap());
        db.register(
            "uniq_dense",
            keyed((0..n).map(|i| i * 2).collect()).unwrap(),
        );
        let semi = |build: &str, profile: Profile| {
            let sql = format!("SELECT COUNT(*) AS n FROM probe WHERE k IN (SELECT k FROM {build})");
            let (rel, trace) = db
                .execute_sql_traced(&sql, &EngineConfig::new(profile, 1))
                .unwrap();
            assert_eq!(
                trace.metrics.join_build_rows,
                n as u64,
                "{}",
                trace.summary()
            );
            assert_eq!(
                trace.metrics.join_probe_rows,
                n as u64,
                "{}",
                trace.summary()
            );
            assert_eq!(trace.metrics.agg_groups, 1, "{}", trace.summary());
            (
                rel.column("n").unwrap().get(0),
                trace.metrics.mem_peak_bytes,
                trace.metrics.direct_builds == 1,
            )
        };
        for profile in [Profile::Vectorized, Profile::Fused] {
            for (build, direct) in [("dup", true), ("dup_spread", false)] {
                let (matches, charged, was_direct) = semi(build, profile);
                assert_eq!(was_direct, direct, "{build}");
                // The spread keys below 300 K: 0, 100 003 and 200 006.
                let want = if direct { 25 } else { 3 };
                assert_eq!(matches, Value::Int(want), "{build}");
                assert!(
                    charged < 8 * n as u64 + 4096,
                    "{profile:?} {build}: {charged} bytes"
                );
            }
            let (matches, charged, was_direct) = semi("uniq", profile);
            assert!(!was_direct);
            assert_eq!(matches, Value::Int(n / 7919 + 1));
            // + an offset (4 B) and a slot-map bucket (≥ 17 B) per key.
            assert!(
                charged >= (8 + 4 + 17) * n as u64,
                "{profile:?}: {charged} bytes"
            );
            let (matches, dense, was_direct) = semi("uniq_dense", profile);
            assert!(was_direct);
            assert_eq!(matches, Value::Int(n / 2));
            // A row id per row and an offset per key in range (2n − 1).
            assert!(
                dense >= (4 + 8) * n as u64 && dense < charged,
                "{profile:?}: {dense} vs hashed {charged} bytes"
            );
        }
    }

    #[test]
    fn arithmetic_in_group_keys() {
        let r = run("SELECT a % 2 AS parity, COUNT(*) AS n FROM t GROUP BY a % 2 ORDER BY parity");
        assert_eq!(r.column("n").unwrap().as_int(), &[2, 2]);
    }
}
