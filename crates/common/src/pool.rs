//! Morsel-driven shared worker pool + query admission (std-only).
//!
//! The engine's parallelism is *morsel-driven* (Leis et al., SIGMOD 2014, as
//! cited by PyTond's "efficient multi-threaded query processing"): work is a
//! fixed grid of row ranges ("morsels"), workers claim the next unclaimed
//! morsel from a shared atomic cursor, and the per-morsel outputs are
//! stitched back together **in morsel order**. Because the grid depends only
//! on the input size — never on the worker count — and the merge order is
//! fixed, every operator built on this pool produces bit-identical results
//! at any thread count (see `docs/EXECUTION.md` for the full determinism
//! argument).
//!
//! The build environment has no crates.io access, so there is no rayon here.
//! Workers are **long-lived process-wide threads** sharing one job queue:
//! instead of every operator of every query spawning its own
//! `std::thread::scope`, a parallel operator enqueues one *job* (its
//! morsel-claim loop) asking for up to `threads − 1` helpers, runs the loop
//! on its own thread too, and idle pool workers pick jobs up oldest-first.
//! Concurrent queries therefore *multiplex* over one shared worker set —
//! the total number of live worker threads is bounded by the largest single
//! request, not by the number of in-flight queries (see `docs/SERVING.md`
//! for the serving-level scheduling model). At `threads <= 1` (or a
//! single-morsel grid) no job is ever enqueued and the closure runs inline
//! on the caller's stack — the serial path. [`par_morsels`] is the one work
//! primitive: a fixed task list (the P partitions of a hash-join build) is
//! a grid of one-row morsels.
//!
//! The [`Admission`] gate sits above the pool: a serving layer admits each
//! query before execution, bounding how many queries compute simultaneously
//! and measuring the time each one queued (`PYTOND_ADMIT` sets the
//! capacity; the wait surfaces in `QueryTrace`).

use crate::env;
use crate::error::Error;
use crate::fault::{self, FaultSite};
use crate::Result;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The machine's hardware parallelism (1 if it cannot be determined).
/// Cached: the underlying `available_parallelism` probes cgroup files on
/// Linux (~10 µs), which would dwarf a point query if paid per call.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The default worker count: the `PYTOND_THREADS` environment variable when
/// set to a positive integer, otherwise [`hardware_threads`]. This is what a
/// thread count of `0` ("auto") resolves to everywhere in the engine.
/// Read **once per process** (serving hot paths resolve it per query); set
/// the variable before the first query, not between queries.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        env::positive_u64("PYTOND_THREADS").map_or_else(hardware_threads, |n| n as usize)
    })
}

/// Resolves a configured thread count: `0` means "auto"
/// ([`default_threads`]), anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        default_threads()
    } else {
        configured
    }
}

const POISON: &str = "pytond pool state poisoned";

/// One lifetime-erased unit of shared-pool work: the morsel-claim loop of a
/// single parallel operator invocation.
///
/// `work` is the submitting operator's claim loop with its lifetime erased
/// to `'static`. This is sound for the same reason [`std::thread::scope`]
/// is: the submitter blocks inside [`SharedPool::run_job`] (via
/// [`JoinGuard`], which also runs on unwind) until `active` returns to
/// zero, so no worker can observe the closure after the submitting stack
/// frame dies.
struct Job {
    work: &'static (dyn Fn() + Sync),
    /// Diagnostic label identifying the submitting operator and its query
    /// context (e.g. `scan q@v3`); carried into the submitter's re-raise so
    /// a panic names the work that died.
    label: String,
    /// Helper slots still open: workers decrement one to join the job.
    /// All mutations happen under the pool's state mutex; the atomics exist
    /// for `Sync`, not for lock-free access.
    slots: AtomicUsize,
    /// Helpers currently inside `work`.
    active: AtomicUsize,
    /// Set when a helper panicked inside `work`; re-raised by the submitter.
    panicked: AtomicBool,
    /// The first panicking helper's payload (when it was a string), carried
    /// into the submitter's re-raise.
    panic_msg: Mutex<Option<String>>,
}

/// Best-effort extraction of a panic payload's message (covers the `&str`
/// and `String` payloads produced by `panic!`). Also renders the payloads
/// the serving layer catches when it contains a query's panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[derive(Default)]
struct PoolState {
    /// Pending jobs, oldest first. A job stays queued until its submitter
    /// finishes or its helper slots run out; idle workers serve the oldest
    /// job that still has open slots, which is what multiplexes concurrent
    /// queries fairly over one worker set.
    jobs: VecDeque<Arc<Job>>,
    /// Workers currently parked on `work_cv`.
    idle: usize,
    /// Workers ever spawned (they are process-lived).
    spawned: usize,
}

/// The process-wide shared morsel pool: long-lived workers + one job queue.
struct SharedPool {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs.
    work_cv: Condvar,
    /// Submitters park here waiting for their helpers to drain.
    done_cv: Condvar,
}

/// The process-wide pool instance. Workers are spawned lazily on first
/// demand and never exit; an idle pool costs a few parked threads.
fn shared() -> &'static SharedPool {
    static POOL: OnceLock<SharedPool> = OnceLock::new();
    POOL.get_or_init(|| SharedPool {
        state: Mutex::new(PoolState::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// Number of long-lived pool workers spawned so far in this process (the
/// high-water mark of concurrent helper demand). Observability only.
pub fn pool_workers_spawned() -> usize {
    shared().state.lock().expect(POISON).spawned
}

/// Removes the job from the queue and waits for its active helpers to
/// drain. Runs on both the normal and the unwind path of
/// [`SharedPool::run_job`] — if the submitter's own claim loop panics, the
/// stack frame the helpers borrow from must still outlive them.
struct JoinGuard<'a> {
    pool: &'static SharedPool,
    job: &'a Arc<Job>,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock().expect(POISON);
        self.job.slots.store(0, Ordering::Relaxed);
        if let Some(pos) = st.jobs.iter().position(|j| Arc::ptr_eq(j, self.job)) {
            st.jobs.remove(pos);
        }
        while self.job.active.load(Ordering::Relaxed) > 0 {
            st = self.pool.done_cv.wait(st).expect(POISON);
        }
    }
}

impl SharedPool {
    /// Runs `work` on the submitting thread plus up to `helpers` pool
    /// workers, returning when every participant is done. Panics raised by
    /// a helper are re-raised here with `label` (the submitting operator +
    /// query context) and the helper's own panic message in the payload.
    fn run_job(&'static self, helpers: usize, label: &str, work: &(dyn Fn() + Sync)) {
        if helpers == 0 {
            work();
            return;
        }
        // SAFETY: lifetime erasure; see `Job::work`. The `JoinGuard` below
        // guarantees the borrow outlives every worker's use of it.
        let work_static =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let job = Arc::new(Job {
            work: work_static,
            label: label.to_string(),
            slots: AtomicUsize::new(helpers),
            active: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
        });
        {
            let mut st = self.state.lock().expect(POISON);
            st.jobs.push_back(job.clone());
            // Grow the worker set only when demand outstrips the idle
            // supply; over time the pool converges on the largest
            // concurrent helper demand, not the sum over queries.
            for _ in 0..helpers.saturating_sub(st.idle) {
                st.spawned += 1;
                std::thread::Builder::new()
                    .name("pytond-pool".into())
                    .spawn(move || shared().worker_loop())
                    .expect("spawn pool worker");
            }
            self.work_cv.notify_all();
        }
        let guard = JoinGuard {
            pool: self,
            job: &job,
        };
        work();
        drop(guard);
        if job.panicked.load(Ordering::Relaxed) {
            let msg = job
                .panic_msg
                .lock()
                .expect(POISON)
                .take()
                .unwrap_or_else(|| "<unknown>".to_string());
            panic!("morsel worker panicked in job '{}': {}", job.label, msg);
        }
    }

    fn worker_loop(&'static self) {
        let mut st = self.state.lock().expect(POISON);
        loop {
            let next = st
                .jobs
                .iter()
                .find(|j| j.slots.load(Ordering::Relaxed) > 0)
                .cloned();
            match next {
                Some(job) => {
                    job.slots.fetch_sub(1, Ordering::Relaxed);
                    job.active.fetch_add(1, Ordering::Relaxed);
                    drop(st);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if fault::injected(FaultSite::PoolDispatch) {
                            panic!("injected fault: pool-dispatch");
                        }
                        (job.work)()
                    }));
                    st = self.state.lock().expect(POISON);
                    if let Err(payload) = outcome {
                        let msg = panic_message(payload.as_ref());
                        job.panic_msg.lock().expect(POISON).get_or_insert(msg);
                        job.panicked.store(true, Ordering::Relaxed);
                    }
                    job.active.fetch_sub(1, Ordering::Relaxed);
                    self.done_cv.notify_all();
                }
                None => {
                    st.idle += 1;
                    st = self.work_cv.wait(st).expect(POISON);
                    st.idle -= 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------- admission

/// A concurrency gate for whole queries: at most `capacity` tickets are out
/// at once, and [`Admission::admit`] blocks (measuring the wait) until one
/// frees. The serving layer admits every query before execution so a burst
/// of clients degrades into an orderly queue instead of a thread stampede;
/// the measured wait surfaces as `queue wait` in `QueryTrace`. See
/// `docs/SERVING.md`.
#[derive(Debug)]
pub struct Admission {
    /// Maximum concurrently admitted queries; `0` = unlimited (the gate is
    /// a no-op and tickets are free).
    capacity: usize,
    running: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    /// A gate admitting at most `capacity` concurrent holders (`0` =
    /// unlimited).
    pub fn with_capacity(capacity: usize) -> Admission {
        Admission {
            capacity,
            running: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The configured capacity (`0` = unlimited).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquires a ticket, blocking while the gate is full. The returned
    /// ticket records how long this call queued and releases its slot on
    /// drop.
    pub fn admit(&self) -> AdmitTicket<'_> {
        self.admit_within(None)
            .expect("unbounded admit cannot be rejected")
    }

    /// Acquires a ticket, waiting at most `timeout` for the gate to open.
    ///
    /// `None` waits unboundedly (identical to [`admit`](Self::admit)); a
    /// zero timeout rejects immediately when the gate is full. On rejection
    /// the call returns the transient [`Error::Overloaded`] — backpressure
    /// the caller may retry with backoff.
    pub fn admit_within(&self, timeout: Option<Duration>) -> Result<AdmitTicket<'_>> {
        if self.capacity == 0 {
            return Ok(AdmitTicket {
                gate: None,
                queue_wait_ns: 0,
            });
        }
        let start = Instant::now();
        let mut running = self.running.lock().expect(POISON);
        while *running >= self.capacity {
            match timeout {
                None => running = self.freed.wait(running).expect(POISON),
                Some(limit) => {
                    let elapsed = start.elapsed();
                    if elapsed >= limit {
                        return Err(Error::Overloaded(format!(
                            "admission queue wait exceeded {:.1}ms (capacity {})",
                            limit.as_secs_f64() * 1e3,
                            self.capacity,
                        )));
                    }
                    let (guard, _timed_out) = self
                        .freed
                        .wait_timeout(running, limit - elapsed)
                        .expect(POISON);
                    running = guard;
                }
            }
        }
        *running += 1;
        Ok(AdmitTicket {
            gate: Some(self),
            queue_wait_ns: start.elapsed().as_nanos() as u64,
        })
    }
}

/// Proof of admission for one query; the slot frees when this drops.
#[derive(Debug)]
pub struct AdmitTicket<'a> {
    gate: Option<&'a Admission>,
    /// Nanoseconds this query waited for the gate to open (0 when the gate
    /// is unlimited or had room immediately).
    pub queue_wait_ns: u64,
}

impl Drop for AdmitTicket<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            *gate.running.lock().expect(POISON) -= 1;
            gate.freed.notify_one();
        }
    }
}

/// The process-wide admission gate queries pass through before executing:
/// capacity is `PYTOND_ADMIT` when set to a non-negative integer (`0` =
/// unlimited), else `2 ×` [`hardware_threads`]. Read once per process, like
/// [`default_threads`].
pub fn admission() -> &'static Admission {
    static GATE: OnceLock<Admission> = OnceLock::new();
    GATE.get_or_init(|| {
        let capacity = env::integer("PYTOND_ADMIT").map_or(2 * hardware_threads(), |n| n as usize);
        Admission::with_capacity(capacity)
    })
}

/// The process-wide default admission queue-wait bound:
/// `PYTOND_ADMIT_TIMEOUT_MS` when set to a non-negative integer (`0` =
/// reject immediately when the gate is full), else `None` (wait
/// unboundedly, the pre-resilience behavior). Read once per process, like
/// [`default_threads`].
pub fn default_admit_timeout() -> Option<Duration> {
    static CACHED: OnceLock<Option<Duration>> = OnceLock::new();
    *CACHED.get_or_init(|| env::integer("PYTOND_ADMIT_TIMEOUT_MS").map(Duration::from_millis))
}

/// The result of one [`par_morsels`] run: per-morsel outputs in morsel order
/// plus how many morsels each worker claimed (`[total]` on the serial path).
#[derive(Debug)]
pub struct MorselOutcome<T> {
    /// One output per morsel, in ascending morsel order — independent of
    /// which worker produced it.
    pub results: Vec<T>,
    /// Morsels claimed by each worker, indexed by worker id. Length 1 on the
    /// serial (inline) path.
    pub claimed_per_worker: Vec<u64>,
}

/// Runs `f` over the fixed morsel grid of `[0, n)` with `morsel` rows per
/// morsel, on up to `threads` participants (the calling thread + up to
/// `threads − 1` shared-pool helpers) claiming morsels from a shared atomic
/// cursor. `f` receives `(morsel index, row range)`. `label` names the
/// operator and its query context for panic diagnostics (it appears in the
/// re-raised payload if a helper panics).
///
/// Outputs come back in morsel order, so any order-sensitive merge the
/// caller performs (concatenation, partial-aggregate folding) sees the same
/// sequence at every thread count. With `threads <= 1` or a single-morsel
/// grid the closure runs inline — no job is submitted to the pool. When the
/// pool's workers are busy serving other queries, fewer helpers may arrive
/// (the calling thread always participates, so progress is unconditional);
/// the result is still bit-identical because the grid and the stitch order
/// never depend on who claimed what.
///
/// The first error any participant returns is propagated; remaining morsels
/// may or may not have run (their outputs are discarded).
pub fn par_morsels<T, F>(
    threads: usize,
    n: usize,
    morsel: usize,
    label: &str,
    f: F,
) -> Result<MorselOutcome<T>>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T> + Sync,
{
    let morsel = morsel.max(1);
    let count = n.div_ceil(morsel);
    let range = |i: usize| (i * morsel)..((i + 1) * morsel).min(n);
    if threads <= 1 || count <= 1 {
        let mut results = Vec::with_capacity(count);
        for i in 0..count {
            results.push(f(i, range(i))?);
        }
        return Ok(MorselOutcome {
            results,
            claimed_per_worker: vec![count as u64],
        });
    }
    let workers = threads.min(count);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let ordinal = AtomicUsize::new(0);
    let claimed = Mutex::new(vec![0u64; workers]);
    let collected: Mutex<Vec<Vec<(usize, T)>>> = Mutex::new(Vec::new());
    let first_err: Mutex<Option<crate::Error>> = Mutex::new(None);
    let work = || {
        let me = ordinal.fetch_add(1, Ordering::Relaxed);
        let mut local: Vec<(usize, T)> = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            match f(i, range(i)) {
                Ok(t) => local.push((i, t)),
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    let mut slot = first_err.lock().expect(POISON);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
        }
        if let Some(c) = claimed.lock().expect(POISON).get_mut(me) {
            *c = local.len() as u64;
        }
        collected.lock().expect(POISON).push(local);
    };
    shared().run_job(workers - 1, label, &work);
    if let Some(e) = first_err.into_inner().expect(POISON) {
        return Err(e);
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for local in collected.into_inner().expect(POISON) {
        for (i, t) in local {
            slots[i] = Some(t);
        }
    }
    Ok(MorselOutcome {
        results: slots
            .into_iter()
            .map(|s| s.expect("every morsel claimed"))
            .collect(),
        claimed_per_worker: claimed.into_inner().expect(POISON),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    #[test]
    fn morsel_grid_is_thread_count_independent() {
        // The per-morsel outputs (and hence any ordered merge over them)
        // must be identical for every worker count.
        let n = 10_007;
        let serial = par_morsels(1, n, 64, "test", |i, r| Ok((i, r.start, r.end))).unwrap();
        for threads in [2, 3, 7, 16] {
            let par = par_morsels(threads, n, 64, "test", |i, r| Ok((i, r.start, r.end))).unwrap();
            assert_eq!(serial.results, par.results, "threads = {threads}");
            assert_eq!(
                par.claimed_per_worker.iter().sum::<u64>(),
                serial.results.len() as u64
            );
        }
    }

    #[test]
    fn serial_path_spawns_no_workers() {
        let out = par_morsels(1, 100, 10, "test", |_, r| Ok(r.len())).unwrap();
        assert_eq!(out.claimed_per_worker, vec![10]);
        assert_eq!(out.results.iter().sum::<usize>(), 100);
        // Single-morsel grids stay inline even with many threads.
        let out = par_morsels(8, 100, 1000, "test", |_, r| Ok(r.len())).unwrap();
        assert_eq!(out.claimed_per_worker, vec![1]);
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let out = par_morsels(4, 0, 16, "test", |_, _| Ok(1)).unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn errors_propagate_from_workers() {
        let err = par_morsels(4, 1000, 10, "test", |i, _| {
            if i == 57 {
                Err(Error::Exec("boom".into()))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(matches!(err, Error::Exec(_)));
    }

    #[test]
    fn resolve_treats_zero_as_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn admit_within_rejects_when_full() {
        let gate = Admission::with_capacity(1);
        let held = gate.admit();
        let err = gate
            .admit_within(Some(Duration::from_millis(5)))
            .unwrap_err();
        assert!(matches!(err, Error::Overloaded(_)), "{err}");
        assert!(err.is_transient());
        drop(held);
        // Once the slot frees, a bounded admit succeeds.
        assert!(gate.admit_within(Some(Duration::from_millis(5))).is_ok());
    }

    #[test]
    fn admit_within_zero_timeout_rejects_immediately() {
        let gate = Admission::with_capacity(1);
        let held = gate.admit();
        let start = Instant::now();
        assert!(gate.admit_within(Some(Duration::ZERO)).is_err());
        assert!(start.elapsed() < Duration::from_millis(100));
        drop(held);
    }

    #[test]
    fn unlimited_gate_never_rejects() {
        let gate = Admission::with_capacity(0);
        let a = gate.admit_within(Some(Duration::ZERO)).unwrap();
        let b = gate.admit_within(Some(Duration::ZERO)).unwrap();
        assert_eq!(a.queue_wait_ns, 0);
        drop((a, b));
    }

    #[test]
    fn helper_panic_reraise_carries_label_and_message() {
        // Force a pool job where only *helpers* (threads named
        // "pytond-pool") panic; the submitter keeps claiming morsels and
        // must re-raise with the job label and the helper's own message.
        let caught = std::panic::catch_unwind(|| {
            let _ = par_morsels(4, 1000, 1, "probe q@v9", |i, _| {
                if std::thread::current().name() == Some("pytond-pool") {
                    panic!("helper died on morsel {i}");
                }
                // Pace the submitter so helpers have time to join the job.
                std::thread::sleep(Duration::from_micros(100));
                Ok(i)
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("probe q@v9"), "payload: {msg}");
        assert!(msg.contains("helper died on morsel"), "payload: {msg}");
    }
}
