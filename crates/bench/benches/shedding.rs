//! `shedding` microbench: tail latency and shed rate of bounded admission
//! under oversubscription.
//!
//! Eight client threads fire a prepared aggregation in a closed loop
//! through an [`Admission`] gate of capacity 1/2/4 with a short queue-wait
//! bound — the load-shedding configuration of `docs/RESILIENCE.md`
//! (`PYTOND_ADMIT` × `PYTOND_ADMIT_TIMEOUT_MS`). A gate that sheds keeps
//! the latency of the queries it *does* admit flat: the table printed per
//! capacity shows served q/s, p50/p99 latency of admitted queries, and the
//! shed (error) rate. The usual `PYTOND_BENCH_JSON` records capture round
//! wall time per capacity for the CI bench gate.
//!
//! The gates here are local `Admission` instances rather than the
//! process-global one: the global gate reads `PYTOND_ADMIT` once per
//! process, so one bench process could not sweep three capacities through
//! it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pytond_common::pool::Admission;
use pytond_common::Error;
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::time::{Duration, Instant};

/// TPC-H scale factor (orders ≈ 30 K rows): a mid-weight aggregation, so
/// a full gate genuinely queues.
const SF: f64 = 0.02;

/// Admission capacities of the shedding ladder.
const CAPACITIES: [usize; 3] = [1, 2, 4];

/// Oversubscription: client threads racing for the gate.
const CLIENTS: usize = 8;

/// Queue-wait bound: waits longer than this shed with `Error::Overloaded`.
const ADMIT_WAIT: Duration = Duration::from_millis(2);

/// Mid-weight grouped aggregation over `orders`.
const AGG_SQL: &str =
    "SELECT o_custkey, SUM(o_totalprice) AS s, COUNT(*) AS n FROM orders GROUP BY o_custkey";

fn smoke() -> bool {
    pytond_common::env::flag("PYTOND_BENCH_SMOKE")
}

/// Outcome of one oversubscribed round at a fixed admission capacity.
struct ShedStats {
    served_qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    shed_rate: f64,
}

/// One round: [`CLIENTS`] threads each make `per_client` attempts; every
/// attempt either passes the bounded gate and executes the prepared query
/// (latency recorded, admission wait included) or sheds with the transient
/// `Overloaded` (counted into the error rate).
fn shed_round(db: &Database, capacity: usize, per_client: usize) -> ShedStats {
    let prepared = db.prepare(AGG_SQL, Profile::Vectorized).expect("prepare");
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let gate = Admission::with_capacity(capacity);
    let start = Instant::now();
    let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut ok_lat = Vec::with_capacity(per_client);
                    let mut sheds = 0usize;
                    for _ in 0..per_client {
                        let t = Instant::now();
                        match gate.admit_within(Some(ADMIT_WAIT)) {
                            Ok(ticket) => {
                                std::hint::black_box(
                                    db.execute_prepared(&prepared, &cfg).expect("query"),
                                );
                                drop(ticket);
                                ok_lat.push(t.elapsed().as_nanos() as u64);
                            }
                            Err(e) => {
                                assert!(matches!(e, Error::Overloaded(_)), "{e}");
                                sheds += 1;
                            }
                        }
                    }
                    (ok_lat, sheds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut ok: Vec<u64> = results
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let sheds: usize = results.iter().map(|(_, s)| s).sum();
    let attempts = CLIENTS * per_client;
    ok.sort_unstable();
    // A zero-capacity round (impossible here) would divide by zero; every
    // ladder rung admits at least the holders of its `capacity` slots.
    assert!(!ok.is_empty(), "no query was ever admitted");
    ShedStats {
        served_qps: ok.len() as f64 / wall.as_secs_f64(),
        p50_ns: ok[ok.len() / 2],
        p99_ns: ok[(ok.len() * 99 / 100).min(ok.len() - 1)],
        shed_rate: sheds as f64 / attempts as f64,
    }
}

fn shedding(c: &mut Criterion) {
    let data = pytond_tpch::generate(SF);
    let db = Database::new();
    pytond_tpch::register_database(&db, &data);
    let per_client = if smoke() { 6 } else { 60 };

    let mut group = c.benchmark_group("shedding");
    group.sample_size(2);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    for capacity in CAPACITIES {
        group.bench_function(
            BenchmarkId::new("oversub_8c", format!("cap{capacity}")),
            |b| b.iter(|| shed_round(&db, capacity, per_client)),
        );
    }
    group.finish();

    // Dedicated rounds for the latency/error-rate table: the point of
    // bounded admission is that p99 of *admitted* queries stays flat while
    // the shed rate absorbs the overload.
    println!(
        "\nshedding: {CLIENTS} clients vs admission capacity (queue wait bound {ADMIT_WAIT:?})"
    );
    for capacity in CAPACITIES {
        let stats = shed_round(&db, capacity, per_client);
        println!(
            "  cap {capacity}   {:>9.0} q/s served   p50 {:>8.2} ms   p99 {:>8.2} ms   shed rate {:>5.1}%",
            stats.served_qps,
            stats.p50_ns as f64 / 1e6,
            stats.p99_ns as f64 / 1e6,
            stats.shed_rate * 100.0,
        );
    }
}

criterion_group!(benches, shedding);
criterion_main!(benches);
