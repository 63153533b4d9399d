//! `serving` microbench: multi-client throughput of the snapshot-isolated
//! serving core.
//!
//! N client threads (1/2/4) share one cloned [`Database`] handle and fire a
//! **prepared** TPC-H query in a closed loop while a background appender
//! keeps publishing new `orders` versions — the serving workload the
//! copy-on-append snapshot design exists for. Two query shapes:
//!
//! - `point`: a zone-pruned single-key lookup on `orders` (the prepared
//!   point-query hot path; sub-millisecond per call),
//! - `star`:  a Q3-shaped customer⋈orders⋈lineitem join + group-by (the
//!   heavier star shape).
//!
//! Every round starts from a fresh database at the same version, so rounds
//! are comparable no matter how many appends previous rounds published.
//! Besides the usual `PYTOND_BENCH_JSON` records (round wall time per
//! client count), the bench prints an aggregate queries/sec and p50/p99
//! tail-latency table. When `PYTOND_SERVING_ASSERT=1` **and** the machine
//! has ≥ 4 hardware threads, it asserts 4-client aggregate qps beats
//! 1-client by ≥ 3× on the point query (with appends still concurrent);
//! on smaller runners the assertion self-skips exactly like the scaling
//! bench — four clients timeslicing one core cannot beat one client.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pytond_common::{pool, Relation};
use pytond_sqldb::{Database, EngineConfig, Profile};
use pytond_tpch::TpchData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// TPC-H scale factor: orders ≈ 30 K rows at 0.02 — enough zones for the
/// point lookup to prune, small enough to re-register per round.
const SF: f64 = 0.02;

/// Client-thread counts of the serving ladder.
const CLIENTS: [usize; 3] = [1, 2, 4];

/// Rows per append batch the background writer publishes.
const APPEND_ROWS: usize = 256;

/// Upper bound on appends per round (keeps round-to-round table growth,
/// and therefore round wall time, bounded).
const MAX_APPENDS: usize = 64;

/// Zone-pruned point lookup on the clustered `o_orderkey`.
const POINT_SQL: &str = "SELECT o_totalprice FROM orders WHERE o_orderkey = 1000";

/// Q3-shaped star join + aggregation.
const STAR_SQL: &str = "SELECT o_orderkey, SUM(l_extendedprice * (1.0 - l_discount)) AS rev \
     FROM customer, orders, lineitem \
     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
       AND o_totalprice > 100000.0 \
     GROUP BY o_orderkey ORDER BY rev DESC LIMIT 10";

fn smoke() -> bool {
    std::env::var("PYTOND_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Rows `[start, end)` of a relation as a new relation (the append batch).
fn slice_rel(rel: &Relation, start: usize, end: usize) -> Relation {
    Relation::new(
        rel.columns()
            .iter()
            .map(|(n, c)| (n.clone(), c.slice(start, end)))
            .collect(),
    )
    .unwrap()
}

/// Aggregate result of one serving round.
struct ServeStats {
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    appends: usize,
}

/// One serving round: a fresh database at a fixed version, `clients`
/// looping threads each executing the prepared `sql` `per_client` times
/// (1 engine thread per query — parallelism comes from concurrent
/// clients), plus one background appender publishing new `orders`
/// versions until the clients finish.
fn serve_round(data: &TpchData, sql: &str, clients: usize, per_client: usize) -> ServeStats {
    let db = Database::new();
    pytond_tpch::register_database(&db, data);
    let prepared = db.prepare(sql, Profile::Vectorized).expect("prepare");
    let batch = slice_rel(&data.orders, 0, APPEND_ROWS.min(data.orders.num_rows()));
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let appender = s.spawn(|| {
            let mut published = 0usize;
            while !stop.load(Ordering::Relaxed) && published < MAX_APPENDS {
                db.append("orders", &batch).expect("append");
                published += 1;
                std::thread::yield_now();
            }
            published
        });
        let start = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let t = Instant::now();
                        std::hint::black_box(db.execute_prepared(&prepared, &cfg).unwrap());
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        let mut all: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect();
        let wall = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let appends = appender.join().expect("appender thread");
        all.sort_unstable();
        ServeStats {
            qps: all.len() as f64 / wall.as_secs_f64(),
            p50_ns: all[all.len() / 2],
            p99_ns: all[(all.len() * 99 / 100).min(all.len() - 1)],
            appends,
        }
    })
}

fn serving(c: &mut Criterion) {
    let data = pytond_tpch::generate(SF);
    let (point_n, star_n) = if smoke() { (8, 2) } else { (120, 12) };

    let mut group = c.benchmark_group("serving");
    group.sample_size(2);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    // JSON records: wall time of one full round per (query, client count) —
    // lower is better, and the fixed per-round query budget makes rounds
    // directly comparable against the committed baseline.
    for clients in CLIENTS {
        group.bench_function(BenchmarkId::new("point", format!("{clients}c")), |b| {
            b.iter(|| serve_round(&data, POINT_SQL, clients, point_n))
        });
    }
    for clients in CLIENTS {
        group.bench_function(BenchmarkId::new("star", format!("{clients}c")), |b| {
            b.iter(|| serve_round(&data, STAR_SQL, clients, star_n))
        });
    }
    group.finish();

    // Throughput / tail-latency table from one dedicated round per point.
    println!(
        "\nserving: concurrent clients vs appends ({} hardware threads, admission capacity {})",
        pool::hardware_threads(),
        pool::admission().capacity(),
    );
    let mut point_qps = Vec::new();
    for (label, sql, per_client) in [("point", POINT_SQL, point_n), ("star", STAR_SQL, star_n)] {
        for clients in CLIENTS {
            let stats = serve_round(&data, sql, clients, per_client);
            println!(
                "  {label:<6} {clients}c   {:>9.0} q/s   p50 {:>8.2} ms   p99 {:>8.2} ms   ({} appends)",
                stats.qps,
                stats.p50_ns as f64 / 1e6,
                stats.p99_ns as f64 / 1e6,
                stats.appends,
            );
            if label == "point" {
                point_qps.push(stats.qps);
            }
        }
    }

    // CI gate: on a real multicore runner, 4 clients must serve ≥ 3× the
    // aggregate point-query throughput of 1 client while appends land.
    // Self-skips below 4 hardware threads (see module docs); a failing
    // first measurement is re-taken once from scratch before the gate
    // fires, like the scaling bench.
    let assert_requested = std::env::var("PYTOND_SERVING_ASSERT").is_ok_and(|v| v == "1");
    if assert_requested {
        if pool::hardware_threads() >= 4 {
            let mut ratio = point_qps[CLIENTS.len() - 1] / point_qps[0];
            if ratio < 3.0 {
                let one = serve_round(&data, POINT_SQL, 1, point_n).qps;
                let four = serve_round(&data, POINT_SQL, CLIENTS[CLIENTS.len() - 1], point_n).qps;
                ratio = four / one;
            }
            assert!(
                ratio >= 3.0,
                "serving: 4-client aggregate qps only {ratio:.2}x of 1-client \
                 (≥ 3x required, after one re-measure)"
            );
            println!("serving assertion passed: point 4c/1c qps {ratio:.2}x ≥ 3x");
        } else {
            println!(
                "serving assertion skipped: {} hardware thread(s) < 4",
                pool::hardware_threads()
            );
        }
    }
}

criterion_group!(benches, serving);
criterion_main!(benches);
