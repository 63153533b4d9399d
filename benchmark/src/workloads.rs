//! The four workloads: seeded datasets, program lists, independent
//! baselines and the ingest stream each one runs beside its reads. Why each
//! exists is recorded in `BENCHMARK.json` and `README.md`.

use pytond::{Backend, OptLevel, Pytond};
use pytond_common::{Relation, Result};
use pytond_ndarray::{einsum, Coo};
use pytond_tpch::{generate_seeded, TpchData};
use pytond_workloads::{covariance as cov, hybrid, WorkloadTable};

pub const NAMES: [&str; 4] = ["tpch", "datasci", "compile_cold", "serve_append"];

/// Data sizes. The regular sizes keep every run (set-up, warm-up, the timed
/// seconds and a live baseline) inside the driver's time cap on a 2-thread
/// box while leaving data work, not fixed overhead, dominant on `tpch` and
/// `datasci`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub tpch_sf: f64,
    pub datasci_scale: usize,
    pub cov_rows: usize,
    pub cold_sf: f64,
    pub serve_sf: f64,
}

impl Sizing {
    pub const REGULAR: Sizing = Sizing {
        tpch_sf: 0.05,
        datasci_scale: 10,
        cov_rows: 50_000,
        cold_sf: 0.01,
        serve_sf: 0.05,
    };
    /// `--smoke`: every code path, seconds of wall time.
    pub const SMOKE: Sizing = Sizing {
        tpch_sf: 0.002,
        datasci_scale: 1,
        cov_rows: 2_000,
        cold_sf: 0.002,
        serve_sf: 0.002,
    };
}

/// A borrowed table: name, rows, unique keys.
pub type TableRef<'a> = (&'static str, &'a Relation, Vec<Vec<&'static str>>);

/// The tables of one `Pytond` instance, held in whichever shape the
/// generator and the baselines share (so the harness keeps one copy).
pub enum Data {
    Tpch(TpchData),
    Tables(Vec<WorkloadTable>),
}

impl Data {
    pub fn tables(&self) -> Vec<TableRef<'_>> {
        match self {
            Data::Tpch(d) => d.tables(),
            Data::Tables(ts) => ts.iter().map(|(n, r, u)| (*n, r, u.clone())).collect(),
        }
    }

    pub fn rows(&self) -> usize {
        self.tables().iter().map(|t| t.1.num_rows()).sum()
    }
}

type Baseline = Box<dyn Fn(&Data) -> Result<Relation> + Send + Sync>;

/// One `@pytond` program, the instance it runs on, and its interpreted
/// reference.
pub struct Program {
    pub name: String,
    pub source: &'static str,
    /// Index into [`Workload::data`].
    pub db: usize,
    pub baseline: Baseline,
    /// Drop generated id columns before fingerprinting.
    pub strip_ids: bool,
}

/// A standing view registered before the ingest phase.
pub enum View {
    /// Through `Pytond::register_view` (the `@pytond` front door).
    Source(&'static str, &'static str),
    /// Through `Database::register_view` (plain SQL).
    Sql(&'static str, &'static str),
}

impl View {
    pub fn name(&self) -> &'static str {
        match self {
            View::Source(n, _) | View::Sql(n, _) => n,
        }
    }

    /// Registers this view on `py`; views registered from `@pytond` source
    /// refresh on `backend`.
    pub fn register(&self, py: &Pytond, backend: &Backend) -> Result<()> {
        match self {
            View::Source(name, source) => py.register_view(name, source, backend),
            View::Sql(name, sql) => py.database().register_view(name, sql),
        }
    }
}

/// The write path of a workload: batches appended to one table while
/// `reads` run through `Pytond::run`.
pub struct Ingest {
    pub db: usize,
    pub table: &'static str,
    pub batches: Vec<Relation>,
    /// Indices into [`Workload::programs`], cycled by the readers.
    pub reads: Vec<usize>,
    pub views: Vec<View>,
    /// `true`: `max(1, nproc - 1)` closed-loop reader threads run beside the
    /// closed-loop writer, each on one engine thread. `false`: one client
    /// alternates append and read on the default configuration.
    pub concurrent: bool,
}

/// What one pass of the sweep phase does with each program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `Pytond::execute` on a carried `Compiled`.
    Execute,
    /// `Pytond::compile_at` at every level in [`Workload::levels`].
    Compile,
}

pub struct Workload {
    pub name: &'static str,
    pub scale: String,
    pub data: Vec<Data>,
    pub programs: Vec<Program>,
    pub pass: Pass,
    /// Optimization levels of the compile list (programs × levels).
    pub levels: Vec<OptLevel>,
    /// Share of the timed seconds spent sweeping; the rest ingests.
    pub sweep_share: f64,
    pub ingest: Ingest,
}

pub fn build(name: &str, seed: u64, size: &Sizing) -> Option<Workload> {
    Some(match name {
        "tpch" => tpch(seed, size),
        "datasci" => datasci(seed, size),
        "compile_cold" => compile_cold(seed, size),
        "serve_append" => serve_append(seed, size),
        _ => return None,
    })
}

fn tpch_programs(ids: impl IntoIterator<Item = usize>, db: usize) -> Vec<Program> {
    ids.into_iter()
        .map(|id| {
            let q = pytond_tpch::query(id);
            Program {
                name: q.name.to_string(),
                source: q.source,
                db,
                baseline: Box::new(move |d| match d {
                    Data::Tpch(t) => q.run_baseline(t),
                    Data::Tables(_) => unreachable!("TPC-H programs run on TPC-H data"),
                }),
                strip_ids: false,
            }
        })
        .collect()
}

/// Batches an ingest stream is cut into. Each is appended at most once, so
/// the table at most doubles over a run and append cost (O(table) today)
/// stays within a factor of two of where it started, whatever the table.
const BATCHES: usize = 300;

/// `lineitem` rows of a second dataset (same key ranges, next seed) cut into
/// append batches. `lineitem` declares no unique key, so appends never break
/// a constraint the optimizer relies on.
fn lineitem_batches(sf: f64, seed: u64) -> Vec<Relation> {
    batches(&generate_seeded(sf, seed.wrapping_add(1)).lineitem)
}

fn batches(rel: &Relation) -> Vec<Relation> {
    let rows = (rel.num_rows() / BATCHES).max(1);
    (0..rel.num_rows() / rows)
        .map(|i| {
            let cols = rel
                .columns()
                .iter()
                .map(|(n, c)| (n.clone(), c.slice(i * rows, (i + 1) * rows)))
                .collect();
            Relation::new(cols).expect("sliced columns stay rectangular")
        })
        .collect()
}

fn datasci_programs(
    scale: usize,
    cov_rows: usize,
    seed: u64,
    data: &mut Vec<Data>,
) -> Vec<Program> {
    let mut programs = Vec::new();
    for w in pytond_workloads::all_workloads(scale) {
        let baseline = w.baseline;
        programs.push(Program {
            name: w.name.to_string(),
            source: w.source,
            db: data.len(),
            baseline: Box::new(move |d| match d {
                Data::Tables(t) => baseline(t),
                Data::Tpch(_) => unreachable!("notebook programs run on their own tables"),
            }),
            strip_ids: w.ignore_id_cols,
        });
        data.push(Data::Tables(w.tables));
    }
    // Figure 9: covariance of a fully dense matrix through the dense layout,
    // and of a 10 %-dense one through the COO layout.
    let dense = cov::gen_matrix(cov_rows, 16, 1.0, seed);
    programs.push(Program {
        name: "Covariance dense".into(),
        source: cov::covariance_dense_source(),
        db: data.len(),
        baseline: {
            let m = dense.clone();
            Box::new(move |_| hybrid::matrix_relation(&einsum("ij,ik->jk", &[&m, &m])?))
        },
        strip_ids: true,
    });
    data.push(Data::Tables(vec![(
        "m",
        cov::dense_relation(&dense),
        vec![vec!["__id"]],
    )]));
    let sparse = cov::gen_matrix(cov_rows * 2, 16, 0.1, seed.wrapping_add(1));
    programs.push(Program {
        name: "Covariance sparse".into(),
        source: cov::covariance_sparse_source(),
        db: data.len(),
        baseline: {
            let m = sparse.clone();
            Box::new(
                move |_| Ok(Coo::from_dense(&Coo::from_dense(&m)?.covariance())?.to_relation()),
            )
        },
        strip_ids: false,
    });
    data.push(Data::Tables(vec![(
        "m",
        cov::sparse_relation(&sparse),
        vec![],
    )]));
    programs
}

fn tpch(seed: u64, size: &Sizing) -> Workload {
    Workload {
        name: "tpch",
        scale: format!("sf={}", size.tpch_sf),
        data: vec![Data::Tpch(generate_seeded(size.tpch_sf, seed))],
        programs: tpch_programs(1..=22, 0),
        pass: Pass::Execute,
        levels: vec![OptLevel::O4],
        sweep_share: 0.8,
        ingest: Ingest {
            db: 0,
            table: "lineitem",
            batches: lineitem_batches(size.tpch_sf, seed),
            reads: vec![5, 13, 21],
            views: vec![],
            concurrent: false,
        },
    }
}

fn datasci(seed: u64, size: &Sizing) -> Workload {
    let mut data = Vec::new();
    let programs = datasci_programs(size.datasci_scale, size.cov_rows, seed, &mut data);
    // Ingest into Crime Index's `cities` (strings + floats, no unique key):
    // the batches are a second copy of the table cut up.
    let cities = &pytond_workloads::crime_tables(size.datasci_scale)[0].1;
    Workload {
        name: "datasci",
        scale: format!("scale={} cov_rows={}", size.datasci_scale, size.cov_rows),
        data,
        programs,
        pass: Pass::Execute,
        levels: vec![OptLevel::O4],
        sweep_share: 0.8,
        ingest: Ingest {
            db: 0,
            table: "cities",
            batches: batches(cities),
            reads: vec![0],
            views: vec![],
            concurrent: false,
        },
    }
}

fn compile_cold(seed: u64, size: &Sizing) -> Workload {
    let mut data = vec![Data::Tpch(generate_seeded(size.cold_sf, seed))];
    let mut programs = tpch_programs(1..=22, 0);
    programs.extend(datasci_programs(1, 1_000, seed, &mut data));
    Workload {
        name: "compile_cold",
        scale: format!("sf={} scale=1", size.cold_sf),
        data,
        programs,
        pass: Pass::Compile,
        levels: OptLevel::all().to_vec(),
        sweep_share: 0.8,
        ingest: Ingest {
            db: 0,
            table: "lineitem",
            batches: lineitem_batches(size.cold_sf, seed),
            reads: vec![5, 13, 21],
            views: vec![],
            concurrent: false,
        },
    }
}

/// Plain-SQL standing aggregate: a single mergeable aggregate over a filter,
/// the shape the delta path maintains without recomputing.
const REVENUE_SQL: &str = "SELECT COUNT(*) AS n, SUM(l_extendedprice * l_discount) AS revenue \
     FROM lineitem WHERE l_quantity < 24.0";

fn serve_append(seed: u64, size: &Sizing) -> Workload {
    Workload {
        name: "serve_append",
        scale: format!("sf={}", size.serve_sf),
        data: vec![Data::Tpch(generate_seeded(size.serve_sf, seed))],
        programs: tpch_programs([6, 14, 22], 0),
        pass: Pass::Execute,
        levels: vec![OptLevel::O4],
        sweep_share: 0.25,
        ingest: Ingest {
            db: 0,
            table: "lineitem",
            batches: lineitem_batches(size.serve_sf, seed),
            reads: vec![0, 1, 2],
            views: vec![
                View::Source("v_q6", pytond_tpch::query(6).source),
                View::Source("v_q1", pytond_tpch::query(1).source),
                View::Sql("v_revenue", REVENUE_SQL),
            ],
            concurrent: true,
        },
    }
}
