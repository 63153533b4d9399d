//! Measurement helpers of the `figures` binary: system setup, the six
//! evaluated alternatives, and timing helpers following the paper's protocol (warm-up rounds, then the mean of
//! measured rounds — Section V-A).

#![warn(missing_docs)]

use pytond::{Backend, OptLevel, Pytond};
use pytond_common::{Relation, Result};
use pytond_tpch::TpchData;
use pytond_workloads::Workload;
use std::time::Instant;

/// One evaluated alternative (a bar color in the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Interpreted Pandas/NumPy baseline (single-threaded by construction).
    Python,
    /// Grizzly-simulated = PyTond without IR optimizations (O0).
    GrizzlyDuck,
    /// Grizzly-simulated on the Hyper-like profile.
    GrizzlyHyper,
    /// PyTond (O4) on the DuckDB-like profile.
    PytondDuck,
    /// PyTond on the Hyper-like profile.
    PytondHyper,
    /// PyTond on the LingoDB-like profile.
    PytondLingo,
}

impl System {
    /// The six systems in the paper's legend order.
    pub fn all() -> [System; 6] {
        [
            System::Python,
            System::GrizzlyDuck,
            System::GrizzlyHyper,
            System::PytondDuck,
            System::PytondHyper,
            System::PytondLingo,
        ]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            System::Python => "Python",
            System::GrizzlyDuck => "Grizzly/DuckDB",
            System::GrizzlyHyper => "Grizzly/Hyper",
            System::PytondDuck => "PyTond/DuckDB",
            System::PytondHyper => "PyTond/Hyper",
            System::PytondLingo => "PyTond/LingoDB",
        }
    }

    /// Optimization level + backend for compiled systems; `None` = Python.
    pub fn config(self, threads: usize) -> Option<(OptLevel, Backend)> {
        match self {
            System::Python => None,
            System::GrizzlyDuck => Some((OptLevel::O0, Backend::duckdb_sim(threads))),
            System::GrizzlyHyper => Some((OptLevel::O0, Backend::hyper_sim(threads))),
            System::PytondDuck => Some((OptLevel::O4, Backend::duckdb_sim(threads))),
            System::PytondHyper => Some((OptLevel::O4, Backend::hyper_sim(threads))),
            System::PytondLingo => Some((OptLevel::O4, Backend::lingodb_sim(threads))),
        }
    }
}

/// Times `f` with the paper's protocol: `warmups` discarded rounds, then the
/// mean of `rounds` measured ones, in milliseconds. Errors (unsupported
/// backend features) surface as `None`.
pub fn time_ms<T>(warmups: usize, rounds: usize, mut f: impl FnMut() -> Result<T>) -> Option<f64> {
    for _ in 0..warmups {
        if f().is_err() {
            return None;
        }
    }
    let mut total = 0.0;
    for _ in 0..rounds {
        let t = Instant::now();
        if f().is_err() {
            return None;
        }
        total += t.elapsed().as_secs_f64() * 1e3;
    }
    Some(total / rounds as f64)
}

/// Registers the TPC-H dataset into a fresh compiler instance.
pub fn tpch_instance(data: &TpchData) -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    py
}

/// Registers a workload's tables.
pub fn workload_instance(w: &Workload) -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in &w.tables {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    py
}

/// Measures one system on one compiled source (or the provided baseline).
pub fn measure_system(
    system: System,
    threads: usize,
    py: &Pytond,
    source: &str,
    baseline: &dyn Fn() -> Result<Relation>,
    warmups: usize,
    rounds: usize,
) -> Option<f64> {
    match system.config(threads) {
        None => {
            // The `threads` knob does not reach the interpreted baseline:
            // like the paper's Pandas, which "does not support
            // parallelization", it runs on one thread — the flat bar.
            time_ms(warmups, rounds, || baseline().map(|_| ()))
        }
        Some((level, backend)) => {
            // Compile once (outside the timed region, like the paper, which
            // reports query execution on pre-loaded data).
            let compiled = py.compile_at(source, backend.dialect(), level).ok()?;
            time_ms(warmups, rounds, || {
                py.execute(&compiled, &backend).map(|_| ())
            })
        }
    }
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats an optional runtime.
pub fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:10.2}"),
        None => format!("{:>10}", "n/a"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_is_multiplicative_mean() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn systems_enumerate_in_legend_order() {
        let all = System::all();
        assert_eq!(all[0].label(), "Python");
        assert_eq!(all[5].label(), "PyTond/LingoDB");
        assert!(all[0].config(1).is_none());
        assert_eq!(all[3].config(2).unwrap().0, OptLevel::O4);
    }
}
