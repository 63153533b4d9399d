//! Offline stand-in for the `criterion` crate (see `shims/README.md`).
//!
//! Implements the subset the `pytond-bench` micro-benches use: benchmark
//! groups with `sample_size`/`warm_up_time`/`measurement_time`,
//! `bench_function`/`bench_with_input`, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros. Each benchmark runs one
//! warm-up iteration plus `sample_size` timed iterations and reports the
//! mean; no statistical machinery.
//!
//! Environment knobs (used by CI):
//! - `PYTOND_BENCH_SMOKE=1` — cap every benchmark at 2 timed iterations
//!   with no warm-up, so the whole suite finishes in seconds.
//! - `PYTOND_BENCH_JSON=<path>` — additionally write the results as a
//!   JSON array of `{group, bench, iters, mean_ns}` objects.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// One recorded measurement.
#[derive(Debug, Clone)]
struct Sample {
    group: String,
    bench: String,
    iters: u64,
    mean_ns: f64,
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    samples: Vec<Sample>,
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Print the summary table and honor `PYTOND_BENCH_JSON`.
    pub fn final_summary(&self) {
        println!("{:<28} {:<44} {:>12}", "group", "benchmark", "mean");
        for s in &self.samples {
            println!(
                "{:<28} {:<44} {:>12}",
                s.group,
                s.bench,
                format_ns(s.mean_ns)
            );
        }
        if let Ok(path) = std::env::var("PYTOND_BENCH_JSON") {
            let mut out = String::from("[\n");
            for (i, s) in self.samples.iter().enumerate() {
                out.push_str(&format!(
                    "  {{\"group\": {:?}, \"bench\": {:?}, \"iters\": {}, \"mean_ns\": {:.1}}}{}\n",
                    s.group,
                    s.bench,
                    s.iters,
                    s.mean_ns,
                    if i + 1 == self.samples.len() { "" } else { "," }
                ));
            }
            out.push_str("]\n");
            if let Err(e) = std::fs::write(&path, out) {
                eprintln!("criterion shim: failed to write {path}: {e}");
            } else {
                eprintln!("criterion shim: wrote {path}");
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn smoke() -> bool {
    std::env::var("PYTOND_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the shim always warms up with a
    /// single iteration.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim times a fixed number of
    /// iterations instead of filling a time budget.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, |b| f(b));
        self
    }

    /// Benchmark a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, |b| f(b, input));
        self
    }

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        let iters = if smoke() { 2 } else { self.sample_size as u64 };
        let mut bencher = Bencher {
            iters,
            warmup: !smoke(),
            elapsed: Duration::ZERO,
            timed: 0,
        };
        f(&mut bencher);
        let mean_ns = if bencher.timed == 0 {
            0.0
        } else {
            bencher.elapsed.as_nanos() as f64 / bencher.timed as f64
        };
        self.criterion.samples.push(Sample {
            group: self.name.clone(),
            bench: id.label,
            iters: bencher.timed,
            mean_ns,
        });
    }

    /// End the group (all work already happened eagerly).
    pub fn finish(&mut self) {}
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`, as rendered by real criterion.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    warmup: bool,
    elapsed: Duration,
    timed: u64,
}

impl Bencher {
    /// Run the routine once as warm-up, then time the configured number
    /// of iterations.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.warmup {
            std::hint::black_box(routine());
        }
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.timed += self.iters;
    }
}

/// Bundle benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running the given groups and printing the summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); the
            // shim has no CLI of its own and ignores them.
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let input = 21u64;
        group.bench_with_input(BenchmarkId::new("double", "21"), &input, |b, &n| {
            b.iter(|| n * 2)
        });
        group.bench_function(BenchmarkId::new("noop", 0), |b| b.iter(|| ()));
        group.finish();
    }

    #[test]
    fn records_samples() {
        let mut c = Criterion::default();
        work(&mut c);
        assert_eq!(c.samples.len(), 2);
        assert_eq!(c.samples[0].label_for_test(), "g double/21");
        assert!(c.samples.iter().all(|s| s.iters >= 1));
    }

    impl Sample {
        fn label_for_test(&self) -> String {
            format!("{} {}", self.group, self.bench)
        }
    }
}
