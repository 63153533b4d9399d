//! The all-workloads run (`result.json` with provenance) and `compare`.

use crate::json::{parse, Json};
use crate::run::{bench_dir, nproc};
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `BENCHMARK.json` at the repository root.
pub fn load_contract() -> Result<Json, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

/// Runs every workload in a child process of its own (so `peak_rss_mb` is
/// that workload's alone), prints each metric by name with its unit and
/// writes `out/result.json`. Returns whether every run was correct.
pub fn run_all(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in NAMES {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            // The child's stderr (progress, layer table) passes through.
            let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result = parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
            let correct = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            println!(
                "== {workload} (trace {}) correct={correct} attempted={} failed={}",
                u8::from(traced),
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            );
            for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
                println!(
                    "  {name:<26} {:>14.4} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                );
            }
            let side = bench_dir()
                .join("out")
                .join(format!("{workload}.trace{}.json", u8::from(traced)));
            let detail = std::fs::read_to_string(&side)
                .ok()
                .and_then(|t| parse(&t).ok())
                .unwrap_or(Json::Null);
            runs.push(Json::obj([("result", result), ("detail", detail)]));
        }
    }
    let doc = Json::obj([
        (
            "provenance",
            Json::obj([
                (
                    "git_rev",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
                ("nproc", Json::Num(nproc() as f64)),
                ("engine_threads", Json::Num(1.0)),
                ("parallel_probe_threads", Json::Num(nproc() as f64)),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(smoke)),
                ("claim", Json::Null),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = bench_dir().join("out").join("result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// One side's evidence for a (metric, workload) pair.
struct Side {
    /// One value per result file.
    values: Vec<f64>,
    /// Within-run quartiles, used when there is a single file.
    within: Option<(f64, f64)>,
}

impl Side {
    fn median(&self) -> f64 {
        median(&self.values)
    }

    fn quartiles(&self) -> (f64, f64) {
        match (self.values.len(), self.within) {
            (1, Some(q)) => q,
            _ => quartiles(&self.values),
        }
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        (q3 - q1) / self.median().abs().max(f64::MIN_POSITIVE)
    }
}

fn side(files: &[Json], workload: &str, metric: &str) -> Side {
    let mut out = Side {
        values: Vec::new(),
        within: None,
    };
    for file in files {
        for run in file.get("runs").map_or(&[][..], Json::as_arr) {
            let detail = run.get("detail");
            let is_mine = detail
                .and_then(|d| d.get("workload"))
                .and_then(Json::as_str)
                == Some(workload)
                && detail.and_then(|d| d.get("trace")) == Some(&Json::Bool(false));
            let value = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            if let (true, Some(v)) = (is_mine, value) {
                out.values.push(v);
                out.within = detail
                    .and_then(|d| d.get("summaries"))
                    .and_then(|s| s.get(metric))
                    .and_then(|s| Some((s.get("q1")?.as_f64()?, s.get("q3")?.as_f64()?)));
            }
        }
    }
    out
}

/// Verdict for one pair given the metric's direction and bound.
pub fn verdict(a: (f64, f64), b: (f64, f64), lower_is_better: bool, bound: f64) -> &'static str {
    let ((a_med, a_spread), (b_med, b_spread)) = (a, b);
    if a_spread > bound || b_spread > bound {
        return "unresolved";
    }
    let worsening = if lower_is_better {
        b_med / a_med - 1.0
    } else {
        a_med / b_med - 1.0
    };
    if worsening > bound {
        "regressed"
    } else if -worsening > bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// `compare A.json B.json [A2.json B2.json …]`: one row per (metric,
/// workload) with both medians, quartiles, the ratio B ÷ A and a verdict
/// from the bounds in `BENCHMARK.json`.
pub fn compare(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() || paths.len() % 2 != 0 {
        return Err("compare takes pairs of result files: A.json B.json [more pairs]".into());
    }
    let contract = load_contract()?;
    let load = |p: &String| -> Result<Json, String> {
        parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (mut a_files, mut b_files) = (Vec::new(), Vec::new());
    for pair in paths.chunks(2) {
        a_files.push(load(&pair[0])?);
        b_files.push(load(&pair[1])?);
    }
    println!(
        "{:<16} {:<13} {:>11} {:>23} {:>11} {:>23} {:>9}  verdict (bound)",
        "metric", "workload", "A median", "A quartiles", "B median", "B quartiles", "B/A"
    );
    for m in contract.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let lower = m.get("better").and_then(Json::as_str) != Some("higher");
        for workload in NAMES {
            let (a, b) = (
                side(&a_files, workload, name),
                side(&b_files, workload, name),
            );
            if a.values.is_empty() || b.values.is_empty() {
                continue;
            }
            let (aq, bq) = (a.quartiles(), b.quartiles());
            println!(
                "{name:<16} {workload:<13} {:>11.4} {:>11.4}..{:<10.4} {:>11.4} {:>11.4}..{:<10.4} {:>9.4}  {} ({bound})",
                a.median(),
                aq.0,
                aq.1,
                b.median(),
                bq.0,
                bq.1,
                b.median() / a.median(),
                verdict(
                    (a.median(), a.spread()),
                    (b.median(), b.spread()),
                    lower,
                    bound
                ),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let tight = 0.01;
        assert_eq!(
            verdict((100.0, tight), (104.0, tight), true, 0.08),
            "unchanged"
        );
        assert_eq!(
            verdict((100.0, tight), (110.0, tight), true, 0.08),
            "regressed"
        );
        assert_eq!(
            verdict((100.0, tight), (90.0, tight), true, 0.08),
            "improved"
        );
        assert_eq!(
            verdict((100.0, tight), (90.0, tight), false, 0.08),
            "regressed"
        );
        assert_eq!(
            verdict((100.0, 0.2), (150.0, tight), true, 0.08),
            "unresolved"
        );
    }
}
