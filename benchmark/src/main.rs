//! End-to-end + per-layer benchmark harness for the PyTond reproduction.
//! See `README.md` beside this package for the metrics, the workloads and
//! how to run an A/B.
//!
//! ```text
//! pytond-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pytond-benchmark [--seed <n>] [--seconds <s>] [--trace 1] [--smoke]   # every workload
//! pytond-benchmark compare A.json B.json [A2.json B2.json …]
//! pytond-benchmark freeze                                                # expected/*.seed42.json
//! ```

mod ingest;
mod json;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use json::Json;
use std::process::ExitCode;

/// Timed seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json` (a self-test asserts it).
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: verify::FROZEN_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// The harness measures the product's defaults: a `PYTOND_*` knob in the
/// environment would silently measure something else.
fn knob_in(names: impl IntoIterator<Item = String>) -> Option<String> {
    names.into_iter().find(|k| k.starts_with("PYTOND_"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pytond-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let env = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Some(knob) = knob_in(env) {
        return Err(format!(
            "refusing to run with {knob} set: unset every PYTOND_* variable"
        ));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return report::compare(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("freeze") => {
            return verify::freeze()
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| e.to_string())
        }
        _ => {}
    }
    let cli = parse_cli(&args)?;
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let Some(workload) = cli.workload else {
        let ok = report::run_all(cli.seed, seconds, cli.trace, cli.smoke)?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let args = run::RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = run::run(&args)?;
    run::write_outputs(&args, &outcome).map_err(|e| format!("writing out/: {e}"))?;
    // The result line carries correctness; the exit code stays 0 whenever
    // a result was produced.
    let line = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            outcome.detail.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]);
    for m in &outcome.metrics {
        eprintln!("{:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests;
