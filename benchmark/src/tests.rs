//! Harness self-tests that span modules: the contract in `BENCHMARK.json`,
//! the build profile, the command line, and a smoke run of every workload.

use crate::json::{parse, Json};
use crate::run::{run, RunArgs};
use crate::workloads::NAMES;
use crate::{knob_in, parse_cli, DEFAULT_SECONDS};

fn repo_file(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

fn contract() -> Json {
    parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    let entries = contract.get(key).map_or(&[][..], Json::as_arr);
    let name = |e: &Json| e.get("name").and_then(Json::as_str).map(String::from);
    entries.iter().filter_map(name).collect()
}

/// The `[profile.release]` settings of a manifest, comments dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or_default().trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_product_build() {
    let mine = release_profile(&repo_file("benchmark/Cargo.toml"));
    assert_eq!(mine, release_profile(&repo_file("Cargo.toml")));
    assert_eq!(mine, ["lto = \"thin\"", "codegen-units = 1"]);
}

#[test]
fn contract_names_the_harness_as_built() {
    let c = contract();
    let keys: Vec<&str> = c.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys, expected);
    assert_eq!(names(&c, "workloads"), NAMES);
    assert_eq!(
        c.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert!(names(&c, "end_to_end").contains(&"setup_s".to_string()));
    for w in c.get("workloads").map_or(&[][..], Json::as_arr) {
        let why = w.get("why").and_then(Json::as_str).unwrap_or_default();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for m in c.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(1.0);
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

/// Every workload, untraced and traced, at the smoke sizes: outputs verify,
/// and the metrics are exactly the ones `BENCHMARK.json` names.
#[test]
fn smoke_runs_report_the_contracted_metrics() {
    let c = contract();
    for workload in NAMES {
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.3,
                trace,
                smoke: true,
            };
            let outcome = run(&args).expect("smoke run completes");
            assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
            assert!(outcome.attempted > 0);
            let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(got, names(&c, key), "{workload} trace={trace}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                assert!(trace || m.value > 0.0, "{workload}: {} is zero", m.name);
            }
            // Units agree with the contract too.
            for (m, entry) in outcome
                .metrics
                .iter()
                .zip(c.get(key).map_or(&[][..], Json::as_arr))
            {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            }
            assert_eq!(trace, !outcome.spans.is_empty());
        }
    }
}

#[test]
fn traced_smoke_run_covers_views_and_compile_closure() {
    let args = RunArgs {
        workload: "serve_append".into(),
        seed: 7,
        seconds: 0.3,
        trace: true,
        smoke: true,
    };
    let outcome = run(&args).expect("smoke run completes");
    let value = |name: &str| {
        let m = outcome.metrics.iter().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("{name} missing")).value
    };
    assert!(value("closure_pct") > 50.0);
    assert!(value("mv.refresh_ms") > 0.0);
    assert!((0.0..=1.0).contains(&value("mv.delta_ratio")));
    assert!(value("core.prepare_us") > 0.0);
    assert!(value("sqldb.append_bare_ms") > 0.0);
    let refreshes = outcome.spans.iter().filter(|s| s.name == "mv.refresh");
    assert!(refreshes.count() >= 3);
}

#[test]
fn command_line_is_the_contracts() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let cli = parse_cli(&args("--workload tpch --seed 9 --seconds 2.5 --trace 1")).unwrap();
    assert_eq!(cli.workload.as_deref(), Some("tpch"));
    assert_eq!((cli.seed, cli.seconds, cli.trace), (9, Some(2.5), true));
    assert!(parse_cli(&args("--trace 2")).is_err());
    assert!(parse_cli(&args("--seconds 0")).is_err());
    assert!(parse_cli(&args("--threads 4")).is_err());
    assert!(parse_cli(&args("--seed")).is_err());
}

#[test]
fn engine_knobs_in_the_environment_are_refused() {
    let env = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    assert_eq!(knob_in(env(&["PATH", "HOME"])), None);
    assert_eq!(
        knob_in(env(&["PATH", "PYTOND_NO_FUSE"])),
        Some("PYTOND_NO_FUSE".to_string())
    );
}
