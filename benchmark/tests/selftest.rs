//! Self-tests of the harness: every workload runs at its tiny size,
//! checks out correct, and prints exactly the metrics `BENCHMARK.json`
//! declares for its mode, with the declared units.
//!
//! The tests build the release `vlpp` binary of the enclosing checkout
//! first (a no-op when it is up to date).

use std::path::{Path, PathBuf};
use std::process::Command;

use vlpp_trace::json::JsonValue;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Builds `vlpp` and returns the executable cargo reports.
fn vlpp_binary() -> PathBuf {
    let output = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "-p", "vlpp-sim", "--bin", "vlpp"])
        .arg("--message-format=json-render-diagnostics")
        .current_dir(repo_root())
        .output()
        .expect("cargo runs");
    assert!(output.status.success(), "building vlpp failed");
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| JsonValue::parse(line).ok())
        .filter(|message| {
            message.get("target").and_then(|t| t.get("name")).and_then(|n| n.as_str())
                == Some("vlpp")
        })
        .find_map(|message| message.get("executable").and_then(|e| e.as_str()).map(PathBuf::from))
        .expect("cargo reports the vlpp executable")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let config = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    config
        .get(key)
        .and_then(|list| list.as_array())
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |name: &str| metric.get(name).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn run_tiny(workload: &str, traced: bool) {
    let work =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{}", u8::from(traced)));
    std::fs::create_dir_all(&work).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_vlpp-benchmark"))
        .arg("--vlpp")
        .arg(vlpp_binary())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", "--work", "."])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("VLPP_THREADS", "2")
        .current_dir(&work)
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload}: harness failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true), "{stdout}");
    assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0), "{stdout}");
    assert!(result.get("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);

    let metrics = result.get("metrics").and_then(|m| m.as_object()).expect("metrics");
    let expected = declared(if traced { "per_layer" } else { "end_to_end" });
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(|v| v.as_f64()).expect("numeric value");
            assert!(value.is_finite(), "{name}");
            (name.clone(), metric.get("unit").and_then(|u| u.as_str()).unwrap().to_string())
        })
        .collect();
    assert_eq!(printed, expected, "{workload}: metrics differ from BENCHMARK.json");
    for (name, _) in &printed {
        assert!(valid_name(name), "{name}");
    }
    if !traced {
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(|v| v.as_f64()).unwrap();
            assert!(value > 0.0, "{workload}: end-to-end metric {name} reads {value}");
        }
    } else {
        let attributed = metrics
            .iter()
            .find(|(name, _)| name == "attributed_fraction")
            .and_then(|(_, m)| m.get("value").and_then(|v| v.as_f64()))
            .unwrap();
        assert!(attributed > 0.0 && attributed <= 1.0, "{workload}: attributed {attributed}");
    }
}

#[test]
fn paper_all_runs_tiny() {
    run_tiny("paper-all", false);
}

#[test]
fn paper_all_traced_runs_tiny() {
    run_tiny("paper-all", true);
}

#[test]
fn serve_closed_runs_tiny() {
    run_tiny("serve-closed", false);
}

#[test]
fn serve_closed_traced_runs_tiny() {
    run_tiny("serve-closed", true);
}

#[test]
fn trace_replay_runs_tiny() {
    run_tiny("trace-replay", false);
}

#[test]
fn trace_replay_traced_runs_tiny() {
    run_tiny("trace-replay", true);
}

#[test]
fn benchmark_json_names_are_well_formed() {
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(key) {
            assert!(valid_name(&name) && name.len() <= 64, "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }
}
