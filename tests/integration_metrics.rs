//! End-to-end tests of `vlpp --metrics`: the metrics channels must be
//! additive — same experiment bytes on stdout plus one `METRICS {json}`
//! line — and the snapshot must carry the documented instruments (see
//! OBSERVABILITY.md).

use std::process::Command;

use vlpp_trace::json::JsonValue;

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    // Isolate from the ambient environment so the knobs under test have
    // known values.
    command.env_remove("VLPP_SCALE").env_remove("VLPP_THREADS");
    command
}

/// Runs `vlpp all --json --scale 1000000` with the given extra args and
/// thread count, returning stdout.
fn run_all(threads: &str, extra: &[&str]) -> String {
    let output = vlpp()
        .env("VLPP_THREADS", threads)
        .args(["all", "--json", "--scale", "1000000"])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "VLPP_THREADS={threads} {extra:?} stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8")
}

/// Drops `METRICS ` lines — what any determinism-sensitive consumer of a
/// `--metrics` run does before diffing.
fn strip_metrics_lines(stdout: &str) -> String {
    stdout.lines().filter(|l| !l.starts_with("METRICS ")).map(|l| format!("{l}\n")).collect()
}

/// Extracts and parses the single `METRICS {json}` line.
fn metrics_snapshot(stdout: &str) -> JsonValue {
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("METRICS ")).collect();
    assert_eq!(lines.len(), 1, "exactly one METRICS line expected:\n{stdout}");
    JsonValue::parse(lines[0].trim_start_matches("METRICS ").trim()).expect("METRICS line parses")
}

#[test]
fn metrics_flag_does_not_change_experiment_bytes() {
    let plain = run_all("1", &[]);
    assert!(!plain.contains("METRICS "), "no METRICS line without --metrics:\n{plain}");
    for threads in ["1", "8"] {
        let with_metrics = run_all(threads, &["--metrics"]);
        assert_eq!(
            strip_metrics_lines(&with_metrics),
            plain,
            "VLPP_THREADS={threads}: stdout minus METRICS lines must be byte-identical \
             to a plain run"
        );
    }
}

#[test]
fn metrics_snapshot_reports_every_layer() {
    let stdout = run_all("2", &["--metrics"]);
    let snapshot = metrics_snapshot(&stdout);
    let object = snapshot.as_object().expect("snapshot is an object");
    assert!(!object.is_empty());

    let counter = |name: &str| {
        snapshot.get(name).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("counter `{name}`"))
    };
    // Core layer: step 1 scanned records and step 2 ran refinement
    // iterations.
    assert!(counter("core.profile.step1_records") > 0);
    assert!(counter("core.profile.step2_iterations") > 0);

    // Step 1 is shared between the Table-2 sweep and the profiles: 183
    // step-1 reads, one run per distinct (benchmark, kind, index bits).
    let step1_reads = counter("pool.memo.step1.hits") + counter("pool.memo.step1.misses");
    assert_eq!(step1_reads, 183);
    assert_eq!(counter("pool.memo.step1.evicted"), 0);
    let step1_runs =
        snapshot.get("sim.step1_ns").and_then(|s| s.get("count")).and_then(|c| c.as_u64());
    assert_eq!(step1_runs, Some(144), "one step-1 run per distinct key");

    // Pool layer: the memoized trace cache was exercised, with at least
    // one hit (every experiment shares gcc traces) and one miss.
    assert!(counter("pool.memo.traces.hits") > 0);
    assert!(counter("pool.memo.traces.misses") > 0);
    let gauge = snapshot.get("pool.queue_depth").expect("pool.queue_depth gauge");
    assert!(gauge.get("value").and_then(|v| v.as_u64()).is_some());
    assert!(gauge.get("high_water").and_then(|v| v.as_u64()).is_some());

    // Sim layer: every phase span recorded at least one sample, and its
    // histogram is internally consistent.
    for span in [
        "sim.experiment_ns",
        "sim.trace_build_ns",
        "sim.step1_ns",
        "sim.profile_ns",
        "sim.simulate_ns",
    ] {
        let histogram = snapshot.get(span).unwrap_or_else(|| panic!("span `{span}`"));
        let count = histogram.get("count").and_then(|v| v.as_u64()).expect("count");
        assert!(count > 0, "span `{span}` must have samples");
        let bucket_total: u64 = histogram
            .get("buckets")
            .and_then(|b| b.as_array())
            .expect("buckets")
            .iter()
            .map(|pair| pair.as_array().expect("pair")[1].as_u64().expect("bucket count"))
            .sum();
        assert_eq!(bucket_total, count, "span `{span}` bucket counts must sum to count");
    }
}

#[test]
fn help_mentions_metrics_flag() {
    let output = vlpp().arg("--help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    assert!(text.contains("--metrics"), "--help must document --metrics:\n{text}");
    assert!(text.contains("OBSERVABILITY.md"), "--help must point at the metric catalog");
}

#[test]
fn metrics_table_goes_to_stderr() {
    let output = vlpp()
        .env("VLPP_THREADS", "1")
        .args(["headline", "--scale", "1000000", "--metrics"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    for name in ["metric", "sim.experiment_ns", "core.profile.step1_records", "pool.tasks.inline"] {
        assert!(stderr.contains(name), "stderr table must list `{name}`:\n{stderr}");
    }
    // The table must not leak into stdout, where it would break JSON
    // consumers.
    assert!(!String::from_utf8_lossy(&output.stdout).contains("sim.experiment_ns  "));
}
