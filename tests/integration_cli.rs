//! End-to-end tests of the `vlpp` CLI binary: argument handling, text
//! and JSON output, and error paths.

use std::process::Command;
use std::sync::OnceLock;

fn vlpp() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vlpp"));
    // Isolate from the ambient environment so the knobs under test have
    // known values.
    command.env_remove("VLPP_SCALE").env_remove("VLPP_THREADS");
    command
}

#[test]
fn help_lists_every_experiment() {
    let output = vlpp().arg("--help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    for id in [
        "table1",
        "table2",
        "table3",
        "fig5",
        "fig9",
        "fig10",
        "headline",
        "hfnt",
        "analyze",
        "lengths",
        "ras",
        "frontend",
        "related-cond",
        "ablate-hashes",
        "all",
    ] {
        assert!(text.contains(id), "--help must mention `{id}`");
    }
}

#[test]
fn headline_text_output_contains_paper_reference() {
    let output = vlpp().args(["headline", "--scale", "1000000"]).output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).expect("utf-8");
    assert!(text.contains("== headline =="));
    assert!(text.contains("4.3%"), "the paper column must be present:\n{text}");
    assert!(text.contains("gshare"));
}

#[test]
fn headline_json_output_parses_and_is_consistent() {
    let output =
        vlpp().args(["headline", "--scale", "1000000", "--json"]).output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    let json_start = text.find('{').expect("JSON object in output");
    let value = vlpp_trace::json::JsonValue::parse(text[json_start..].trim()).expect("valid JSON");
    let vlp = value.get("vlp_cond_4kb").and_then(|v| v.as_f64()).expect("vlp rate");
    let gshare = value.get("gshare_cond_4kb").and_then(|v| v.as_f64()).expect("gshare rate");
    assert!(vlp > 0.0 && vlp < 1.0);
    assert!(vlp < gshare, "VLP must beat gshare in the emitted JSON");
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let output = vlpp().arg("nonesuch").output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("unknown experiment"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_experiment_prints_usage() {
    let output = vlpp().output().expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn invalid_vlpp_scale_env_warns_and_falls_back() {
    // Regression test: `VLPP_SCALE=0` used to panic inside
    // `Scale::from_env` before a single experiment ran. It must warn on
    // stderr and keep going.
    let output = vlpp()
        .env("VLPP_SCALE", "0")
        .args(["headline", "--scale", "1000000"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "VLPP_SCALE=0 must not abort the run; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("VLPP_SCALE"), "must warn about the bad value:\n{stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("== headline =="));
}

#[test]
fn valid_vlpp_scale_env_is_used_without_warning() {
    let output = vlpp().env("VLPP_SCALE", "1000000").arg("headline").output().expect("binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("# scale: 1/1000000"), "env scale must apply:\n{stderr}");
    assert!(!stderr.contains("warning"), "a valid value must not warn:\n{stderr}");
}

#[test]
fn json_output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let output = vlpp()
            .env("VLPP_THREADS", threads)
            .args(["fig5", "--json", "--scale", "1000000"])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "VLPP_THREADS={threads} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };
    assert_eq!(run("1"), run("8"), "stdout must not depend on the worker-pool size");
}

/// Stdout of `vlpp all --json --scale 1000000`, run once per test
/// process and shared by the tests that read it.
fn all_json() -> &'static [u8] {
    static STDOUT: OnceLock<Vec<u8>> = OnceLock::new();
    STDOUT.get_or_init(|| {
        let output =
            vlpp().args(["all", "--json", "--scale", "1000000"]).output().expect("binary runs");
        assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
        output.stdout
    })
}

/// The paper reproduction's output is pinned byte for byte: a change
/// that moves any reported figure (or its formatting) must update this
/// digest deliberately. The benchmark harness pins the same digest.
#[test]
fn all_json_output_matches_pinned_digest() {
    let digest = vlpp_trace::compact::fnv1a64(all_json());
    assert_eq!(
        digest, 0xf5fd_2352_b89e_a4f9,
        "`vlpp all --json --scale 1000000` digest {digest:#018x}"
    );
}

#[test]
fn all_json_emits_one_object_keyed_by_experiment() {
    let text = std::str::from_utf8(all_json()).expect("utf-8");
    assert!(!text.contains("== "), "JSON mode must not interleave text headers:\n{text}");
    // The whole stdout is one parseable object, keyed by experiment id
    // in run order.
    let value = vlpp_trace::json::JsonValue::parse(text.trim()).expect("valid JSON");
    let keys: Vec<&str> =
        value.as_object().expect("one object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "fig10",
            "headline", "hfnt"
        ]
    );
    let vlp = value
        .get("headline")
        .and_then(|h| h.get("vlp_cond_4kb"))
        .and_then(|v| v.as_f64())
        .expect("headline payload nests under its id");
    assert!(vlp > 0.0 && vlp < 1.0);
}

#[test]
fn bad_scale_is_rejected() {
    for bad in [&["headline", "--scale", "0"][..], &["headline", "--scale", "x"][..]] {
        let output = vlpp().args(bad).output().expect("binary runs");
        assert!(!output.status.success(), "args {bad:?} must fail");
    }
}
