//! The metric catalogue and the result line.
//!
//! Every metric the harness can print is named here once, with its
//! unit. `BENCHMARK.json` lists the same names (a self-test checks
//! that), and the result line always carries the whole catalogue for
//! its mode: a layer a workload never runs reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("records_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.trace_ns", "ns"),
    ("synth.records", "count"),
    ("core.profile.step1_ns", "ns"),
    ("core.profile.step2_ns", "ns"),
    ("core.profile.step1_records", "count"),
    ("core.profile.step2_iterations", "count"),
    ("pool.memo.profiles.hit_ratio", "ratio"),
    ("sim.fixed_sweep_ns", "ns"),
    ("sim.paper.experiments_ns", "ns"),
    ("sim.report_ns", "ns"),
    ("core.kernel.cond_ns_per_record", "ns/record"),
    ("core.kernel.ind_ns_per_record", "ns/record"),
    ("predict.boxed_ns_per_record", "ns/record"),
    ("client.encode_ns_per_record", "ns/record"),
    ("client.decode_ns_per_record", "ns/record"),
    ("serve.parse_ns_per_record", "ns/record"),
    ("serve.apply_batch_ns_per_record", "ns/record"),
    ("serve.apply_sequential_ns_per_record", "ns/record"),
    ("serve.encode_ns_per_record", "ns/record"),
    ("serve.wire_ns_per_batch", "ns"),
    ("serve.backpressure_waits", "count"),
    ("pool.tasks.sharded_per_batch", "count"),
    ("frame.request_bytes_per_record", "B/record"),
    ("frame.response_bytes_per_record", "B/record"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("batch_samples", "count"),
    ("ingest.champsim_decode_ns_per_record", "ns/record"),
    ("compact.encode_ns_per_record", "ns/record"),
    ("compact.decode_ns_per_record", "ns/record"),
    ("compact.bytes_per_record", "B/record"),
    ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"),
    ("tracing_overhead_s", "s"),
    ("attributed_fraction", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failure (the first few), for the report.
    pub problems: Vec<String>,
    /// Measured values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(problem);
            }
        }
    }

    /// Records a metric. The name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(known, _)| *known == name),
            "metric `{name}` is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed and every reported value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.metrics.values().all(|v| v.is_finite())
    }

    /// The human-readable report followed by the one-line JSON result
    /// (always the last line).
    pub fn render(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(&format!("# {line}\n"));
        }
        for problem in &self.problems {
            out.push_str(&format!("# FAILED: {problem}\n"));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "# error_rate {error_rate} ({} of {} checked operations failed)\n",
            self.failed, self.attempted
        ));
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            match self.metrics.get(name) {
                Some(value) => {
                    out.push_str(&format!("{name:<40} {value:>18.6} {unit}\n"));
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*value)
                    ));
                }
                None => {
                    out.push_str(&format!("{name:<40} {:>18} {unit}\n", "n/a"));
                    fields.push(format!("\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"));
                }
            }
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ));
        out
    }
}

/// A finite number in JSON form, with every digit `f64` carries;
/// non-finite values (which `correct` already rejects) print as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(name, _)| *name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn result_line_is_last_and_carries_the_whole_catalogue() {
        let mut outcome = Outcome::default();
        outcome.check(Ok(()));
        outcome.set("wall_s", 1.25);
        outcome.note("context");
        let text = outcome.render(false);
        let last = text.lines().last().unwrap();
        let value = vlpp_trace::json::JsonValue::parse(last).unwrap();
        assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = value.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let wall = value.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check(Err("wrong digest".to_string()));
        assert!(!outcome.correct());
        assert!(outcome.render(true).contains("FAILED: wrong digest"));
    }
}
