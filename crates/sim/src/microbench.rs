//! `vlpp microbench` — predictions-per-second microbenchmarks of the
//! hot loop, comparing the direct-definition reference predictor
//! (boxed, per-record trait dispatch, a THB re-hashed on every lookup)
//! against the kernel on identical traces and configurations.
//!
//! Four benches run, each printed as one `BENCH {json}` line (the same
//! stream `scripts/bench_record.sh` collects and `vlpp-metrics-check
//! --bench` gates against `BENCH_baseline.json`):
//!
//! * `kernel/cond_boxed` / `kernel/cond_soa` — the conditional path
//!   predictor through `run_conditional` over a
//!   `Box<dyn ConditionalPredictor>` vs through the fused
//!   [`CondKernel`](vlpp_core::CondKernel) loop;
//! * `kernel/ind_boxed` / `kernel/ind_soa` — the indirect analogue.
//!
//! The SoA lines carry two extra fields the plain harness lines don't:
//! `records_per_sec` (derived from the median iteration) and
//! `speedup_vs_boxed` (boxed median over SoA median) — the floor-gated
//! throughput contract. The differential suite guarantees both sides
//! compute the same thing, so the comparison is cost, not quality.

use vlpp_check::{BenchConfig, BenchReport};
use vlpp_core::{HashAssignment, PathConditional, PathConfig, PathIndirect};
use vlpp_predict::{ConditionalPredictor, IndirectPredictor};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord, Trace, VlppError};

use crate::runner::{run_conditional, run_indirect, run_path_conditional, run_path_indirect};

const USAGE: &str = "\
usage: vlpp microbench [--records N]

options:
  --records N  dynamic branches per benchmark iteration (default 200000)

environment:
  VLPP_BENCH_WARMUP / VLPP_BENCH_ITERS  harness iteration counts
";

/// Number of distinct static conditional branches in the synthetic
/// workload — enough to exceed the reference's hash-map fast paths and
/// exercise the kernel's pc cache realistically.
const STATIC_BRANCHES: u64 = 500;

/// Index widths: the paper's 16 KB conditional / 2 KB indirect budgets.
const COND_INDEX_BITS: u32 = 14;
const IND_INDEX_BITS: u32 = 9;

/// A deterministic kind-pure trace: every record a conditional (or
/// indirect) over [`STATIC_BRANCHES`] pcs with pseudo-random outcomes
/// and targets. Kind-pure on purpose — mixing kinds would measure the
/// data-dependent `is_conditional` branch misprediction in *both*
/// loops, not the per-prediction cost this bench gates (the mixed-kind
/// protocol is covered by the differential suite instead).
fn synthetic_trace(records: usize, indirect: bool, seed: u64) -> Trace {
    let mut x = seed | 1;
    let mut trace = Trace::new();
    for _ in 0..records {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pc = Addr::new(0x1_0000 | ((x >> 40) % STATIC_BRANCHES) << 2);
        let target = Addr::new(0x8_0000 | ((x >> 20) & 0x3ff) << 2);
        let record = if indirect {
            BranchRecord::indirect(pc, target)
        } else {
            BranchRecord::conditional(pc, target, (x >> 5) & 1 == 1)
        };
        trace.push(record);
    }
    trace
}

/// The variable-length assignment both sides run: a fixed default plus
/// an explicit spread of every hash length 1..=32 over the static
/// branches, matching the shape a profiled assignment produces.
fn spread_assignment() -> HashAssignment {
    let mut assignment = HashAssignment::fixed(12);
    for i in 0..STATIC_BRANCHES {
        assignment.assign(Addr::new(0x1_0000 | i << 2), (i % 32 + 1) as u8);
    }
    assignment
}

/// Prints `report`'s `BENCH` line with the throughput fields appended:
/// `records_per_sec` always, `speedup_vs_boxed` when a boxed median is
/// given.
fn print_with_throughput(report: &BenchReport, records: usize, boxed_median_ns: Option<u64>) {
    let mut json = report.to_json();
    if let JsonValue::Object(fields) = &mut json {
        let per_sec = if report.median_ns == 0 {
            0
        } else {
            (records as f64 * 1e9 / report.median_ns as f64) as u64
        };
        fields.push(("records_per_sec".to_string(), JsonValue::UInt(per_sec)));
        if let Some(boxed) = boxed_median_ns {
            let speedup =
                if report.median_ns == 0 { 0.0 } else { boxed as f64 / report.median_ns as f64 };
            fields.push(("speedup_vs_boxed".to_string(), JsonValue::Float(speedup)));
        }
    }
    println!("BENCH {}", json.to_json_string());
}

/// Times `f` without printing (the augmented line is printed by the
/// caller), using the same robust-median protocol as
/// [`vlpp_check::bench`].
fn time_silently<T>(name: &str, config: BenchConfig, mut f: impl FnMut() -> T) -> BenchReport {
    use std::hint::black_box;
    use std::time::Instant;
    for _ in 0..config.warmup {
        black_box(f());
    }
    let iters = config.iters.max(1);
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let median = if samples.len() % 2 == 1 {
        samples[samples.len() / 2]
    } else {
        (samples[samples.len() / 2 - 1] + samples[samples.len() / 2]) / 2
    };
    let mut deviations: Vec<u64> = samples.iter().map(|&s| s.abs_diff(median)).collect();
    deviations.sort_unstable();
    BenchReport {
        name: name.to_string(),
        iters,
        median_ns: median,
        mad_ns: deviations[deviations.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

/// Entry point for `vlpp microbench`.
///
/// # Errors
///
/// [`VlppError::Protocol`] on a malformed flag.
pub fn microbench_main(args: &[String]) -> Result<(), VlppError> {
    let mut records = 200_000usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--records" => {
                records = iter.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).ok_or_else(
                    || {
                        VlppError::protocol(
                            Some("microbench".to_string()),
                            "--records needs a positive integer",
                        )
                    },
                )?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => {
                return Err(VlppError::protocol(
                    Some("microbench".to_string()),
                    format!("unexpected argument `{other}`\n{USAGE}"),
                ));
            }
        }
    }
    run(records);
    Ok(())
}

/// Runs all four benches and prints their `BENCH` lines.
pub fn run(records: usize) {
    let config = BenchConfig::from_env();
    let assignment = spread_assignment();

    let cond_trace = synthetic_trace(records, false, 7);
    let cond_config = PathConfig::new(COND_INDEX_BITS);
    let boxed_cond = time_silently("kernel/cond_boxed", config, || {
        let mut predictor: Box<dyn ConditionalPredictor> =
            Box::new(PathConditional::new(cond_config.clone(), assignment.clone()));
        run_conditional(&mut predictor, &cond_trace)
    });
    print_with_throughput(&boxed_cond, records, None);
    let soa_cond = time_silently("kernel/cond_soa", config, || {
        run_path_conditional(&cond_config, &assignment, &cond_trace)
    });
    print_with_throughput(&soa_cond, records, Some(boxed_cond.median_ns));

    let ind_trace = synthetic_trace(records, true, 21);
    let ind_config = PathConfig::new(IND_INDEX_BITS);
    let boxed_ind = time_silently("kernel/ind_boxed", config, || {
        let mut predictor: Box<dyn IndirectPredictor> =
            Box::new(PathIndirect::new(ind_config.clone(), assignment.clone()));
        run_indirect(&mut predictor, &ind_trace)
    });
    print_with_throughput(&boxed_ind, records, None);
    let soa_ind = time_silently("kernel/ind_soa", config, || {
        run_path_indirect(&ind_config, &assignment, &ind_trace)
    });
    print_with_throughput(&soa_ind, records, Some(boxed_ind.median_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_and_soa_agree_on_the_bench_workload() {
        // The microbench compares cost of *the same computation*; pin
        // that premise here on a scaled-down workload.
        let records = 4000;
        let assignment = spread_assignment();
        let cond_trace = synthetic_trace(records, false, 7);
        let cond_config = PathConfig::new(COND_INDEX_BITS);
        let mut boxed: Box<dyn ConditionalPredictor> =
            Box::new(PathConditional::new(cond_config.clone(), assignment.clone()));
        let expected = run_conditional(&mut boxed, &cond_trace);
        let got = run_path_conditional(&cond_config, &assignment, &cond_trace);
        assert_eq!(got, expected);

        let ind_trace = synthetic_trace(records, true, 21);
        let ind_config = PathConfig::new(IND_INDEX_BITS);
        let mut boxed: Box<dyn IndirectPredictor> =
            Box::new(PathIndirect::new(ind_config.clone(), assignment.clone()));
        let expected = run_indirect(&mut boxed, &ind_trace);
        let got = run_path_indirect(&ind_config, &assignment, &ind_trace);
        assert_eq!(got, expected);
    }

    #[test]
    fn augmented_line_carries_throughput_fields() {
        let report = BenchReport {
            name: "kernel/cond_soa".to_string(),
            iters: 3,
            median_ns: 2_000_000,
            mad_ns: 0,
            min_ns: 1_900_000,
            max_ns: 2_100_000,
        };
        let mut json = report.to_json();
        if let JsonValue::Object(fields) = &mut json {
            fields.push(("records_per_sec".to_string(), JsonValue::UInt(100_000_000)));
            fields.push(("speedup_vs_boxed".to_string(), JsonValue::Float(12.5)));
        }
        let text = json.to_json_string();
        assert!(text.contains("\"records_per_sec\":100000000"), "{text}");
        assert!(text.contains("\"speedup_vs_boxed\":12.5"), "{text}");
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_kind_pure() {
        let a = synthetic_trace(2000, false, 7);
        let b = synthetic_trace(2000, false, 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert!(a.iter().all(|r| r.is_conditional()));
        let taken = a.iter().filter(|r| r.taken()).count();
        assert!(taken > 500 && taken < 1500, "outcomes vary, got {taken} taken");
        assert!(synthetic_trace(100, true, 3).iter().all(|r| r.is_indirect()));
    }
}
