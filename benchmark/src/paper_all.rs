//! `paper-all`: the paper's reproduction as researchers run it,
//! `vlpp all --json` at one fixed scale.
//!
//! Its inputs are the 16 fixed benchmark specs, so the seed does not
//! apply. Correctness: stdout must hash to the pinned digest (the output
//! is byte-identical at any thread count).
//!
//! The traced run executes the same pipeline in-process, one layer at a
//! time on the shared worker pool: trace synthesis, §3.5 profiling,
//! the Table-2 fixed-length sweeps, the eleven experiments, and the
//! JSON report. Its output must hash to the same digest. A second
//! profiling pass stopped after step 1 splits the profiling time into
//! step 1 and step 2; kernel and boxed-predictor probes give per-record
//! costs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vlpp_core::{
    CondKernel, IndKernel, PathConditional, PathConfig, ProfileBuilder, ProfileConfig,
};
use vlpp_pool::Pool;
use vlpp_predict::Budget;
use vlpp_sim::experiment::Kind;
use vlpp_sim::{paper, run_conditional, Scale, Workloads};
use vlpp_synth::suite;
use vlpp_trace::compact::fnv1a64;
use vlpp_trace::json::{JsonValue, ToJson};

use crate::process::Finished;
use crate::report::Outcome;
use crate::stats::{median, pass_summary};
use crate::Ctx;

/// The measured scale: 1/256 of the paper's dynamic branch counts.
pub const SCALE: u64 = 256;
/// The floor scale: every benchmark at its 50 000-conditional minimum.
/// Set-up runs here, and so does the self-test size.
pub const FLOOR_SCALE: u64 = 1_000_000;
/// FNV-1a 64 of `vlpp all --json` stdout at each scale.
const PINNED_DIGESTS: [(u64, u64); 2] =
    [(SCALE, 0x780b_b6e2_d4f7_0ef8), (FLOOR_SCALE, 0xf5fd_2352_b89e_a4f9)];
/// `vlpp all`'s experiments, in its output order.
const EXPERIMENTS: [&str; 11] = [
    "table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "headline",
    "hfnt",
];
const SETUP_RUNS: usize = 3;
const MIN_PASSES: usize = 3;
const PROBE_REPEATS: usize = 3;

fn run_all(ctx: &Ctx, scale: u64, metrics: bool) -> Result<Finished, String> {
    let mut args: Vec<String> =
        ["all", "--json", "--scale", &scale.to_string()].iter().map(|s| s.to_string()).collect();
    if metrics {
        args.push("--metrics".to_string());
    }
    ctx.vlpp.run(&args)
}

/// Splits stdout into the experiment JSON and the `METRICS` snapshot,
/// if one was asked for.
fn split_metrics(stdout: &[u8]) -> (&[u8], Option<&str>) {
    let marker = b"\nMETRICS ";
    match stdout.windows(marker.len()).position(|w| w == marker) {
        Some(at) => {
            let line = std::str::from_utf8(&stdout[at + marker.len()..]).ok();
            (&stdout[..at + 1], line.map(str::trim_end))
        }
        None => (stdout, None),
    }
}

fn check_digest(output: &[u8], scale: u64) -> Result<(), String> {
    let pinned = PINNED_DIGESTS.iter().find(|(s, _)| *s == scale).map(|(_, d)| *d);
    let digest = fnv1a64(output);
    match pinned {
        Some(pinned) if pinned == digest => Ok(()),
        Some(pinned) => Err(format!(
            "`vlpp all --json --scale {scale}` output digest {digest:#018x} != pinned {pinned:#018x}"
        )),
        None => Err(format!("no pinned digest for scale {scale}")),
    }
}

fn check_run(run: &Finished, scale: u64) -> Result<(), String> {
    if !run.success {
        return Err(format!(
            "`vlpp all --scale {scale}` failed ({}): {}",
            run.status, run.stderr_tail
        ));
    }
    check_digest(split_metrics(&run.stdout).0, scale)
}

/// Dynamic conditional records the pipeline synthesizes: a test and a
/// profile trace per benchmark.
fn synthesized_conditionals(scale: u64) -> u64 {
    let scale = Scale::new(scale);
    suite::all_benchmarks().iter().map(|spec| 2 * scale.dynamic_conditionals(spec)).sum()
}

/// Runs one workload pass (untraced) or the layer breakdown (traced).
pub fn run(ctx: &Ctx, outcome: &mut Outcome) -> Result<(), String> {
    let scale = if ctx.tiny { FLOOR_SCALE } else { SCALE };
    outcome.note(format!("vlpp all --json --scale {scale}; the seed does not apply"));
    if ctx.traced {
        return traced(ctx, outcome, scale);
    }
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        let run = run_all(ctx, FLOOR_SCALE, false)?;
        outcome.check(check_run(&run, FLOOR_SCALE));
        setup.push(run.wall_s);
    }
    let passes = ctx.timed_passes(MIN_PASSES, || {
        let run = run_all(ctx, scale, false)?;
        let took = Duration::from_secs_f64(run.wall_s);
        Ok((run, took))
    })?;
    for run in &passes {
        outcome.check(check_run(run, scale));
    }
    let wall = median(&passes.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    outcome.note(pass_summary(&passes.iter().map(|r| r.wall_s).collect::<Vec<_>>()));
    outcome.note(format!("set-up is `vlpp all` at --scale {FLOOR_SCALE}: {setup:.4?} s"));
    outcome.set("setup_s", median(&setup));
    outcome.set("wall_s", wall);
    outcome.set("cpu_s", median(&passes.iter().map(|r| r.cpu_s).collect::<Vec<_>>()));
    outcome.set("peak_rss_mib", median(&passes.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()));
    outcome.set("records_per_s", synthesized_conditionals(scale) as f64 / wall);
    Ok(())
}

fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = work();
    (started.elapsed().as_nanos() as f64, value)
}

fn memo_misses() -> u64 {
    vlpp_metrics::counter("pool.memo.profiles.misses").get()
}

/// Every `(benchmark, kind, index bits)` profile `vlpp all` reads:
/// Figures 5–8 and HFNT profile every benchmark at 16 KB / 2 KB, and
/// Figures 9–10 and the headline profile gcc at each table size.
fn profile_keys() -> Vec<(String, Kind, u32)> {
    let cond_bits = Budget::from_bytes(paper::FIG5_COND_BYTES).cond_index_bits();
    let ind_bits = Budget::from_bytes(paper::FIG7_IND_BYTES).ind_index_bits();
    let mut keys = Vec::new();
    for name in suite::all_names() {
        keys.push((name.to_string(), Kind::Conditional, cond_bits));
        keys.push((name.to_string(), Kind::Indirect, ind_bits));
    }
    for bytes in paper::COND_SIZES {
        keys.push((
            "gcc".to_string(),
            Kind::Conditional,
            Budget::from_bytes(bytes).cond_index_bits(),
        ));
    }
    for bytes in paper::IND_SIZES {
        keys.push(("gcc".to_string(), Kind::Indirect, Budget::from_bytes(bytes).ind_index_bits()));
    }
    let mut unique = Vec::new();
    for key in keys {
        if !unique.contains(&key) {
            unique.push(key);
        }
    }
    unique
}

fn experiment_json(workloads: &Workloads, id: &str) -> JsonValue {
    match id {
        "table1" => paper::table1(workloads).to_json(),
        "table2" => paper::table2(workloads).to_json(),
        "fig5" => paper::figure5(workloads).to_json(),
        "fig6" => paper::figure6(workloads).to_json(),
        "fig7" => paper::figure7(workloads).to_json(),
        "fig8" => paper::figure8(workloads).to_json(),
        "table3" => paper::table3(workloads).to_json(),
        "fig9" => paper::figure9(workloads).to_json(),
        "fig10" => paper::figure10(workloads).to_json(),
        "headline" => paper::headline(workloads).to_json(),
        "hfnt" => paper::hfnt_experiment(workloads).to_json(),
        other => unreachable!("unknown experiment `{other}`"),
    }
}

/// The memoized §3.5 profile `vlpp all` computes for `key`.
fn memo_profile(workloads: &Workloads, (name, kind, bits): &(String, Kind, u32)) -> usize {
    let spec = suite::benchmark(name).expect("profile keys name suite benchmarks");
    match kind {
        Kind::Conditional => workloads.profile_conditional(&spec, *bits).profiled_branches,
        Kind::Indirect => workloads.profile_indirect(&spec, *bits).profiled_branches,
    }
}

/// Step 1 of the same profile alone (no step-2 iterations), not memoized.
fn step1_profile(workloads: &Workloads, (name, kind, bits): &(String, Kind, u32)) -> usize {
    let spec = suite::benchmark(name).expect("profile keys name suite benchmarks");
    let trace = workloads.profile_trace(&spec);
    let builder =
        ProfileBuilder::new(ProfileConfig::new(PathConfig::new(*bits)).with_iterations(0));
    let report = match kind {
        Kind::Conditional => builder.profile_conditional(&trace),
        Kind::Indirect => builder.profile_indirect(&trace),
    };
    report.profiled_branches
}

fn traced(ctx: &Ctx, outcome: &mut Outcome, scale: u64) -> Result<(), String> {
    // The program's own counters, from an otherwise untraced run.
    let run = run_all(ctx, scale, true)?;
    outcome.check(check_run(&run, scale));
    let snapshot = split_metrics(&run.stdout)
        .1
        .and_then(|line| JsonValue::parse(line).ok())
        .ok_or("`vlpp all --metrics` printed no METRICS line")?;
    let count = |name: &str| snapshot.get(name).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    outcome.set("core.profile.step1_records", count("core.profile.step1_records"));
    outcome.set("core.profile.step2_iterations", count("core.profile.step2_iterations"));
    let (hits, misses) = (count("pool.memo.profiles.hits"), count("pool.memo.profiles.misses"));
    outcome.set("pool.memo.profiles.hit_ratio", hits / (hits + misses).max(1.0));
    outcome.note(format!("vlpp all: profile memo {misses} misses, {hits} hits"));

    // The same pipeline in-process, one layer at a time.
    let workloads = Workloads::new(Scale::new(scale));
    let pool = Pool::global();
    let keys = profile_keys();
    let started = Instant::now();
    let (synth_ns, records) = timed(|| {
        let sizes = pool.map(suite::all_benchmarks(), |spec| {
            workloads.test_trace(&spec).len() + workloads.profile_trace(&spec).len()
        });
        sizes.iter().sum::<usize>()
    });
    let (profile_ns, _) = timed(|| pool.map(keys.clone(), |key| memo_profile(&workloads, &key)));
    let misses_before = memo_misses();
    let (fixed_ns, _) = timed(|| {
        for bytes in paper::COND_SIZES {
            workloads.best_fixed_conditional_length(Budget::from_bytes(bytes).cond_index_bits());
        }
        for bytes in paper::IND_SIZES {
            workloads.best_fixed_indirect_length(Budget::from_bytes(bytes).ind_index_bits());
        }
    });
    let (experiments_ns, trees) =
        timed(|| pool.map(EXPERIMENTS.to_vec(), |id| experiment_json(&workloads, id)));
    let (report_ns, text) = timed(|| {
        let object = EXPERIMENTS.iter().map(|id| id.to_string()).zip(trees).collect();
        format!("{}\n", JsonValue::Object(object).pretty())
    });
    let traced_wall = started.elapsed().as_secs_f64();
    outcome.check(check_digest(text.as_bytes(), scale));
    let unstaged = memo_misses() - misses_before;
    if unstaged > 0 {
        outcome.note(format!(
            "warning: {unstaged} profiles were first computed inside the experiments; \
             the staged key list is stale and their time counts as experiment time"
        ));
    }

    // Step 1 alone over the same keys; step 2 is the rest.
    let (step1_ns, _) = timed(|| pool.map(keys.clone(), |key| step1_profile(&workloads, &key)));

    let layers = synth_ns + profile_ns + fixed_ns + experiments_ns + report_ns;
    outcome.set("synth.trace_ns", synth_ns);
    outcome.set("synth.records", records as f64);
    outcome.set("core.profile.step1_ns", step1_ns);
    outcome.set("core.profile.step2_ns", profile_ns - step1_ns);
    outcome.set("sim.fixed_sweep_ns", fixed_ns);
    outcome.set("sim.paper.experiments_ns", experiments_ns);
    outcome.set("sim.report_ns", report_ns);
    outcome.set("traced_wall_s", traced_wall);
    outcome.set("untraced_wall_s", run.wall_s);
    outcome.set("tracing_overhead_s", traced_wall - run.wall_s);
    outcome.set("attributed_fraction", layers / 1e9 / traced_wall);
    outcome.note(format!(
        "{} profile keys staged; layers run one after another on {} threads",
        keys.len(),
        pool.threads()
    ));

    // Per-record costs of the replay paths on gcc's test trace.
    let gcc = suite::benchmark("gcc").expect("gcc is in the suite");
    let trace = workloads.test_trace(&gcc);
    let cond_bits = Budget::from_bytes(paper::FIG5_COND_BYTES).cond_index_bits();
    let ind_bits = Budget::from_bytes(paper::FIG7_IND_BYTES).ind_index_bits();
    let cond_assignment = workloads.profile_conditional(&gcc, cond_bits).assignment.clone();
    let ind_assignment = workloads.profile_indirect(&gcc, ind_bits).assignment.clone();
    let per_record = |work: &dyn Fn()| {
        let runs: Vec<f64> =
            (0..PROBE_REPEATS).map(|_| timed(work).0 / trace.len() as f64).collect();
        median(&runs)
    };
    outcome.set(
        "core.kernel.cond_ns_per_record",
        per_record(&|| {
            let mut kernel = CondKernel::new(&PathConfig::new(cond_bits), &cond_assignment);
            for record in trace.iter() {
                black_box(kernel.apply(record));
            }
        }),
    );
    outcome.set(
        "core.kernel.ind_ns_per_record",
        per_record(&|| {
            let mut kernel = IndKernel::new(&PathConfig::new(ind_bits), &ind_assignment);
            for record in trace.iter() {
                black_box(kernel.apply(record));
            }
        }),
    );
    outcome.set(
        "predict.boxed_ns_per_record",
        per_record(&|| {
            let mut boxed =
                PathConditional::new(PathConfig::new(cond_bits), cond_assignment.clone());
            black_box(run_conditional(&mut boxed, &trace));
        }),
    );
    Ok(())
}
