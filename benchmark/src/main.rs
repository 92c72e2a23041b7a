//! The vlpp benchmark harness: runs one workload against the release
//! `vlpp` binary, checks its output, and prints its metrics.
//!
//! ```text
//! vlpp-benchmark --vlpp PATH --workload NAME --seed N --seconds S --trace 0|1
//!                [--tiny] [--work DIR]
//! ```
//!
//! `benchmark/run.sh` builds both binaries and supplies `--vlpp`; see
//! `benchmark/README.md` for the workloads and the layer map.

mod paper_all;
mod process;
mod report;
mod serve_closed;
mod stats;
mod trace_replay;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use process::Program;
use report::Outcome;

const USAGE: &str = "\
usage: vlpp-benchmark --vlpp PATH --workload paper-all|serve-closed|trace-replay
                      --seed N --seconds S --trace 0|1 [--tiny] [--work DIR]";

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-all", "serve-closed", "trace-replay"];

/// Everything a workload run needs.
pub struct Ctx {
    /// The program under test.
    pub vlpp: Program,
    /// Input seed (workloads whose inputs are fixed ignore it).
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Self-test size: tiny inputs, same code paths.
    pub tiny: bool,
    /// Scratch directory for generated inputs and sockets.
    pub work: PathBuf,
}

impl Ctx {
    /// Runs `pass` until the timed phase has measured `seconds` (at
    /// least `min_passes` times), returning each pass's result. Time
    /// spent between passes (output checks) is not measured.
    pub fn timed_passes<T>(
        &self,
        min_passes: usize,
        mut pass: impl FnMut() -> Result<(T, Duration), String>,
    ) -> Result<Vec<T>, String> {
        let mut measured = Duration::ZERO;
        let mut results = Vec::new();
        while results.len() < min_passes || measured < self.seconds {
            let (result, took) = pass()?;
            measured += took;
            results.push(result);
        }
        Ok(results)
    }
}

struct Args {
    vlpp: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    tiny: bool,
    work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut vlpp = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tiny = false;
    let mut work = PathBuf::from(".bench_work");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--vlpp" => vlpp = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let raw = value()?;
                seconds =
                    Some(raw.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("--seconds needs a positive integer, got `{raw}`")
                    })?);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--tiny" => tiny = true,
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (want {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        vlpp: vlpp.ok_or("missing --vlpp")?,
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
        tiny,
        work,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let vlpp = match Program::new(&args.vlpp) {
        Ok(vlpp) => vlpp,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        vlpp,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.traced,
        tiny: args.tiny,
        work: args.work,
    };
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let result = match args.workload.as_str() {
        "paper-all" => paper_all::run(&ctx, &mut outcome),
        "serve-closed" => serve_closed::run(&ctx, &mut outcome),
        "trace-replay" => trace_replay::run(&ctx, &mut outcome),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if let Err(message) = &result {
        outcome.check(Err(format!("workload `{}` could not finish: {message}", args.workload)));
    }
    outcome.note(format!(
        "workload {} seed {} trace {} threads {} ran {:.1}s",
        args.workload,
        args.seed,
        u8::from(args.traced),
        vlpp_pool::Pool::global().threads(),
        started.elapsed().as_secs_f64()
    ));
    print!("{}", outcome.render(args.traced));
    if result.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
