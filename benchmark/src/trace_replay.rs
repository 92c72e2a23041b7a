//! `trace-replay`: a foreign trace ingested once and replayed many
//! times.
//!
//! The harness writes a ChampSim trace of a seeded synthetic program
//! (its own preparation, not measured). Set-up is `vlpp ingest` of that
//! file to the chunked compact format (VLPC); the timed phase replays
//! the VLPC file with `vlpp run --trace` over a sweep of index widths.
//! Each replay's totals are checked against an in-process
//! `replay_streaming` of the same records.
//!
//! The traced run replays the sweep in-process one layer at a time:
//! compact decode of the file, then the conditional and the indirect
//! kernel over the decoded records. Probes time the two halves of
//! ingest: ChampSim decode and compact encode.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

use vlpp_check::rng::mix;
use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_sim::ingest::replay_streaming;
use vlpp_synth::{suite, ExecutionLimits, Executor, InputSet, Program};
use vlpp_trace::compact::{ChunkedReader, ChunkedWriter, DEFAULT_CHUNK_RECORDS};
use vlpp_trace::ingest::{write_champsim, ChampSimSource};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord, TraceIoError, TraceSource};

use crate::process::Finished;
use crate::report::Outcome;
use crate::stats::{median, pass_summary};
use crate::Ctx;

/// The hash number `vlpp run` uses without `--fixed`.
const FIXED_HASH: u8 = 8;
const SETUP_RUNS: usize = 5;
const MIN_PASSES: usize = 3;

struct Size {
    records: usize,
    sweep: &'static [u32],
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        Size { records: 20_000, sweep: &[8, 12] }
    } else {
        Size { records: 4_000_000, sweep: &[8, 10, 12, 14, 16, 18] }
    }
}

/// The synthetic gcc program's test-input execution as a seed places
/// it: a window starting up to a million records in, loaded at a
/// page-aligned base address below 4 GiB. Different seeds give different
/// records from the same program, so they cost the same to replay.
///
/// The records are generated as they are consumed, so the harness never
/// holds the trace: a child's peak RSS as `wait4` reports it is at least
/// the harness's own peak at spawn time.
pub fn synthetic_records(
    program: &Program,
    seed: u64,
    records: usize,
) -> impl Iterator<Item = BranchRecord> + '_ {
    let skip = (mix(seed) % 1_000_000) as usize;
    let base = mix(seed ^ 0x5eed) & 0xffff_f000;
    let relocate = move |addr: Addr| Addr::new(addr.raw().wrapping_add(base));
    Executor::new(program, InputSet::Test, ExecutionLimits::default()).skip(skip).take(records).map(
        move |r| BranchRecord::new(relocate(r.pc()), relocate(r.target()), r.kind(), r.taken()),
    )
}

/// The program [`synthetic_records`] executes.
pub fn synthetic_program() -> Program {
    suite::benchmark("gcc").expect("gcc is in the suite").build_program()
}

/// Adapts a record iterator to the program's streaming source trait.
struct IterSource<I>(I);

impl<I: Iterator<Item = BranchRecord>> TraceSource for IterSource<I> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        Ok(self.0.next())
    }
}

/// Writes the records as a ChampSim trace, one buffer at a time.
fn write_trace(path: &Path, records: impl Iterator<Item = BranchRecord>) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    let mut buffer = Vec::with_capacity(1 << 16);
    let mut records = records.peekable();
    while records.peek().is_some() {
        buffer.clear();
        buffer.extend(records.by_ref().take(1 << 16));
        write_champsim(&buffer, &mut writer).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn replay_args(vlpc: &Path, bits: u32) -> Vec<String> {
    let path = vlpc.to_string_lossy().into_owned();
    ["run", "--trace", &path, "--index-bits", &bits.to_string(), "--json"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn check_json(
    run: &Finished,
    what: &str,
    check: impl Fn(&JsonValue) -> bool,
) -> Result<(), String> {
    if !run.success {
        return Err(format!("{what} failed ({}): {}", run.status, run.stderr_tail));
    }
    let text = String::from_utf8_lossy(&run.stdout);
    match JsonValue::parse(text.trim()) {
        Ok(value) if check(&value) => Ok(()),
        Ok(value) => Err(format!("{what} printed {value}")),
        Err(_) => Err(format!("{what} printed no JSON: {text}")),
    }
}

/// One sweep of `vlpp run` replays.
struct Sweep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    runs: Vec<Finished>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx, outcome: &mut Outcome) -> Result<(), String> {
    let size = size(ctx);
    let champsim = ctx.work.join("replay.champsim");
    let vlpc = ctx.work.join("replay.vlpc");
    let program = synthetic_program();
    write_trace(&champsim, synthetic_records(&program, ctx.seed, size.records))?;
    let assignment = HashAssignment::fixed(FIXED_HASH);
    let mut expected = Vec::new();
    for &bits in size.sweep {
        let mut source = IterSource(synthetic_records(&program, ctx.seed, size.records));
        let report = replay_streaming(&mut source, bits, &assignment).map_err(|e| e.to_string())?;
        expected.push(report.to_json());
    }
    outcome.note(format!(
        "{} records ({} ChampSim bytes) replayed at index bits {:?}",
        size.records,
        file_len(&champsim)?,
        size.sweep
    ));

    let ingest_args: Vec<String> =
        ["ingest", &champsim.to_string_lossy(), "--out", &vlpc.to_string_lossy(), "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let mut setups = Vec::new();
    for _ in 0..SETUP_RUNS {
        let run = ctx.vlpp.run(&ingest_args)?;
        outcome.check(check_json(&run, "vlpp ingest", |v| {
            v.get("records").and_then(|r| r.as_u64()) == Some(size.records as u64)
        }));
        setups.push(run.wall_s);
    }

    let passes = ctx.timed_passes(MIN_PASSES, || {
        let mut runs = Vec::new();
        for &bits in size.sweep {
            runs.push(ctx.vlpp.run(&replay_args(&vlpc, bits))?);
        }
        let sweep = Sweep {
            wall_s: runs.iter().map(|r| r.wall_s).sum(),
            cpu_s: runs.iter().map(|r| r.cpu_s).sum(),
            peak_rss_mib: runs.iter().map(|r| r.peak_rss_mib).fold(0.0, f64::max),
            runs,
        };
        let took = Duration::from_secs_f64(sweep.wall_s);
        Ok((sweep, took))
    })?;
    for sweep in &passes {
        for (run, (bits, want)) in sweep.runs.iter().zip(size.sweep.iter().zip(&expected)) {
            outcome.check(check_json(run, &format!("vlpp run --index-bits {bits}"), |v| v == want));
        }
    }
    let wall = median(&passes.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let replayed = (size.records * size.sweep.len()) as f64;
    outcome.note(pass_summary(&passes.iter().map(|s| s.wall_s).collect::<Vec<_>>()));
    outcome.note(format!("set-up is `vlpp ingest`: {setups:.4?} s"));
    if !ctx.traced {
        outcome.set("setup_s", median(&setups));
        outcome.set("wall_s", wall);
        outcome.set("cpu_s", median(&passes.iter().map(|s| s.cpu_s).collect::<Vec<_>>()));
        outcome.set(
            "peak_rss_mib",
            median(&passes.iter().map(|s| s.peak_rss_mib).collect::<Vec<_>>()),
        );
        outcome.set("records_per_s", replayed / wall);
        return Ok(());
    }
    traced(outcome, &size, &champsim, &vlpc, &expected, wall)
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("{}: {e}", path.display()))
}

fn open(path: &Path) -> Result<BufReader<File>, String> {
    File::open(path).map(BufReader::new).map_err(|e| format!("{}: {e}", path.display()))
}

fn traced(
    outcome: &mut Outcome,
    size: &Size,
    champsim: &Path,
    vlpc: &Path,
    expected: &[JsonValue],
    untraced_wall: f64,
) -> Result<(), String> {
    let assignment = HashAssignment::fixed(FIXED_HASH);
    let (mut decode, mut cond_ns, mut ind_ns) = (0u128, 0u128, 0u128);
    let started = Instant::now();
    for (&bits, want) in size.sweep.iter().zip(expected) {
        let t0 = Instant::now();
        let mut reader = ChunkedReader::new(open(vlpc)?).map_err(|e| e.to_string())?;
        let mut records = Vec::with_capacity(size.records);
        while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
            records.push(record);
        }
        let t1 = Instant::now();
        let config = PathConfig::new(bits);
        let mut cond = CondKernel::new(&config, &assignment);
        for record in &records {
            black_box(cond.apply(record));
        }
        let t2 = Instant::now();
        let mut ind = IndKernel::new(&config, &assignment);
        for record in &records {
            black_box(ind.apply(record));
        }
        let t3 = Instant::now();
        decode += (t1 - t0).as_nanos();
        cond_ns += (t2 - t1).as_nanos();
        ind_ns += (t3 - t2).as_nanos();
        let totals =
            |key: &str| want.get(key).and_then(|o| o.get("predictions")).and_then(|v| v.as_u64());
        let misses = |key: &str| {
            want.get(key).and_then(|o| o.get("mispredictions")).and_then(|v| v.as_u64())
        };
        outcome.check(
            if totals("conditional") == Some(cond.predictions())
                && misses("conditional") == Some(cond.mispredictions())
                && totals("indirect") == Some(ind.predictions())
                && misses("indirect") == Some(ind.mispredictions())
            {
                Ok(())
            } else {
                Err(format!("in-process replay at {bits} bits disagrees with the oracle"))
            },
        );
    }
    let traced_wall = started.elapsed().as_secs_f64();
    let replayed = (size.records * size.sweep.len()) as f64;
    outcome.set("compact.decode_ns_per_record", decode as f64 / replayed);
    outcome.set("core.kernel.cond_ns_per_record", cond_ns as f64 / replayed);
    outcome.set("core.kernel.ind_ns_per_record", ind_ns as f64 / replayed);
    outcome.set("traced_wall_s", traced_wall);
    outcome.set("untraced_wall_s", untraced_wall);
    outcome.set("tracing_overhead_s", traced_wall - untraced_wall);
    outcome.set("attributed_fraction", (decode + cond_ns + ind_ns) as f64 / 1e9 / traced_wall);

    // The two halves of `vlpp ingest`.
    let started = Instant::now();
    let mut source = ChampSimSource::new(open(champsim)?);
    let mut records = Vec::with_capacity(size.records);
    while let Some(record) = source.next_record().map_err(|e| e.to_string())? {
        records.push(record);
    }
    outcome.set(
        "ingest.champsim_decode_ns_per_record",
        started.elapsed().as_nanos() as f64 / records.len() as f64,
    );
    let started = Instant::now();
    let mut writer =
        ChunkedWriter::new(std::io::sink(), DEFAULT_CHUNK_RECORDS).map_err(|e| e.to_string())?;
    for record in &records {
        writer.push(record).map_err(|e| e.to_string())?;
    }
    black_box(writer.finish().map_err(|e| e.to_string())?);
    outcome.set(
        "compact.encode_ns_per_record",
        started.elapsed().as_nanos() as f64 / records.len() as f64,
    );
    outcome.set("compact.bytes_per_record", file_len(vlpc)? as f64 / size.records as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_records_and_another_seed_different_ones() {
        let program = synthetic_program();
        let records = |seed| synthetic_records(&program, seed, 5_000).collect::<Vec<_>>();
        let a = records(11);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a, records(11));
        assert_ne!(a, records(12));
    }
}
