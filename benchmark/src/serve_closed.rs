//! `serve-closed`: a fresh `vlpp serve --uds` driven in a closed loop.
//!
//! Set-up spawns the server and trains one conditional model on a
//! synthetic benchmark (spawn through the `train` reply). The timed
//! phase then replays that benchmark's test trace, pass after pass,
//! over two connections: each connection carries one shard's records in
//! trace order and sends its next batch only after the reply. Batch
//! sizes come from the seed; every fourth batch uses `update` instead
//! of `predict`. Every served prediction and the final `stats` are
//! checked against an in-process `Model::apply_sequential` oracle, as
//! `vlpp loadgen` does.
//!
//! The timed phase runs the server and the client on one CPU. The loop
//! is serial: each connection waits for its reply, and every synthetic
//! record lands on one shard. Spread over two CPUs, each round trip
//! would wake a thread on the other CPU three times, and on a shared
//! virtual machine that wake-up latency is the hypervisor's, not the
//! program's. Set-up (training uses the pool) runs on every CPU.
//!
//! The traced run adds one pass that records its request payloads, then
//! replays them through the server's layers in-process: request parse,
//! `Model::apply_batch` (and `apply_sequential` for comparison) and
//! response encode. What the client waited for beyond those layers is
//! the wire: framing, the socket and the server's queues.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use vlpp_check::rng::mix;
use vlpp_check::XorShift64;
use vlpp_core::{PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_sim::serve::protocol::{ok_response, parse_request, predictions_to_json, record_to_json};
use vlpp_sim::serve::{Model, ModelKind, ModelSpec, Prediction};
use vlpp_sim::{Scale, Workloads};
use vlpp_trace::frame::{read_frame, write_frame};
use vlpp_trace::json::JsonValue;
use vlpp_trace::{Addr, BranchRecord};

use crate::process::{last_allowed_cpu, pin_thread, Daemon};
use crate::report::Outcome;
use crate::stats::{highest_supported, median, pass_summary, percentile};
use crate::Ctx;

const BENCHMARK: &str = "compress";
const MODEL: &str = "bench";
const INDEX_BITS: u32 = 10;
/// Client connections, and model shards: connection `c` carries shard
/// `c`, so the server sees each shard's records in trace order.
const CONNECTIONS: usize = 2;
const BATCH_MAX: u64 = 256;
const UPDATE_EVERY: usize = 4;
const SETUP_RUNS: usize = 3;
const MIN_PASSES: usize = 3;
/// Frame length prefix, in bytes.
const FRAME_HEADER: u64 = 4;

struct Size {
    scale: u64,
    records: usize,
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        Size { scale: 1_000_000, records: 5_000 }
    } else {
        Size { scale: 16, records: 400_000 }
    }
}

fn spec() -> ModelSpec {
    ModelSpec {
        name: MODEL.to_string(),
        benchmark: BENCHMARK.to_string(),
        trace: None,
        kind: ModelKind::Conditional,
        index_bits: INDEX_BITS,
        shards: CONNECTIONS,
    }
}

/// One batch of a connection's plan: a slice of its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    start: usize,
    end: usize,
    update: bool,
}

/// The seeded batch plan of connection `connection` over `records`
/// records: sizes uniform in 1..=256, every fourth batch an `update`.
/// Every pass replays the same plan.
pub fn batch_plan(seed: u64, connection: usize, records: usize) -> Vec<Batch> {
    let mut rng = XorShift64::new(seed ^ mix(connection as u64 + 1));
    let mut plan = Vec::new();
    let mut start = 0;
    while start < records {
        let end = (start + 1 + (rng.next_u64() % BATCH_MAX) as usize).min(records);
        plan.push(Batch { start, end, update: (plan.len() + 1) % UPDATE_EVERY == 0 });
        start = end;
    }
    plan
}

fn call(stream: &mut UnixStream, request: JsonValue) -> Result<JsonValue, String> {
    write_frame(&mut *stream, request.to_string().as_bytes()).map_err(|e| e.to_string())?;
    let payload = read_frame(&mut *stream)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    let response = std::str::from_utf8(&payload)
        .ok()
        .and_then(|text| JsonValue::parse(text).ok())
        .ok_or("response is not JSON")?;
    if response.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("server error: {response}"));
    }
    Ok(response)
}

fn field(name: &str, value: JsonValue) -> (String, JsonValue) {
    (name.to_string(), value)
}

fn train_request() -> JsonValue {
    let spec = spec();
    JsonValue::Object(vec![
        field("verb", JsonValue::Str("train".into())),
        field("model", JsonValue::Str(spec.name)),
        field("benchmark", JsonValue::Str(spec.benchmark)),
        field("kind", JsonValue::Str(spec.kind.name().into())),
        field("index_bits", JsonValue::UInt(u64::from(spec.index_bits))),
        field("shards", JsonValue::UInt(spec.shards as u64)),
    ])
}

/// A trained server and its control connection.
struct Server {
    daemon: Daemon,
    control: UnixStream,
    socket: String,
}

/// Spawns `vlpp serve` and trains the model: the set-up being timed.
fn start_server(ctx: &Ctx, scale: u64, metrics: bool) -> Result<(Server, f64), String> {
    let socket = ctx.work.join("serve.sock").to_string_lossy().into_owned();
    let mut args: Vec<String> = ["serve", "--uds", &socket, "--scale", &scale.to_string()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if metrics {
        args.push("--metrics".to_string());
    }
    let started = Instant::now();
    let mut daemon = Daemon::spawn(ctx.vlpp.command(&args))?;
    loop {
        match daemon.next_line()? {
            Some(line) if line.starts_with("SERVE ") => break,
            Some(_) => continue,
            None => return Err("vlpp serve exited before announcing its socket".to_string()),
        }
    }
    let mut control = UnixStream::connect(Path::new(&socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let reply = call(&mut control, train_request())?;
    let setup = started.elapsed().as_secs_f64();
    if reply.get("shards").and_then(|v| v.as_u64()) != Some(CONNECTIONS as u64) {
        return Err(format!("train reply does not echo {CONNECTIONS} shards: {reply}"));
    }
    Ok((Server { daemon, control, socket }, setup))
}

/// Drains the server and reaps it, returning its stdout.
fn stop_server(mut server: Server) -> Result<Vec<String>, String> {
    call(
        &mut server.control,
        JsonValue::Object(vec![field("verb", JsonValue::Str("shutdown".into()))]),
    )?;
    drop(server.control);
    let (usage, lines) = server.daemon.finish()?;
    if !usage.success {
        return Err(format!("vlpp serve ended with {}", usage.describe()));
    }
    Ok(lines)
}

/// What one connection did in one pass.
#[derive(Default)]
struct ConnPass {
    /// Round trip per batch: encode, send, wait, receive, decode.
    round_trip_ns: Vec<u64>,
    /// From the connection's first batch to the end of its last.
    busy_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
    /// `(first record's index in the connection's work, predictions)`
    /// per `predict` batch.
    served: Vec<(usize, Vec<Option<Prediction>>)>,
    /// Request payloads, kept only by the traced pass.
    payloads: Vec<Vec<u8>>,
}

fn encode_request(verb: &str, id: u64, batch: &[(usize, BranchRecord)]) -> String {
    let records = batch.iter().map(|(_, record)| record_to_json(record)).collect();
    JsonValue::Object(vec![
        field("verb", JsonValue::Str(verb.into())),
        field("id", JsonValue::UInt(id)),
        field("model", JsonValue::Str(MODEL.into())),
        field("records", JsonValue::Array(records)),
    ])
    .to_string()
}

fn decode_prediction(value: &JsonValue) -> Option<Option<Prediction>> {
    if value.is_null() {
        return Some(None);
    }
    let correct = value.get("correct")?.as_bool()?;
    if let Some(taken) = value.get("taken") {
        return Some(Some(Prediction::Taken { taken: taken.as_bool()?, correct }));
    }
    let target = Addr::new(value.get("target")?.as_u64()?);
    Some(Some(Prediction::Target { target, correct }))
}

/// Parses a `predict`/`update` reply; `predict` yields its predictions.
fn decode_response(
    payload: &[u8],
    id: u64,
    update: bool,
    records: usize,
) -> Result<Option<Vec<Option<Prediction>>>, String> {
    let response = std::str::from_utf8(payload)
        .ok()
        .and_then(|text| JsonValue::parse(text).ok())
        .ok_or("response is not JSON")?;
    if response.get("ok").and_then(|v| v.as_bool()) != Some(true)
        || response.get("id").and_then(|v| v.as_u64()) != Some(id)
    {
        return Err(format!("bad reply to request {id}: {response}"));
    }
    if update {
        return match response.get("records").and_then(|v| v.as_u64()) {
            Some(n) if n == records as u64 => Ok(None),
            _ => Err(format!("update reply does not count {records} records: {response}")),
        };
    }
    let slots = response.get("predictions").and_then(|p| p.as_array()).unwrap_or(&[]);
    if slots.len() != records {
        return Err(format!("sent {records} records, got {} predictions", slots.len()));
    }
    let predictions = slots.iter().map(decode_prediction).collect::<Option<Vec<_>>>();
    predictions.map(Some).ok_or_else(|| "malformed prediction".to_string())
}

fn drive(
    stream: &mut UnixStream,
    work: &[(usize, BranchRecord)],
    plan: &[Batch],
    next_id: &mut u64,
    keep_payloads: bool,
) -> Result<ConnPass, String> {
    let started = Instant::now();
    let mut pass =
        ConnPass { round_trip_ns: Vec::with_capacity(plan.len()), ..ConnPass::default() };
    for batch in plan {
        let records = &work[batch.start..batch.end];
        let id = *next_id;
        *next_id += 1;
        let t0 = Instant::now();
        let request = encode_request(if batch.update { "update" } else { "predict" }, id, records);
        let t1 = Instant::now();
        write_frame(&mut *stream, request.as_bytes()).map_err(|e| e.to_string())?;
        let response = read_frame(&mut *stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let t2 = Instant::now();
        let decoded = decode_response(&response, id, batch.update, records.len())?;
        let t3 = Instant::now();
        pass.round_trip_ns.push((t3 - t0).as_nanos() as u64);
        pass.encode_ns += (t1 - t0).as_nanos() as u64;
        pass.decode_ns += (t3 - t2).as_nanos() as u64;
        pass.request_bytes += request.len() as u64 + FRAME_HEADER;
        pass.response_bytes += response.len() as u64 + FRAME_HEADER;
        if let Some(predictions) = decoded {
            pass.served.push((batch.start, predictions));
        }
        if keep_payloads {
            pass.payloads.push(request.into_bytes());
        }
    }
    pass.busy_ns = started.elapsed().as_nanos() as u64;
    Ok(pass)
}

/// The replay: the test trace's head, split into per-connection work
/// lists of `(trace index, record)` by owning shard.
struct Replay {
    records: Vec<BranchRecord>,
    work: Vec<Vec<(usize, BranchRecord)>>,
    plans: Vec<Vec<Batch>>,
}

impl Replay {
    fn new(
        oracle: &Model,
        workloads: &Workloads,
        seed: u64,
        records: usize,
    ) -> Result<Replay, String> {
        let spec = vlpp_synth::suite::benchmark(BENCHMARK).ok_or("unknown benchmark")?;
        let records: Vec<BranchRecord> =
            workloads.test_trace(&spec).iter().take(records).copied().collect();
        let mut work = vec![Vec::new(); CONNECTIONS];
        for (index, record) in records.iter().enumerate() {
            work[oracle.owner(record.pc()) % CONNECTIONS].push((index, *record));
        }
        let plans = work.iter().enumerate().map(|(c, w)| batch_plan(seed, c, w.len())).collect();
        Ok(Replay { records, work, plans })
    }
}

/// One timed pass over both connections, whose threads run on `cpu`.
/// Returns the per-connection results and the pass's wall time.
fn pass(
    replay: &Replay,
    streams: &mut [UnixStream],
    next_ids: &mut [u64],
    cpu: usize,
    keep_payloads: bool,
) -> Result<(Vec<ConnPass>, Duration), String> {
    let started = Instant::now();
    let results: Vec<Result<ConnPass, String>> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(next_ids.iter_mut())
            .enumerate()
            .map(|(c, (stream, next_id))| {
                let (work, plan) = (&replay.work[c], &replay.plans[c]);
                scope.spawn(move || {
                    pin_thread(0, cpu)?;
                    drive(stream, work, plan, next_id, keep_payloads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("connection thread panicked".to_string())))
            .collect()
    });
    let took = started.elapsed();
    Ok((results.into_iter().collect::<Result<Vec<_>, _>>()?, took))
}

/// Checks one pass against the oracle's predictions for it.
fn check_pass(
    outcome: &mut Outcome,
    replay: &Replay,
    conns: &[ConnPass],
    expected: &[Option<Prediction>],
) {
    for (c, conn) in conns.iter().enumerate() {
        for (start, predictions) in &conn.served {
            let wrong = predictions
                .iter()
                .enumerate()
                .find(|(i, served)| **served != expected[replay.work[c][start + i].0]);
            outcome.check(match wrong {
                None => Ok(()),
                Some((i, served)) => {
                    let index = replay.work[c][start + i].0;
                    Err(format!("record {index}: served {served:?}, oracle {:?}", expected[index]))
                }
            });
        }
    }
    let updates: usize = replay.plans.iter().map(|p| p.iter().filter(|b| b.update).count()).sum();
    for _ in 0..updates {
        outcome.check(Ok(()));
    }
}

fn connect(socket: &str) -> Result<UnixStream, String> {
    UnixStream::connect(socket).map_err(|e| format!("cannot connect to {socket}: {e}"))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, outcome: &mut Outcome) -> Result<(), String> {
    let size = size(ctx);
    let workloads = Workloads::new(Scale::new(size.scale));
    let oracle = Model::train(spec(), &workloads).map_err(|e| e.to_string())?;
    let replay = Replay::new(&oracle, &workloads, ctx.seed, size.records)?;
    outcome.note(format!(
        "{} records of {BENCHMARK} at --scale {} per pass over {CONNECTIONS} connections \
         ({:?} records, {:?} batches)",
        replay.records.len(),
        size.scale,
        replay.work.iter().map(Vec::len).collect::<Vec<_>>(),
        replay.plans.iter().map(Vec::len).collect::<Vec<_>>()
    ));

    let mut setups = Vec::new();
    let mut server = None;
    for run in 0..SETUP_RUNS {
        let (started, setup) = start_server(ctx, size.scale, ctx.traced)?;
        outcome.check(Ok(()));
        setups.push(setup);
        if run + 1 < SETUP_RUNS {
            stop_server(started)?;
        } else {
            server = Some(started);
        }
    }
    let mut server = server.expect("at least one set-up run");
    // Before connecting: the connection threads inherit the acceptor's CPU.
    let on_cpu = last_allowed_cpu()?;
    server.daemon.pin_to(on_cpu)?;
    let mut streams = vec![connect(&server.socket)?, connect(&server.socket)?];
    let mut next_ids = vec![1u64; CONNECTIONS];

    let cpu_before = server.daemon.cpu_s()?;
    let passes = ctx.timed_passes(MIN_PASSES, || {
        let expected = oracle.apply_sequential(&replay.records);
        let (conns, took) = pass(&replay, &mut streams, &mut next_ids, on_cpu, false)?;
        check_pass(outcome, &replay, &conns, &expected);
        Ok(((conns, took), took))
    })?;
    let cpu = server.daemon.cpu_s()? - cpu_before;
    let walls: Vec<f64> = passes.iter().map(|(_, took)| took.as_secs_f64()).collect();
    let wall = median(&walls);

    let mut samples: Vec<u64> = passes
        .iter()
        .flat_map(|(conns, _)| conns.iter().flat_map(|c| c.round_trip_ns.clone()))
        .collect();
    samples.sort_unstable();
    let (q, label) = highest_supported(samples.len());
    outcome.note(pass_summary(&walls));
    outcome.note(format!("set-up is spawn through the train reply: {setups:.4?} s"));
    outcome.note(format!(
        "{} passes; batch round trip p50 {:.1} us, {label} {:.1} us over {} samples",
        passes.len(),
        percentile(&samples, 0.5) as f64 / 1e3,
        percentile(&samples, q) as f64 / 1e3,
        samples.len()
    ));

    let traced = if ctx.traced {
        let expected = oracle.apply_sequential(&replay.records);
        let (conns, took) = pass(&replay, &mut streams, &mut next_ids, on_cpu, true)?;
        check_pass(outcome, &replay, &conns, &expected);
        Some((conns, took))
    } else {
        None
    };

    let stats = call(
        &mut server.control,
        JsonValue::Object(vec![
            field("verb", JsonValue::Str("stats".into())),
            field("model", JsonValue::Str(MODEL.into())),
        ]),
    )?;
    let served_stats = stats.get("stats").map(|s| s.to_string()).unwrap_or_default();
    let oracle_stats = oracle.stats_json().to_string();
    outcome.check(if served_stats == oracle_stats {
        Ok(())
    } else {
        Err(format!("stats {served_stats} != oracle {oracle_stats}"))
    });
    let peak_rss_mib = server.daemon.peak_rss_mib()?;
    drop(streams);
    let lines = stop_server(server)?;

    let records = replay.records.len() as f64;
    let Some((conns, traced_took)) = traced else {
        outcome.set("setup_s", median(&setups));
        outcome.set("wall_s", wall);
        outcome.set("cpu_s", cpu / passes.len() as f64);
        outcome.set("peak_rss_mib", peak_rss_mib);
        outcome.set("records_per_s", records / wall);
        return Ok(());
    };

    // Per-layer numbers. The program's counters first.
    let snapshot = lines
        .iter()
        .find_map(|line| line.strip_prefix("METRICS "))
        .and_then(|line| JsonValue::parse(line).ok())
        .ok_or("vlpp serve --metrics printed no METRICS line")?;
    let count = |name: &str| snapshot.get(name).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    let requests = count("serve.requests.predict") + count("serve.requests.update");
    outcome.set("pool.tasks.sharded_per_batch", count("pool.tasks.sharded") / requests.max(1.0));
    outcome.set("serve.backpressure_waits", count("serve.backpressure_waits"));
    outcome.set("core.profile.step1_records", count("core.profile.step1_records"));
    outcome.set("core.profile.step2_iterations", count("core.profile.step2_iterations"));
    let (hits, misses) = (count("pool.memo.profiles.hits"), count("pool.memo.profiles.misses"));
    outcome.set("pool.memo.profiles.hit_ratio", hits / (hits + misses).max(1.0));

    // The client side of the traced pass.
    let sum = |f: fn(&ConnPass) -> u64| conns.iter().map(f).sum::<u64>() as f64;
    let batches = conns.iter().map(|c| c.round_trip_ns.len()).sum::<usize>() as f64;
    let round_trips = conns.iter().flat_map(|c| c.round_trip_ns.iter()).sum::<u64>() as f64;
    let (encode, decode) = (sum(|c| c.encode_ns), sum(|c| c.decode_ns));
    outcome.set("client.encode_ns_per_record", encode / records);
    outcome.set("client.decode_ns_per_record", decode / records);
    outcome.set("frame.request_bytes_per_record", sum(|c| c.request_bytes) / records);
    outcome.set("frame.response_bytes_per_record", sum(|c| c.response_bytes) / records);
    outcome.set("batch_p50_us", percentile(&samples, 0.5) as f64 / 1e3);
    outcome.set("batch_p99_us", percentile(&samples, 0.99) as f64 / 1e3);
    outcome.set("batch_samples", samples.len() as f64);

    // The server's layers, replayed in-process on the recorded traffic.
    let payloads: Vec<&Vec<u8>> = conns.iter().flat_map(|c| c.payloads.iter()).collect();
    let started = Instant::now();
    for payload in &payloads {
        black_box(parse_request(payload).map_err(|e| e.to_string())?);
    }
    let parse = started.elapsed().as_nanos() as f64;
    let mut batches_records: Vec<Vec<BranchRecord>> = Vec::new();
    for (work, plan) in replay.work.iter().zip(&replay.plans) {
        for batch in plan {
            batches_records.push(work[batch.start..batch.end].iter().map(|(_, r)| *r).collect());
        }
    }
    let started = Instant::now();
    for batch in &batches_records {
        black_box(oracle.apply_batch(batch));
    }
    let apply = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for batch in &batches_records {
        black_box(oracle.apply_sequential(batch));
    }
    let sequential = started.elapsed().as_nanos() as f64;
    let served: Vec<&Vec<Option<Prediction>>> =
        conns.iter().flat_map(|c| c.served.iter().map(|(_, p)| p)).collect();
    let predicted = served.iter().map(|p| p.len()).sum::<usize>() as f64;
    let started = Instant::now();
    for (id, predictions) in served.iter().enumerate() {
        let body = vec![field("predictions", predictions_to_json(predictions))];
        black_box(ok_response("predict", Some(id as u64), body).to_string());
    }
    let encode_server = started.elapsed().as_nanos() as f64;
    outcome.set("serve.parse_ns_per_record", parse / records);
    outcome.set("serve.apply_batch_ns_per_record", apply / records);
    outcome.set("serve.apply_sequential_ns_per_record", sequential / records);
    outcome.set("serve.encode_ns_per_record", encode_server / predicted.max(1.0));
    let wire = (round_trips - encode - decode - parse - apply - encode_server) / batches;
    outcome.set("serve.wire_ns_per_batch", wire);
    let traced_wall = traced_took.as_secs_f64();
    outcome.set("traced_wall_s", traced_wall);
    outcome.set("untraced_wall_s", wall);
    outcome.set("tracing_overhead_s", traced_wall - wall);
    // The pass ends when its busiest connection does: that connection's
    // round trips are the layers on the critical path.
    let critical = conns.iter().max_by_key(|c| c.busy_ns).expect("two connections");
    let critical_round_trips = critical.round_trip_ns.iter().sum::<u64>() as f64;
    outcome.set("attributed_fraction", critical_round_trips / 1e9 / traced_wall);

    // Set-up layers: trace synthesis and the two profiling steps.
    let fresh = Workloads::new(Scale::new(size.scale));
    let spec = vlpp_synth::suite::benchmark(BENCHMARK).ok_or("unknown benchmark")?;
    let started = Instant::now();
    let synthesized = fresh.profile_trace(&spec).len() + fresh.test_trace(&spec).len();
    outcome.set("synth.trace_ns", started.elapsed().as_nanos() as f64);
    outcome.set("synth.records", synthesized as f64);
    let trace = fresh.profile_trace(&spec);
    let config = ProfileConfig::new(PathConfig::new(INDEX_BITS));
    let started = Instant::now();
    black_box(ProfileBuilder::new(config.clone().with_iterations(0)).profile_conditional(&trace));
    let step1 = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    black_box(ProfileBuilder::new(config).profile_conditional(&trace));
    let full = started.elapsed().as_nanos() as f64;
    outcome.set("core.profile.step1_ns", step1);
    outcome.set("core.profile.step2_ns", full - step1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_plan_and_another_seed_a_different_one() {
        assert_eq!(batch_plan(7, 0, 10_000), batch_plan(7, 0, 10_000));
        assert_ne!(batch_plan(7, 0, 10_000), batch_plan(8, 0, 10_000));
        assert_ne!(batch_plan(7, 0, 10_000), batch_plan(7, 1, 10_000));
    }

    #[test]
    fn a_plan_covers_every_record_once_with_every_fourth_batch_an_update() {
        let plan = batch_plan(3, 1, 5_000);
        assert_eq!(plan[0].start, 0);
        assert_eq!(plan.last().unwrap().end, 5_000);
        for (i, pair) in plan.windows(2).enumerate() {
            assert_eq!(pair[0].end, pair[1].start);
            assert!((1..=BATCH_MAX as usize).contains(&(pair[0].end - pair[0].start)));
            assert_eq!(pair[0].update, (i + 1) % UPDATE_EVERY == 0);
        }
    }

    #[test]
    fn replies_decode_and_malformed_ones_are_errors() {
        let reply = br#"{"ok":true,"verb":"predict","id":5,"predictions":[null,{"taken":true,"correct":false}]}"#;
        let decoded = decode_response(reply, 5, false, 2).unwrap().unwrap();
        assert_eq!(decoded, vec![None, Some(Prediction::Taken { taken: true, correct: false })]);
        assert!(decode_response(reply, 6, false, 2).is_err(), "wrong id");
        assert!(decode_response(reply, 5, false, 3).is_err(), "wrong count");
        let update = br#"{"ok":true,"verb":"update","id":1,"records":4}"#;
        assert_eq!(decode_response(update, 1, true, 4).unwrap(), None);
        assert!(decode_response(update, 1, true, 5).is_err());
    }
}
