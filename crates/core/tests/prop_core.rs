//! Property tests for the core predictor machinery.

use std::collections::HashMap;

use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig, Gen};
use vlpp_core::profile::HashStat;
use vlpp_core::{
    hash_path, HashAssignment, PathConditional, PathConfig, PathIndirect, Population,
    ProfileBuilder, ProfileConfig, RollingHashers, Thb, MAX_PATH_LENGTH,
};
use vlpp_predict::{BranchObserver, ConditionalPredictor, Counter2, IndirectPredictor};
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

/// The §4.1 incremental evaluation ([`RollingHashers`]) computes exactly
/// the §3.3 hashes, for every index width, register count, path length,
/// and target stream.
#[test]
fn incremental_hashers_equal_direct_evaluation() {
    check("incremental_hashers_equal_direct_evaluation", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 24);
        let count = g.range_usize(1, MAX_PATH_LENGTH);
        let targets = g.vec(1, 120, |g| g.u64());
        let mut thb = Thb::new(MAX_PATH_LENGTH, k);
        let mut rolling = RollingHashers::new(count, k);
        for &raw in &targets {
            let t = Addr::new(raw);
            thb.push(t);
            rolling.push(t);
            for len in 1..=count {
                prop_assert_eq!(rolling.index(len), hash_path(&thb, len), "len {}", len);
            }
        }
        Ok(())
    });
}

/// Hash indices always fit in k bits.
#[test]
fn hash_indices_fit_index_width() {
    check("hash_indices_fit_index_width", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 30);
        let targets = g.vec(1, 60, |g| g.u64());
        let mut rolling = RollingHashers::new(8, k);
        for &raw in &targets {
            rolling.push(Addr::new(raw));
            for x in 1..=8 {
                prop_assert!(rolling.index(x) < (1u64 << k));
            }
        }
        Ok(())
    });
}

/// The THB is a faithful sliding window: after any push sequence,
/// T_1..T_len are the most recent pushes, newest first, compressed.
#[test]
fn thb_is_a_sliding_window() {
    check("thb_is_a_sliding_window", CheckConfig::default(), |g| {
        let capacity = g.range_usize(1, 32);
        let k = g.range_u32(1, 32);
        let targets = g.vec(0, 80, |g| g.u64());
        let mut thb = Thb::new(capacity, k);
        for &raw in &targets {
            thb.push(Addr::new(raw));
        }
        let expected: Vec<u64> =
            targets.iter().rev().take(capacity).map(|&raw| Addr::new(raw).low_bits(k)).collect();
        let got: Vec<u64> = thb.path(capacity).collect();
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(got[i], *want, "slot {}", i);
        }
        for (slot, &value) in got.iter().enumerate().skip(expected.len()) {
            prop_assert_eq!(value, 0, "empty slot {}", slot);
        }
        Ok(())
    });
}

/// Assignments store and retrieve arbitrary pc -> hash mappings.
#[test]
fn hash_assignment_is_a_map() {
    check("hash_assignment_is_a_map", CheckConfig::default(), |g| {
        let default = g.range_u8(1, 32);
        let entries: HashMap<u64, u8> =
            g.vec(0, 50, |g| (g.u64(), g.range_u8(1, 32))).into_iter().collect();
        let mut assignment = HashAssignment::fixed(default);
        for (&pc, &n) in &entries {
            assignment.assign(Addr::new(pc), n);
        }
        for (&pc, &n) in &entries {
            prop_assert_eq!(assignment.get(Addr::new(pc)), n);
        }
        prop_assert_eq!(assignment.assigned_count(), entries.len());
        let histogram = assignment.length_histogram();
        prop_assert_eq!(histogram.iter().sum::<usize>(), entries.len());
        Ok(())
    });
}

/// A predictor is a deterministic state machine: the same trace produces
/// the same prediction sequence.
#[test]
fn path_predictor_is_deterministic() {
    check("path_predictor_is_deterministic", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 400);
        let length = g.range_u8(1, 16);
        let run = || {
            let mut p = PathConditional::new(PathConfig::new(10), HashAssignment::fixed(length));
            let mut outcomes = Vec::new();
            for r in trace.iter() {
                if r.is_conditional() {
                    outcomes.push(p.predict(r.pc()));
                    p.train(r.pc(), r.taken());
                }
                p.observe(r);
            }
            outcomes
        };
        prop_assert_eq!(run(), run());
        Ok(())
    });
}

/// Profiling only assigns hash numbers from the configured set, and only
/// to branches that actually appear in the trace.
#[test]
fn profiling_respects_hash_set() {
    check("profiling_respects_hash_set", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 600);
        let hash_set = vec![2u8, 5, 9];
        let config = ProfileConfig::new(PathConfig::new(8))
            .with_hash_set(hash_set.clone())
            .with_iterations(2);
        let report = ProfileBuilder::new(config).profile_conditional(&trace);
        prop_assert!(hash_set.contains(&report.default_hash));
        for (pc, n) in report.assignment.iter() {
            prop_assert!(hash_set.contains(&n), "branch {pc} got hash {n}");
            prop_assert!(
                trace.conditionals().any(|r| r.pc() == pc),
                "assigned branch {pc} not in trace"
            );
        }
        prop_assert_eq!(report.step1.len(), hash_set.len());
        Ok(())
    });
}

/// Step 1 (packed per-hash planes, dense branch ids, rolling partial
/// sums, blocked hash-major scoring) produces exactly the per-hash
/// totals and per-branch candidates of the straightforward
/// implementation: one plain table per configured hash number, driven
/// record by record through [`hash_path`] over a [`Thb`].
#[test]
fn fused_step1_matches_per_table_reference() {
    check("fused_step1_matches_per_table_reference", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 500);
        let path = PathConfig::new(g.range_u32(2, 10));
        let top = g.range_usize(1, 16);
        let hash_set = sparse_hash_set(g, top);
        let config = ProfileConfig::new(path.clone())
            .with_hash_set(hash_set.clone())
            .with_candidates(g.range_usize(1, 4));
        let builder = ProfileBuilder::new(config.clone());
        for (population, conditional) in
            [(Population::Conditional, true), (Population::Indirect, false)]
        {
            let report = builder.step1(&trace, population);
            let (reference, tallies) = reference_step1(&path, &hash_set, &trace, conditional);
            prop_assert_eq!(report.totals.len(), reference.len());
            for (got, want) in report.totals.iter().zip(reference.iter()) {
                prop_assert_eq!(got.hash, want.hash, "hash number order");
                prop_assert_eq!(
                    got.predictions,
                    want.predictions,
                    "predictions for hash {}",
                    want.hash
                );
                prop_assert_eq!(got.correct, want.correct, "correct for hash {}", want.hash);
            }
            let want = reference_candidates(&config, &tallies);
            prop_assert_eq!(report.branches(), want.len());
            for (pc, candidates) in report.candidates() {
                prop_assert_eq!(Some(&candidates.to_vec()), want.get(&pc.raw()), "branch {}", pc);
            }
        }
        Ok(())
    });
}

/// The whole heuristic — step 1 plus step 2 on the kernels — produces
/// exactly the report of the reference heuristic built on the
/// direct-definition predictors: same assignment, default hash, step-1
/// totals and branch count, over random structures, hash sets,
/// candidate and iteration counts, recording policies and history
/// stacks, for both populations.
#[test]
fn profile_builder_matches_boxed_reference() {
    check("profile_builder_matches_boxed_reference", CheckConfig::default(), |g| {
        // One case in eight runs long enough to cross step-1 block
        // boundaries.
        let length = if g.below(8) == 0 { 40_000 } else { g.range_usize(0, 800) };
        let trace = call_return_trace(g.u64(), length);
        let mut path = PathConfig::new(g.range_u32(4, 16));
        let top = g.range_usize(1, MAX_PATH_LENGTH);
        path.store_returns = g.bool();
        if g.bool() {
            path = path.with_history_stack(g.range_usize(1, 8));
        }
        let hash_set = sparse_hash_set(g, top);
        let config = ProfileConfig::new(path)
            .with_hash_set(hash_set)
            .with_candidates(g.range_usize(1, 4))
            .with_iterations(g.range_usize(0, 7));
        let builder = ProfileBuilder::new(config.clone());
        for (conditional, report) in
            [(true, builder.profile_conditional(&trace)), (false, builder.profile_indirect(&trace))]
        {
            let reference = reference_profile(&config, &trace, conditional);
            prop_assert_eq!(
                report.assignment,
                reference.assignment,
                "conditional: {}",
                conditional
            );
            prop_assert_eq!(report.default_hash, reference.default_hash);
            prop_assert_eq!(report.step1, reference.step1);
            prop_assert_eq!(report.profiled_branches, reference.profiled_branches);
        }
        Ok(())
    });
}

/// A random non-empty strictly-increasing subset of `1..=top`.
fn sparse_hash_set(g: &mut Gen, top: usize) -> Vec<u8> {
    let mut hash_set: Vec<u8> = (1..=top as u8).filter(|_| g.below(2) == 0).collect();
    if hash_set.is_empty() {
        hash_set.push(g.range_u8(1, top as u8));
    }
    hash_set
}

/// The §3.5 heuristic as a straightforward reference: per-table step 1
/// ([`reference_step1`]), candidates by sorting each branch's tallies,
/// and step 2 on the reference [`PathConditional`] / [`PathIndirect`]
/// with per-branch miss maps.
struct ReferenceProfile {
    assignment: HashAssignment,
    default_hash: u8,
    step1: Vec<HashStat>,
    profiled_branches: usize,
}

fn reference_profile(config: &ProfileConfig, trace: &Trace, conditional: bool) -> ReferenceProfile {
    let (step1, tallies) = reference_step1(&config.path, &config.hash_set, trace, conditional);
    // Lowest miss rate; ties toward the shorter path.
    let default_hash = step1
        .iter()
        .min_by(|a, b| a.miss_rate().partial_cmp(&b.miss_rate()).unwrap().then(a.hash.cmp(&b.hash)))
        .map(|s| s.hash)
        .unwrap();
    let candidates = reference_candidates(config, &tallies);

    // misses[pc][candidate]: None = never tested, chosen first.
    let mut misses: HashMap<u64, Vec<Option<u64>>> =
        candidates.iter().map(|(&pc, c)| (pc, vec![None; c.len()])).collect();
    let choose = |misses: &HashMap<u64, Vec<Option<u64>>>| -> HashMap<u64, usize> {
        misses
            .iter()
            .map(|(&pc, tested)| {
                let best = (0..tested.len()).min_by_key(|&i| (tested[i].unwrap_or(0), i)).unwrap();
                (pc, best)
            })
            .collect()
    };
    let assign = |chosen: &HashMap<u64, usize>| -> HashAssignment {
        let mut assignment = HashAssignment::fixed(default_hash);
        for (&pc, &c) in chosen {
            assignment.assign(Addr::new(pc), candidates[&pc][c]);
        }
        assignment
    };
    for _ in 0..config.iterations {
        let chosen = choose(&misses);
        let counts = boxed_misses(&config.path, assign(&chosen), trace, conditional);
        for (&pc, &c) in &chosen {
            misses.get_mut(&pc).unwrap()[c] = Some(counts.get(&pc).copied().unwrap_or(0));
        }
    }
    ReferenceProfile {
        assignment: assign(&choose(&misses)),
        default_hash,
        step1,
        profiled_branches: tallies.len(),
    }
}

/// Per-branch misprediction counts of the reference predictor over
/// `trace`.
fn boxed_misses(
    path: &PathConfig,
    assignment: HashAssignment,
    trace: &Trace,
    conditional: bool,
) -> HashMap<u64, u64> {
    let mut misses: HashMap<u64, u64> = HashMap::new();
    let mut cond = PathConditional::new(path.clone(), assignment.clone());
    let mut ind = PathIndirect::new(path.clone(), assignment);
    for record in trace.iter() {
        if conditional && record.is_conditional() {
            if cond.predict(record.pc()) != record.taken() {
                *misses.entry(record.pc().raw()).or_insert(0) += 1;
            }
            cond.train(record.pc(), record.taken());
        } else if !conditional && record.is_indirect() {
            if ind.predict(record.pc()) != record.target() {
                *misses.entry(record.pc().raw()).or_insert(0) += 1;
            }
            ind.train(record.pc(), record.target());
        }
        if conditional {
            cond.observe(record);
        } else {
            ind.observe(record);
        }
    }
    misses
}

/// Each branch's `candidates` best hash numbers from per-branch tallies
/// (most correct first; ties toward shorter paths).
fn reference_candidates(
    config: &ProfileConfig,
    tallies: &HashMap<u64, Vec<u64>>,
) -> HashMap<u64, Vec<u8>> {
    tallies
        .iter()
        .map(|(&pc, correct)| {
            let mut order: Vec<usize> = (0..correct.len()).collect();
            order.sort_by(|&a, &b| correct[b].cmp(&correct[a]).then(a.cmp(&b)));
            (pc, order.iter().take(config.candidates).map(|&i| config.hash_set[i]).collect())
        })
        .collect()
}

/// Step 1 straight from the paper: one private table per hash number
/// — a `Vec<Counter2>` (conditional) or `Vec<Option<u64>>` of targets
/// (indirect) — each predicting and training at `hash_path(&thb, X)`
/// on every relevant record. Returns the per-hash totals and each
/// branch's correct count per hash.
fn reference_step1(
    path: &PathConfig,
    hash_set: &[u8],
    trace: &Trace,
    conditional: bool,
) -> (Vec<HashStat>, HashMap<u64, Vec<u64>>) {
    let entries = 1usize << path.index_bits;
    let (counter_len, target_len) = if conditional { (entries, 0) } else { (0, entries) };
    let mut thb = Thb::new(MAX_PATH_LENGTH, path.index_bits);
    let mut counters = vec![vec![Counter2::default(); counter_len]; hash_set.len()];
    let mut targets = vec![vec![None::<u64>; target_len]; hash_set.len()];
    let mut stats: Vec<HashStat> =
        hash_set.iter().map(|&hash| HashStat { hash, predictions: 0, correct: 0 }).collect();
    let mut tallies: HashMap<u64, Vec<u64>> = HashMap::new();
    for record in trace.iter() {
        let relevant = if conditional { record.is_conditional() } else { record.is_indirect() };
        if relevant {
            let tally = tallies.entry(record.pc().raw()).or_insert_with(|| vec![0; hash_set.len()]);
            for (hi, &hash) in hash_set.iter().enumerate() {
                let index = hash_path(&thb, hash as usize) as usize;
                let correct = if conditional {
                    let counter = &mut counters[hi][index];
                    let correct = counter.predict_taken() == record.taken();
                    counter.update(record.taken());
                    correct
                } else {
                    let slot = &mut targets[hi][index];
                    let correct = slot.unwrap_or(0) == record.target().raw();
                    *slot = Some(record.target().raw());
                    correct
                };
                stats[hi].predictions += 1;
                stats[hi].correct += correct as u64;
                tally[hi] += correct as u64;
            }
        }
        if record.enters_thb() || (path.store_returns && record.kind() == BranchKind::Return) {
            thb.push(record.target());
        }
    }
    (stats, tallies)
}

/// A deterministic pseudo-random trace with nested calls and returns
/// (so the recording policy and the history stack matter) around
/// conditional, indirect and unconditional branches.
fn call_return_trace(seed: u64, n: usize) -> Trace {
    let mut x = seed | 1;
    let mut trace = Trace::new();
    let mut depth = 0usize;
    for _ in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pc = Addr::new(((x >> 8) & 0x7f) << 2 | 0x1000);
        let target = Addr::new(((x >> 16) & 0xff) << 2 | 0x2000);
        match (x >> 40) % 10 {
            0..=5 => trace.push(BranchRecord::conditional(pc, target, (x >> 3) & 1 == 0)),
            6 => trace.push(BranchRecord::indirect(pc, target)),
            7 => trace.push(BranchRecord::unconditional(pc, target)),
            8 if depth < 12 => {
                depth += 1;
                trace.push(BranchRecord::call(pc, target));
            }
            _ if depth > 0 => {
                depth -= 1;
                trace.push(BranchRecord::ret(pc, target));
            }
            _ => trace.push(BranchRecord::conditional(pc, target, true)),
        }
    }
    trace
}

/// A deterministic pseudo-random mixed trace.
fn random_trace(seed: u64, n: usize) -> Trace {
    let mut x = seed | 1;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mut trace = Trace::new();
    for _ in 0..n {
        let r = step();
        let pc = Addr::new(((r >> 8) & 0xff) << 2 | 0x1000);
        let target = Addr::new(((r >> 16) & 0xff) << 2 | 0x2000);
        match r % 5 {
            0..=2 => trace.push(BranchRecord::conditional(pc, target, r & 1 == 0)),
            3 => trace.push(BranchRecord::indirect(pc, target)),
            _ => trace.push(BranchRecord::unconditional(pc, target)),
        }
    }
    trace
}
