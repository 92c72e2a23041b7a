//! The two-step profiling heuristic (paper §3.5) that selects a hash
//! function number for each static branch.
//!
//! **Step 1** simulates one *fixed length* path predictor per hash
//! function — each with its own private table — over the profile trace,
//! recording per static branch how many times each predictor was correct.
//! The `candidates` best hash numbers per branch survive.
//!
//! **Step 2** reduces the interference that appears when all hash
//! functions share the *single* table of the real predictor: it simulates
//! the variable length path predictor `iterations` times (the paper uses
//! 7). Each iteration picks, per branch, the candidate with the fewest
//! recorded mispredictions (never-tested candidates count as zero, so
//! every candidate is tried), simulates, and writes each branch's
//! misprediction count back into the record for the candidate that was
//! tested. The final assignment takes each branch's best-recorded
//! candidate.
//!
//! Unprofiled branches get the *default* hash number — the one whose
//! step-1 predictor scored the most correct predictions overall.
//!
//! Because step 1 *is* a sweep of every fixed path length over the
//! profile input, its per-hash totals ([`Step1Report::totals`], copied
//! into [`ProfileReport::step1`]) are also how the workspace reproduces
//! Table 2 (best fixed length per table size) and the "tuned" fixed
//! length predictor of Figures 9–10. [`ProfileBuilder::step1`] and
//! [`ProfileBuilder::step2`] are public so a caller can run step 1 once
//! and share its report between both uses.
//!
//! Both steps run on flat state:
//!
//! * step 1 numbers branches densely in first-seen order behind a
//!   direct-mapped pc cache, keeps one packed
//!   [`CounterPlane`]/[`TargetPlane`] per hash number, tallies correct
//!   predictions in one flat `[hash × branch]` array, and reads every
//!   hash index from one rolling partial sum
//!   (`I_X(t) = S(t) XOR rotl(S(t−X), X)`, see
//!   [`RollingHashers`](crate::RollingHashers)). It buffers the trace in
//!   fixed-size blocks and walks each block once per hash, so only one
//!   hash's table is hot at a time and its scratch memory does not grow
//!   with the trace;
//! * step 2 drives [`CondKernel`]/[`IndKernel`] and reads each branch's
//!   misses from their per-branch rows, which the kernels number in the
//!   same first-seen order.
//!
//! The differential tests in `tests/prop_core.rs` rebuild the heuristic
//! from the paper's definitions — step 1 on a [`Thb`](crate::Thb),
//! [`hash_path`](crate::hash_path) and one plain table per hash, step 2
//! on the reference [`PathConditional`](crate::PathConditional) /
//! [`PathIndirect`](crate::PathIndirect) — and require identical
//! reports.

use std::collections::HashMap;

use vlpp_predict::CounterPlane;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

use crate::hash::{rolled, window};
use crate::kernel::{CondKernel, IndKernel, TargetPlane};
use crate::path::PathConfig;
use crate::select::HashAssignment;
use crate::MAX_PATH_LENGTH;

/// Parameters of the profiling heuristic.
///
/// # Example
///
/// ```
/// use vlpp_core::{PathConfig, ProfileConfig};
///
/// let p = ProfileConfig::new(PathConfig::conditional_for_bytes(4096));
/// assert_eq!(p.candidates, 3);
/// assert_eq!(p.iterations, 7);
/// assert_eq!(p.hash_set.len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileConfig {
    /// The predictor structure profiled for (and that the resulting
    /// assignment should be used with).
    pub path: PathConfig,
    /// The hash function numbers implemented, in increasing order.
    /// Default: `1..=32` (one per THB slot). A sparse subset models the
    /// §3.1 note about implementing fewer hash functions.
    pub hash_set: Vec<u8>,
    /// Candidates kept per static branch after step 1 (paper: 3).
    pub candidates: usize,
    /// Step-2 iterations (paper: 7; must be ≥ `candidates` for every
    /// candidate to be tested).
    pub iterations: usize,
}

impl ProfileConfig {
    /// The paper's configuration for a given predictor structure: hash
    /// set `1..=32`, 3 candidates, 7 iterations.
    pub fn new(path: PathConfig) -> Self {
        let hash_set = (1..=MAX_PATH_LENGTH as u8).collect();
        ProfileConfig { path, hash_set, candidates: 3, iterations: 7 }
    }

    /// Replaces the hash set (for the subset-of-hash-functions ablation).
    ///
    /// # Panics
    ///
    /// Panics if `hash_set` is empty, unsorted, or contains numbers
    /// outside `1..=32`. Hash number `X` reads the `X` most recent THB
    /// targets, so a number above the THB capacity has no defined
    /// meaning.
    pub fn with_hash_set(mut self, hash_set: Vec<u8>) -> Self {
        assert!(!hash_set.is_empty(), "hash set must not be empty");
        assert!(hash_set.windows(2).all(|w| w[0] < w[1]), "hash set must be strictly increasing");
        assert!(
            hash_set.iter().all(|&h| h >= 1 && h as usize <= MAX_PATH_LENGTH),
            "hash numbers must be in 1..={MAX_PATH_LENGTH} (the THB capacity); got {hash_set:?}"
        );
        self.hash_set = hash_set;
        self
    }

    /// Replaces the number of step-1 candidates per branch.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is 0.
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        assert!(candidates >= 1, "need at least one candidate");
        self.candidates = candidates;
        self
    }

    /// Replaces the number of step-2 iterations. Zero iterations skips
    /// step 2 entirely (the `interference` ablation).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }
}

/// Step-1 accuracy totals for one hash function across the whole profile
/// trace — i.e. the performance of the *fixed length* path predictor of
/// that length on this workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashStat {
    /// The hash function number (path length).
    pub hash: u8,
    /// Dynamic branches predicted.
    pub predictions: u64,
    /// Correct predictions.
    pub correct: u64,
}

impl HashStat {
    /// Misprediction rate in [0, 1]; zero if nothing was predicted.
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            (self.predictions - self.correct) as f64 / self.predictions as f64
        }
    }
}

/// The output of profiling: the per-branch assignment plus diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// The hash assignment to build the variable length path predictor
    /// with.
    pub assignment: HashAssignment,
    /// The default hash number (also `assignment.default_hash()`).
    pub default_hash: u8,
    /// Step-1 totals, one entry per hash number in the configured set.
    pub step1: Vec<HashStat>,
    /// Number of static branches exercised during profiling.
    pub profiled_branches: usize,
}

impl ProfileReport {
    /// The hash number whose *fixed length* predictor had the lowest
    /// step-1 misprediction rate — how the "tuned" fixed length
    /// predictor of Figures 9–10 picks its per-benchmark length.
    pub fn best_fixed_hash(&self) -> u8 {
        best_hash(&self.step1)
    }
}

/// Lowest-miss-rate hash; ties break toward the shorter path (faster
/// training, less interference).
fn best_hash(stats: &[HashStat]) -> u8 {
    stats
        .iter()
        .min_by(|a, b| {
            a.miss_rate()
                .partial_cmp(&b.miss_rate())
                .expect("rates are finite")
                .then(a.hash.cmp(&b.hash))
        })
        .map(|s| s.hash)
        .unwrap_or(1)
}

/// Which branch population a profile run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Population {
    /// Conditional branches, predicted by 2-bit counters.
    Conditional,
    /// Indirect branches (returns excluded), predicted by target
    /// registers.
    Indirect,
}

/// The output of step 1: everything step 2 and the Table-2 sweep read
/// from the fixed-length predictors, without the per-branch tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step1Report {
    /// Per-hash totals, one entry per hash number in the configured set.
    pub totals: Vec<HashStat>,
    /// Profiled branch pcs in first-seen order.
    pcs: Vec<u64>,
    /// Each branch's candidate hash numbers, best first:
    /// `[branch × per_branch]`.
    candidates: Vec<u8>,
    per_branch: usize,
}

impl Step1Report {
    /// Number of static branches exercised during profiling.
    pub fn branches(&self) -> usize {
        self.pcs.len()
    }

    /// Each profiled branch with its candidate hash numbers (most
    /// correct step-1 predictions first, ties toward shorter paths), in
    /// first-seen order.
    pub fn candidates(&self) -> impl Iterator<Item = (Addr, &[u8])> + '_ {
        self.pcs.iter().map(|&pc| Addr::new(pc)).zip(self.candidates.chunks(self.per_branch))
    }
}

/// Runs the §3.5 heuristic over profile traces.
///
/// # Example
///
/// ```
/// use vlpp_core::{CondKernel, PathConfig, ProfileBuilder, ProfileConfig};
/// use vlpp_trace::{Addr, BranchRecord, Trace};
///
/// let mut trace = Trace::new();
/// for i in 0..100u64 {
///     let taken = i % 2 == 0;
///     trace.push(BranchRecord::conditional(Addr::new(0x40), Addr::new(0x80 + 4 * (taken as u64)), taken));
/// }
/// let config = ProfileConfig::new(PathConfig::new(8));
/// let report = ProfileBuilder::new(config.clone()).profile_conditional(&trace);
/// let _vlp = CondKernel::new(&config.path, &report.assignment);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    config: ProfileConfig,
}

impl ProfileBuilder {
    /// Creates a builder with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.hash_set` is empty or names a hash number
    /// outside `1..=32` (possible by mutating the public fields
    /// directly; [`ProfileConfig::with_hash_set`] already rejects both).
    pub fn new(config: ProfileConfig) -> Self {
        assert!(!config.hash_set.is_empty(), "hash set must not be empty");
        assert!(
            config.hash_set.iter().all(|&h| h >= 1 && h as usize <= MAX_PATH_LENGTH),
            "hash numbers must be in 1..={MAX_PATH_LENGTH} (the THB capacity)"
        );
        ProfileBuilder { config }
    }

    /// The configuration this builder profiles with.
    pub fn config(&self) -> &ProfileConfig {
        &self.config
    }

    /// Profiles conditional branches over `trace` and produces the
    /// assignment for a conditional variable length path predictor.
    pub fn profile_conditional(&self, trace: &Trace) -> ProfileReport {
        self.profile(trace, Population::Conditional)
    }

    /// Profiles indirect branches over `trace` and produces the
    /// assignment for an indirect variable length path predictor.
    pub fn profile_indirect(&self, trace: &Trace) -> ProfileReport {
        self.profile(trace, Population::Indirect)
    }

    /// Runs both steps for `population` over `trace`.
    fn profile(&self, trace: &Trace, population: Population) -> ProfileReport {
        self.step2(trace, population, &self.step1(trace, population))
    }

    /// Step 1: one private-table fixed-length predictor per hash number,
    /// scored per branch. The result depends on the configuration's
    /// path structure, hash set and candidate count, not on its
    /// iteration count.
    pub fn step1(&self, trace: &Trace, population: Population) -> Step1Report {
        let report = self.scan(trace, population, BLOCK);
        // `core.profile.step1_records`: trace records scanned by step 1,
        // process-wide (see OBSERVABILITY.md).
        vlpp_metrics::counter("core.profile.step1_records").add(trace.len() as u64);
        report
    }

    /// Step 1 in blocks of at most `block` scored records.
    fn scan(&self, trace: &Trace, population: Population, block: usize) -> Step1Report {
        match population {
            Population::Conditional => self.scan_with::<CounterPlane>(trace, block),
            Population::Indirect => self.scan_with::<TargetPlane>(trace, block),
        }
    }

    fn scan_with<P: Step1Plane>(&self, trace: &Trace, block: usize) -> Step1Report {
        let mut scan = Step1Scan::<P>::new(&self.config, block);
        for record in trace.iter() {
            scan.push(record);
        }
        scan.finish()
    }

    /// Step 2: iterated candidate refinement against the shared table,
    /// starting from `step1` (which must come from this configuration's
    /// [`step1`](Self::step1) over the same trace and population).
    ///
    /// # Panics
    ///
    /// Panics if `step1` was computed for a different hash set or
    /// candidate count, or if its branches are not the ones `trace`
    /// exercises.
    pub fn step2(
        &self,
        trace: &Trace,
        population: Population,
        step1: &Step1Report,
    ) -> ProfileReport {
        let cfg = &self.config;
        let hashes: Vec<u8> = step1.totals.iter().map(|s| s.hash).collect();
        assert_eq!(hashes, cfg.hash_set, "step-1 report is for another hash set");
        let per = step1.per_branch;
        assert_eq!(
            per,
            cfg.candidates.min(hashes.len()),
            "step-1 report is for another candidate count"
        );
        let default_hash = best_hash(&step1.totals);

        // misses[branch × candidate]: misprediction count from the
        // iteration that tested this candidate; None = never tested, and
        // per the paper "untested candidates will always be chosen first"
        // because they count as zero mispredictions.
        let mut misses: Vec<Option<u64>> = vec![None; step1.candidates.len()];
        let choose = |misses: &[Option<u64>]| -> Vec<usize> {
            misses
                .chunks(per)
                .map(|tested| {
                    (0..per)
                        .min_by_key(|&i| (tested[i].unwrap_or(0), i))
                        .expect("every branch has at least one candidate")
                })
                .collect()
        };
        let assign = |chosen: &[usize]| -> HashAssignment {
            let mut assignment = HashAssignment::fixed(default_hash);
            for ((pc, candidates), &c) in step1.candidates().zip(chosen) {
                assignment.assign(pc, candidates[c]);
            }
            assignment
        };

        // `core.profile.step2_iterations`: refinement simulations run,
        // process-wide (see OBSERVABILITY.md).
        let iterations = vlpp_metrics::counter("core.profile.step2_iterations");

        for _ in 0..cfg.iterations {
            iterations.incr();
            let chosen = choose(&misses);
            let counts = self.simulate(trace, population, &assign(&chosen), &step1.pcs);
            for (branch, (&c, count)) in chosen.iter().zip(counts).enumerate() {
                misses[branch * per + c] = Some(count);
            }
        }

        // Final selection: fewest recorded mispredictions per branch.
        ProfileReport {
            assignment: assign(&choose(&misses)),
            default_hash,
            step1: step1.totals.clone(),
            profiled_branches: step1.branches(),
        }
    }

    /// Simulates one variable length path predictor over the profile
    /// trace on the kernel, returning each branch's misprediction count
    /// in the order of `pcs`.
    fn simulate(
        &self,
        trace: &Trace,
        population: Population,
        assignment: &HashAssignment,
        pcs: &[u64],
    ) -> Vec<u64> {
        let path = &self.config.path;
        let rows: Vec<(u64, u64, u64)> = match population {
            Population::Conditional => {
                let mut kernel = CondKernel::new(path, assignment);
                for record in trace.iter() {
                    kernel.apply(record);
                }
                kernel.branch_stats().collect()
            }
            Population::Indirect => {
                let mut kernel = IndKernel::new(path, assignment);
                for record in trace.iter() {
                    kernel.apply(record);
                }
                kernel.branch_stats().collect()
            }
        };
        // The kernel numbers its rows in first-seen order over the same
        // records step 1 numbered, so row i is step-1 branch i.
        assert_eq!(rows.len(), pcs.len(), "step 2 saw other branches than step 1");
        rows.iter()
            .zip(pcs)
            .map(|(&(pc, _, misses), &want)| {
                assert_eq!(pc, want, "step 2 numbered branches unlike step 1");
                misses
            })
            .collect()
    }
}

/// Relevant records buffered per step-1 block. With the partial sums
/// (at most `BLOCK` + 33 of them) the buffers take about 400 KiB
/// whatever the trace length, and fit in L2 next to one hash's table.
const BLOCK: usize = 1 << 14;

/// Index bits of the step-1 pc cache: 4096 lines.
const ID_CACHE_BITS: u32 = 12;

/// An empty pc-cache line.
const NO_ID: u32 = u32::MAX;

/// Dense first-seen branch ids behind a direct-mapped, exact-tag pc
/// cache: in steady state a record costs no hash-map probe.
#[derive(Debug)]
struct BranchIds {
    lines: Box<[(u64, u32)]>,
    ids: HashMap<u64, u32>,
    pcs: Vec<u64>,
}

impl BranchIds {
    fn new() -> Self {
        BranchIds {
            lines: vec![(0, NO_ID); 1 << ID_CACHE_BITS].into_boxed_slice(),
            ids: HashMap::new(),
            pcs: Vec::new(),
        }
    }

    #[inline]
    fn id(&mut self, pc: Addr) -> u32 {
        let line = (pc.word() as usize) & ((1 << ID_CACHE_BITS) - 1);
        let (tag, id) = self.lines[line];
        if (tag == pc.raw()) & (id != NO_ID) {
            return id;
        }
        self.miss(pc.raw(), line)
    }

    #[cold]
    fn miss(&mut self, pc: u64, line: usize) -> u32 {
        let next = self.pcs.len() as u32;
        let id = *self.ids.entry(pc).or_insert(next);
        if id == next {
            self.pcs.push(pc);
        }
        self.lines[line] = (pc, id);
        id
    }
}

/// The step-1 scan: record-order buffering into blocks, hash-major
/// scoring of each full block.
#[derive(Debug)]
struct Step1Scan<'a, P> {
    config: &'a ProfileConfig,
    /// The private tables, one per configured hash number.
    planes: Vec<P>,
    /// Correct predictions, `[hash × stride]`; `stride` ≥ branch count.
    tallies: Vec<u32>,
    stride: usize,
    ids: BranchIds,
    block: Block,
    /// Scratch: the current hash's table indices.
    indices: Vec<u32>,
    /// Relevant records scored so far.
    events: u64,
}

/// One buffered block of the trace.
#[derive(Debug)]
struct Block {
    k: u32,
    mask: u64,
    /// The longest configured hash: how many past sums a block keeps.
    depth: usize,
    /// Scored records (and new partial sums) per block.
    capacity: usize,
    /// Partial sums `S`: the last `depth + 1` of the previous block,
    /// then one per THB insertion in this block. The last is `S(now)`.
    sums: Vec<u32>,
    /// Per buffered record: the position of its `S(t)` in `sums`,
    /// less `depth`.
    at: Vec<u32>,
    /// Per buffered record: its dense branch id.
    branch: Vec<u32>,
    /// Per buffered record: the outcome (taken as 0/1, or the target).
    outcome: Vec<u64>,
}

impl Block {
    /// Scores every buffered record against one hash's table. The
    /// indices are computed first, in one pass over the sums: for a
    /// dense block (most positions hold a scored record, as in the
    /// conditional population) one sequential pass over every
    /// position, looked up by position — about twice as fast as
    /// indexing record by record; for a sparse block (the indirect
    /// population) one index per record. Both give the same indices.
    #[inline]
    fn score<P: Step1Plane>(
        &self,
        hash: usize,
        plane: &mut P,
        tally: &mut [u32],
        indices: &mut Vec<u32>,
    ) {
        let (sums, depth, k, mask) = (&self.sums, self.depth, self.k, self.mask);
        let amount = hash as u32 % k;
        indices.clear();
        if 2 * self.at.len() < sums.len() - depth {
            indices.extend(self.at.iter().map(|&at| {
                let now = at as usize + depth;
                window(sums[now] as u64, sums[now - hash] as u64, amount, k, mask) as u32
            }));
            for ((&index, &branch), &outcome) in indices.iter().zip(&self.branch).zip(&self.outcome)
            {
                tally[branch as usize] += plane.score(index as usize, outcome) as u32;
            }
        } else {
            // `window` in 32-bit lanes (k ≤ 32).
            let (back, mask) = ((k - amount) & 31, mask as u32);
            indices.resize(sums.len() - depth, 0);
            for ((index, &now), &past) in
                indices.iter_mut().zip(&sums[depth..]).zip(&sums[depth - hash..])
            {
                *index = now ^ (((past << amount) | (past >> back)) & mask);
            }
            for ((&at, &branch), &outcome) in self.at.iter().zip(&self.branch).zip(&self.outcome) {
                let index = indices[at as usize] as usize;
                tally[branch as usize] += plane.score(index, outcome) as u32;
            }
        }
    }
}

/// A private step-1 table, and the population it predicts.
trait Step1Plane: Sized {
    /// A never-trained table of `len` entries.
    fn with_len(len: usize) -> Self;

    /// The outcome `record` is scored on — taken as 0/1, or the target —
    /// or `None` if it is not in this table's population.
    fn outcome(record: &BranchRecord) -> Option<u64>;

    /// Predicts with entry `i`, trains it with `outcome`, and says
    /// whether the prediction was correct.
    fn score(&mut self, i: usize, outcome: u64) -> bool;
}

impl Step1Plane for CounterPlane {
    fn with_len(len: usize) -> Self {
        CounterPlane::new(len)
    }

    #[inline]
    fn outcome(record: &BranchRecord) -> Option<u64> {
        record.is_conditional().then(|| record.taken() as u64)
    }

    #[inline]
    fn score(&mut self, i: usize, taken: u64) -> bool {
        let taken = taken != 0;
        self.predict_update(i, taken) == taken
    }
}

impl Step1Plane for TargetPlane {
    fn with_len(len: usize) -> Self {
        TargetPlane::new(len)
    }

    #[inline]
    fn outcome(record: &BranchRecord) -> Option<u64> {
        record.is_indirect().then(|| record.target().raw())
    }

    #[inline]
    fn score(&mut self, i: usize, target: u64) -> bool {
        let target = Addr::new(target);
        self.predict_train(i, Addr::NULL, target) == target
    }
}

impl<'a, P: Step1Plane> Step1Scan<'a, P> {
    fn new(config: &'a ProfileConfig, capacity: usize) -> Self {
        let k = config.path.index_bits;
        assert!((1..=32).contains(&k), "step 1 indexes tables of at most 2^32 entries");
        let depth = *config.hash_set.last().expect("hash set is non-empty") as usize;
        Step1Scan {
            config,
            planes: config.hash_set.iter().map(|_| P::with_len(1 << k)).collect(),
            tallies: Vec::new(),
            stride: 0,
            ids: BranchIds::new(),
            block: Block {
                k,
                mask: (1u64 << k) - 1,
                depth,
                capacity,
                sums: vec![0; depth + 1],
                at: Vec::with_capacity(capacity),
                branch: Vec::with_capacity(capacity),
                outcome: Vec::with_capacity(capacity),
            },
            indices: Vec::new(),
            events: 0,
        }
    }

    /// Buffers one record: a relevant record is scored against the
    /// history *before* its own target enters the THB.
    #[inline]
    fn push(&mut self, record: &BranchRecord) {
        let block = &mut self.block;
        if let Some(outcome) = P::outcome(record) {
            block.at.push((block.sums.len() - 1 - block.depth) as u32);
            block.branch.push(self.ids.id(record.pc()));
            block.outcome.push(outcome);
        }
        if record.enters_thb()
            || (self.config.path.store_returns && record.kind() == BranchKind::Return)
        {
            let now = *block.sums.last().expect("sums keep depth + 1 entries") as u64;
            let target = record.target().low_bits(block.k);
            block.sums.push(rolled(now, target, block.k, block.mask) as u32);
        }
        if block.at.len() == block.capacity || block.sums.len() > block.capacity + block.depth {
            self.flush();
        }
    }

    /// Scores the buffered block and keeps the sums the next block's
    /// first records look back on.
    fn flush(&mut self) {
        let branches = self.ids.pcs.len();
        if branches > self.stride {
            let stride = branches.next_power_of_two();
            let mut grown = vec![0; self.config.hash_set.len() * stride];
            if self.stride > 0 {
                for (to, from) in grown.chunks_mut(stride).zip(self.tallies.chunks(self.stride)) {
                    to[..self.stride].copy_from_slice(from);
                }
            }
            self.tallies = grown;
            self.stride = stride;
        }
        let block = &mut self.block;
        if !block.at.is_empty() {
            // One hash at a time, so only that hash's table is hot.
            let rows = self.tallies.chunks_mut(self.stride);
            for ((&hash, plane), tally) in
                self.config.hash_set.iter().zip(&mut self.planes).zip(rows)
            {
                block.score(hash as usize, plane, tally, &mut self.indices);
            }
        }
        self.events += block.at.len() as u64;
        block.at.clear();
        block.branch.clear();
        block.outcome.clear();
        let stale = block.sums.len() - (block.depth + 1);
        block.sums.drain(..stale);
    }

    /// Scores the last block, then totals the tallies and picks each
    /// branch's candidates.
    fn finish(mut self) -> Step1Report {
        self.flush();
        let hash_set = &self.config.hash_set;
        let per_branch = self.config.candidates.min(hash_set.len());
        let branches = self.ids.pcs.len();
        // Every relevant record made one prediction per hash.
        let totals: Vec<HashStat> = hash_set
            .iter()
            .enumerate()
            .map(|(hi, &hash)| HashStat {
                hash,
                predictions: self.events,
                correct: self.tallies[hi * self.stride..][..branches]
                    .iter()
                    .map(|&c| c as u64)
                    .sum(),
            })
            .collect();
        let mut candidates = Vec::with_capacity(branches * per_branch);
        let mut order: Vec<usize> = Vec::with_capacity(hash_set.len());
        for branch in 0..branches {
            let correct = |hi: usize| self.tallies[hi * self.stride + branch];
            order.clear();
            order.extend(0..hash_set.len());
            // Most correct first; tie toward earlier (shorter) hash.
            order.sort_by(|&a, &b| correct(b).cmp(&correct(a)).then(a.cmp(&b)));
            candidates.extend(order[..per_branch].iter().map(|&hi| hash_set[hi]));
        }
        Step1Report { totals, pcs: self.ids.pcs, candidates, per_branch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_predict::{BranchObserver, ConditionalPredictor};

    /// A workload with two conditional branches: one determined by the
    /// immediately preceding target (needs length 1) and one determined
    /// by the target two branches back (needs length >= 2).
    fn two_needs_trace(n: usize, seed: u64) -> Trace {
        let mut trace = Trace::new();
        let mut x = seed;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let far = (x >> 20) & 1 == 1;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let near = (x >> 20) & 1 == 1;
            // Target word addresses must stay distinct after 10-bit
            // compression, so use small values.
            // Encodes `far` two branches back.
            trace.push(BranchRecord::conditional(
                Addr::new(0x100),
                Addr::new(if far { 0x11 << 2 } else { 0x12 << 2 }),
                far,
            ));
            // Encodes `near` one branch back.
            trace.push(BranchRecord::conditional(
                Addr::new(0x200),
                Addr::new(if near { 0x23 << 2 } else { 0x24 << 2 }),
                near,
            ));
            // Needs only length 1 (depends on `near`).
            trace.push(BranchRecord::conditional(
                Addr::new(0x300),
                Addr::new(if near { 0x35 << 2 } else { 0x36 << 2 }),
                near,
            ));
            // Needs length 2 (depends on `far`; `near` in between is noise).
            trace.push(BranchRecord::conditional(
                Addr::new(0x400),
                Addr::new(if far { 0x47 << 2 } else { 0x48 << 2 }),
                far,
            ));
        }
        trace
    }

    fn config() -> ProfileConfig {
        ProfileConfig::new(PathConfig::new(10)).with_hash_set((1..=8).collect())
    }

    #[test]
    #[should_panic(expected = "THB capacity")]
    fn hash_set_above_thb_capacity_is_rejected() {
        // The default THB holds 32 targets, so hash number 33 would read
        // history that does not exist; it used to be silently clamped.
        ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![4, 33]);
    }

    #[test]
    #[should_panic(expected = "THB capacity")]
    fn hash_set_zero_is_rejected() {
        ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![0, 1]);
    }

    #[test]
    fn hash_set_at_capacity_is_accepted() {
        let config = ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![1, 32]);
        assert_eq!(config.hash_set, vec![1, 32]);
    }

    #[test]
    fn step1_totals_cover_all_hashes() {
        let trace = two_needs_trace(500, 42);
        let report = ProfileBuilder::new(config()).profile_conditional(&trace);
        assert_eq!(report.step1.len(), 8);
        for stat in &report.step1 {
            assert_eq!(stat.predictions, 2000);
            assert!(stat.correct <= stat.predictions);
        }
        assert_eq!(report.profiled_branches, 4);
    }

    #[test]
    fn assignment_gives_each_branch_enough_history() {
        let trace = two_needs_trace(800, 7);
        let report = ProfileBuilder::new(config()).profile_conditional(&trace);
        // Branch 0x400 needs >= 2 targets of history (actually 3: its own
        // distance includes the two interleaved branches). What matters:
        // its assigned length must exceed branch 0x300's needs and be
        // at least 2.
        let needs_long = report.assignment.get(Addr::new(0x400));
        assert!(needs_long >= 2, "0x400 needs at least 2, got {needs_long}");
        // The long-need branch must be nearly perfectly predicted with
        // the chosen assignment: verify via a fresh simulation.
        let test_trace = two_needs_trace(800, 99);
        let mut p = CondKernel::new(&config().path, &report.assignment);
        let mut misses = 0u64;
        let mut total = 0u64;
        for record in test_trace.iter() {
            if record.is_conditional() {
                if record.pc() == Addr::new(0x400) {
                    total += 1;
                    if p.predict(record.pc()) != record.taken() {
                        misses += 1;
                    }
                } else {
                    let _ = p.predict(record.pc());
                }
                p.train(record.pc(), record.taken());
            }
            p.observe(record);
        }
        assert!(
            (misses as f64 / total as f64) < 0.1,
            "long-path branch should be well predicted: {misses}/{total}"
        );
    }

    #[test]
    fn variable_beats_every_fixed_length_on_mixed_needs() {
        let profile_trace = two_needs_trace(800, 11);
        let test_trace = two_needs_trace(800, 12);
        let cfg = config();
        let report = ProfileBuilder::new(cfg.clone()).profile_conditional(&profile_trace);

        let run = |assignment: HashAssignment| -> u64 {
            let mut p = CondKernel::new(&cfg.path, &assignment);
            let mut misses = 0;
            for record in test_trace.iter() {
                if record.is_conditional() {
                    if p.predict(record.pc()) != record.taken() {
                        misses += 1;
                    }
                    p.train(record.pc(), record.taken());
                }
                p.observe(record);
            }
            misses
        };

        let vlp_misses = run(report.assignment.clone());
        for fixed in 1..=8u8 {
            let flp_misses = run(HashAssignment::fixed(fixed));
            assert!(
                vlp_misses <= flp_misses + 50,
                "VLP ({vlp_misses}) should not lose to fixed length {fixed} ({flp_misses})"
            );
        }
    }

    #[test]
    fn indirect_profiling_produces_assignment() {
        // Indirect branch whose target is determined by the previous
        // conditional's direction.
        let mut trace = Trace::new();
        let mut x = 3u64;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let flag = (x >> 20) & 1 == 1;
            trace.push(BranchRecord::conditional(
                Addr::new(0x100),
                Addr::new(if flag { 0x11 << 2 } else { 0x22 << 2 }),
                flag,
            ));
            trace.push(BranchRecord::indirect(
                Addr::new(0x200),
                Addr::new(if flag { 0x7000 } else { 0x8000 }),
            ));
        }
        let report = ProfileBuilder::new(config()).profile_indirect(&trace);
        assert_eq!(report.profiled_branches, 1);
        // Must be nearly perfect at some length; best fixed hash should
        // have a tiny miss rate.
        let best = report.step1.iter().find(|s| s.hash == report.best_fixed_hash()).unwrap();
        assert!(best.miss_rate() < 0.05, "got {}", best.miss_rate());
    }

    #[test]
    fn zero_iterations_skips_step2_but_still_assigns() {
        let trace = two_needs_trace(200, 5);
        let cfg = config().with_iterations(0);
        let report = ProfileBuilder::new(cfg).profile_conditional(&trace);
        // With no step-2 data every branch picks its first (step-1 best)
        // candidate.
        assert_eq!(report.assignment.assigned_count(), 4);
    }

    #[test]
    fn empty_trace_profiles_gracefully() {
        let report = ProfileBuilder::new(config()).profile_conditional(&Trace::new());
        assert_eq!(report.profiled_branches, 0);
        assert!(report.assignment.is_fixed());
        assert_eq!(report.step1.iter().map(|s| s.predictions).sum::<u64>(), 0);
    }

    #[test]
    fn best_fixed_hash_prefers_shorter_on_ties() {
        let stats = vec![
            HashStat { hash: 1, predictions: 100, correct: 90 },
            HashStat { hash: 2, predictions: 100, correct: 90 },
        ];
        assert_eq!(best_hash(&stats), 1);
    }

    #[test]
    fn step1_does_not_depend_on_the_block_size() {
        // Mixed kinds so the indirect population runs sparse blocks and
        // the conditional one dense blocks; sizes that split the trace
        // at every possible offset.
        let mut trace = two_needs_trace(300, 3);
        for i in 0..400u64 {
            trace.push(BranchRecord::indirect(
                Addr::new(0x500 + (i % 3) * 4),
                Addr::new(0x9000 + (i % 5) * 64),
            ));
            trace.push(BranchRecord::call(Addr::new(0x600), Addr::new(0x7000 + (i % 7) * 4)));
        }
        for population in [Population::Conditional, Population::Indirect] {
            for cfg in [config(), config().with_hash_set(vec![2, 5, 6]).with_candidates(4)] {
                let builder = ProfileBuilder::new(cfg);
                let whole = builder.scan(&trace, population, trace.len() + 1);
                for block in [1, 2, 3, 7, 64, 1000] {
                    assert_eq!(builder.scan(&trace, population, block), whole, "block {block}");
                }
            }
        }
    }

    #[test]
    fn candidate_count_is_respected() {
        let trace = two_needs_trace(300, 21);
        let cfg = config().with_candidates(1).with_iterations(2);
        let builder = ProfileBuilder::new(cfg);
        let step1 = builder.step1(&trace, Population::Conditional);
        assert_eq!(step1.branches(), 4);
        assert!(step1.candidates().all(|(_, c)| c.len() == 1));
    }
}
