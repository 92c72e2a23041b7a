//! [`PathConfig`], the structure every path predictor is built from, and
//! the direct-definition reference predictors [`PathConditional`] and
//! [`PathIndirect`] (paper §3.1, Figures 1 and 2).
//!
//! The product predictor is [`CondKernel`](crate::CondKernel) /
//! [`IndKernel`](crate::IndKernel). This module is the oracle they are
//! pinned to, written the way the paper states the predictor rather
//! than the way hardware computes it:
//!
//! * the first level is a [`Thb`], and every lookup evaluates
//!   [`hash_path`] (§3.3) over it from scratch — no §4.1 partial sums;
//! * the second level is a plain `Vec<Counter2>` or `Vec<Option<u64>>`;
//! * the §6 history stack saves the THB contents at a call and puts
//!   them back at the matching return.
//!
//! A fixed [`HashAssignment`] gives the paper's *fixed length path*
//! predictor and a profiled one the *variable length path* predictor.
//! [`PathConditional::new_dynamic`] adds §3.4 hardware selection, which
//! only the `ablate-select` experiment runs.

use vlpp_predict::{BranchObserver, Budget, ConditionalPredictor, Counter2, IndirectPredictor};
use vlpp_trace::{Addr, BranchKind, BranchRecord};

use crate::hash::hash_path;
use crate::select::{DynamicSelector, HashAssignment};
use crate::stack::HistoryStack;
use crate::thb::Thb;
use crate::MAX_PATH_LENGTH;

/// Structural parameters of a path predictor: everything except the
/// second-level table contents and the hash selection. The THB always
/// holds [`MAX_PATH_LENGTH`] targets, as in the paper.
///
/// # Example
///
/// ```
/// use vlpp_core::PathConfig;
///
/// let c = PathConfig::conditional_for_bytes(16 * 1024);
/// assert_eq!(c.index_bits, 16);
/// assert!(!c.store_returns);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathConfig {
    /// Width `k` of the predictor-table index and of each compressed
    /// target in the THB.
    pub index_bits: u32,
    /// Whether return targets enter the THB (§3.2 ablation; the paper's
    /// experiments leave them out).
    pub store_returns: bool,
    /// Depth of the §6 call/return history stack, or `None` to disable
    /// (the paper's experiments disable it; it is future work there).
    pub history_stack_depth: Option<usize>,
}

impl PathConfig {
    /// A configuration with the paper's defaults (no returns, no
    /// history stack) and the given index width.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index width must be in 1..=28, got {index_bits}");
        PathConfig { index_bits, store_returns: false, history_stack_depth: None }
    }

    /// A conditional-predictor configuration for a table of `bytes`
    /// bytes (2-bit counter entries).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is out of range.
    pub fn conditional_for_bytes(bytes: u64) -> Self {
        PathConfig::new(Budget::from_bytes(bytes).cond_index_bits())
    }

    /// An indirect-predictor configuration for a table of `bytes` bytes
    /// (4-byte target entries).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is out of range.
    pub fn indirect_for_bytes(bytes: u64) -> Self {
        PathConfig::new(Budget::from_bytes(bytes).ind_index_bits())
    }

    /// Returns the configuration with return targets recorded.
    pub fn with_returns(mut self) -> Self {
        self.store_returns = true;
        self
    }

    /// Returns the configuration with a call/return history stack of the
    /// given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    pub fn with_history_stack(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "history stack depth must be at least 1");
        self.history_stack_depth = Some(depth);
        self
    }
}

/// The first level: the THB plus the optional §6 stack of saved THBs.
#[derive(Debug, Clone)]
struct History {
    thb: Thb,
    stack: Option<HistoryStack>,
}

impl History {
    fn new(config: &PathConfig) -> Self {
        let thb = if config.store_returns {
            Thb::with_returns(MAX_PATH_LENGTH, config.index_bits)
        } else {
            Thb::new(MAX_PATH_LENGTH, config.index_bits)
        };
        History { thb, stack: config.history_stack_depth.map(HistoryStack::new) }
    }

    /// The table index `HF_hash` gives for the current path.
    fn index(&self, hash: u8) -> usize {
        hash_path(&self.thb, hash as usize) as usize
    }

    fn observe(&mut self, record: &BranchRecord) {
        if let Some(stack) = &mut self.stack {
            match record.kind() {
                BranchKind::Call => stack.push(self.thb.snapshot()),
                BranchKind::Return => {
                    if let Some(saved) = stack.pop() {
                        self.thb.restore(&saved);
                    }
                }
                _ => {}
            }
        }
        self.thb.observe(record);
    }
}

/// Where a conditional predictor's hash numbers come from.
#[derive(Debug, Clone)]
enum Selection {
    Static(HashAssignment),
    Dynamic(DynamicSelector),
}

/// The path-based conditional-branch predictor (paper Figure 1 with a
/// counter table), evaluated straight from its definition.
///
/// # Example
///
/// ```
/// use vlpp_core::{HashAssignment, PathConditional, PathConfig};
/// use vlpp_predict::{BranchObserver, ConditionalPredictor};
/// use vlpp_trace::{Addr, BranchRecord};
///
/// let mut p = PathConditional::new(
///     PathConfig::conditional_for_bytes(1024),
///     HashAssignment::fixed(6),
/// );
/// let pc = Addr::new(0x1000);
/// let _ = p.predict(pc);
/// p.train(pc, true);
/// p.observe(&BranchRecord::conditional(pc, Addr::new(0x2000), true));
/// ```
#[derive(Debug, Clone)]
pub struct PathConditional {
    history: History,
    selection: Selection,
    counters: Vec<Counter2>,
}

impl PathConditional {
    /// Creates a predictor with a static (compiler/profile) hash
    /// assignment.
    pub fn new(config: PathConfig, assignment: HashAssignment) -> Self {
        PathConditional::with_selection(&config, Selection::Static(assignment))
    }

    /// Creates a predictor with hardware-dynamic hash selection (§3.4)
    /// over the given candidate hash numbers, with `2^selector_set_bits`
    /// selector sets.
    ///
    /// Note the structural handicap the `ablate-select` experiment
    /// quantifies: all candidates score their accuracy against the one
    /// *shared* table, but only the currently selected candidate's index
    /// is ever trained, so unselected candidates are judged on stale
    /// entries and the selector tends to lock in early — §3.4 describes
    /// the idea without resolving this; profiling (the paper's choice)
    /// sidesteps it.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or contains hash numbers outside
    /// `1..=32`.
    pub fn new_dynamic(config: PathConfig, candidates: &[u8], selector_set_bits: u32) -> Self {
        let selector = DynamicSelector::new(candidates, selector_set_bits);
        PathConditional::with_selection(&config, Selection::Dynamic(selector))
    }

    fn with_selection(config: &PathConfig, selection: Selection) -> Self {
        PathConditional {
            history: History::new(config),
            selection,
            counters: vec![Counter2::default(); 1 << config.index_bits],
        }
    }

    /// The hash number used for `pc` right now.
    fn hash(&self, pc: Addr) -> u8 {
        match &self.selection {
            Selection::Static(assignment) => assignment.get(pc),
            Selection::Dynamic(selector) => selector.select(pc),
        }
    }

    /// The second-level table size in bytes (2 bits per counter).
    pub fn table_bytes(&self) -> u64 {
        self.counters.len() as u64 / 4
    }

    /// Every counter value in index order — the state the kernel
    /// differential tests compare.
    pub fn counter_values(&self) -> Vec<u8> {
        self.counters.iter().map(|c| c.value()).collect()
    }
}

impl BranchObserver for PathConditional {
    fn observe(&mut self, record: &BranchRecord) {
        self.history.observe(record);
    }
}

impl ConditionalPredictor for PathConditional {
    fn predict(&mut self, pc: Addr) -> bool {
        self.counters[self.history.index(self.hash(pc))].predict_taken()
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        // Dynamic selection first scores what every candidate would have
        // predicted, then trains the counter of the (possibly
        // re-selected) hash.
        if let Selection::Dynamic(selector) = &mut self.selection {
            for i in 0..selector.candidates().len() {
                let index = self.history.index(selector.candidates()[i]);
                selector.reward(pc, i, self.counters[index].predict_taken() == taken);
            }
        }
        let index = self.history.index(self.hash(pc));
        self.counters[index].update(taken);
    }

    fn name(&self) -> String {
        match &self.selection {
            Selection::Static(a) if a.is_fixed() => "fixed length path".into(),
            Selection::Static(_) => "variable length path".into(),
            Selection::Dynamic(_) => "dynamic path".into(),
        }
    }
}

/// The path-based indirect-branch predictor (paper Figure 1 with a table
/// of target registers), evaluated straight from its definition. Each
/// register holds a full 64-bit target (the budget still counts 4 bytes
/// per entry).
///
/// # Example
///
/// ```
/// use vlpp_core::{HashAssignment, PathConfig, PathIndirect};
/// use vlpp_predict::IndirectPredictor;
/// use vlpp_trace::Addr;
///
/// let mut p = PathIndirect::new(
///     PathConfig::indirect_for_bytes(2048),
///     HashAssignment::fixed(21),
/// );
/// let pc = Addr::new(0x1000);
/// assert_eq!(p.predict(pc), Addr::NULL); // cold table
/// p.train(pc, Addr::new(0x9000));
/// assert_eq!(p.predict(pc), Addr::new(0x9000));
/// ```
#[derive(Debug, Clone)]
pub struct PathIndirect {
    history: History,
    assignment: HashAssignment,
    targets: Vec<Option<u64>>,
}

impl PathIndirect {
    /// Creates a predictor with a static (compiler/profile) hash
    /// assignment.
    pub fn new(config: PathConfig, assignment: HashAssignment) -> Self {
        PathIndirect {
            history: History::new(&config),
            assignment,
            targets: vec![None; 1 << config.index_bits],
        }
    }

    fn index(&self, pc: Addr) -> usize {
        self.history.index(self.assignment.get(pc))
    }

    /// The second-level table size in bytes (4 bytes per register).
    pub fn table_bytes(&self) -> u64 {
        self.targets.len() as u64 * 4
    }

    /// Every register's stored target in index order (`None` for
    /// never-written registers) — the state the kernel differential
    /// tests compare.
    pub fn target_entries(&self) -> Vec<Option<u64>> {
        self.targets.clone()
    }
}

impl BranchObserver for PathIndirect {
    fn observe(&mut self, record: &BranchRecord) {
        self.history.observe(record);
    }
}

impl IndirectPredictor for PathIndirect {
    fn predict(&mut self, pc: Addr) -> Addr {
        Addr::new(self.targets[self.index(pc)].unwrap_or(0))
    }

    fn train(&mut self, pc: Addr, target: Addr) {
        let index = self.index(pc);
        self.targets[index] = Some(target.raw());
    }

    fn name(&self) -> String {
        if self.assignment.is_fixed() {
            "fixed length path".into()
        } else {
            "variable length path".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u64, target: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(Addr::new(pc), Addr::new(target), taken)
    }

    #[test]
    fn config_budget_constructors() {
        assert_eq!(PathConfig::conditional_for_bytes(4096).index_bits, 14);
        assert_eq!(PathConfig::indirect_for_bytes(512).index_bits, 7);
    }

    #[test]
    fn tables_follow_the_budget_accounting() {
        let config = PathConfig::conditional_for_bytes(4096);
        assert_eq!(PathConditional::new(config, HashAssignment::fixed(1)).table_bytes(), 4096);
        let config = PathConfig::indirect_for_bytes(512);
        assert_eq!(PathIndirect::new(config, HashAssignment::fixed(1)).table_bytes(), 512);
    }

    #[test]
    fn names_distinguish_fixed_and_variable() {
        let config = PathConfig::new(8);
        let fixed = PathConditional::new(config.clone(), HashAssignment::fixed(4));
        assert_eq!(fixed.name(), "fixed length path");
        let mut a = HashAssignment::fixed(4);
        a.assign(Addr::new(0x10), 2);
        let variable = PathConditional::new(config.clone(), a);
        assert_eq!(variable.name(), "variable length path");
        let dynamic = PathConditional::new_dynamic(config, &[1, 2, 4], 6);
        assert_eq!(dynamic.name(), "dynamic path");
    }

    #[test]
    fn conditional_learns_a_path_determined_branch() {
        // Branch at 0x9000 is taken iff the previous branch's target was
        // block A. A path predictor with length >= 1 nails this.
        let config = PathConfig::new(10);
        let mut p = PathConditional::new(config, HashAssignment::fixed(1));
        let block_a = Addr::new(0x100 << 2);
        let block_b = Addr::new(0x200 << 2);
        let mut correct = 0;
        let mut x: u32 = 5;
        for i in 0..2000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let go_a = (x >> 16) & 1 == 1;
            let lead_target = if go_a { block_a } else { block_b };
            p.observe(&cond(0x50, lead_target.raw(), true));
            let pc = Addr::new(0x9000);
            let prediction = p.predict(pc);
            p.train(pc, go_a);
            p.observe(&cond(0x9000, 0x9100, go_a));
            if prediction == go_a && i >= 200 {
                correct += 1;
            }
        }
        assert!(correct as f64 / 1800.0 > 0.95, "path length 1 should suffice, got {correct}");
    }

    #[test]
    fn indirect_learns_path_determined_targets() {
        let config = PathConfig::new(8);
        let mut p = PathIndirect::new(config, HashAssignment::fixed(1));
        let (ta, tb) = (Addr::new(0x4000), Addr::new(0x8000));
        // Lead targets must stay distinguishable after 8-bit word
        // compression.
        let block_a = Addr::new(0x11 << 2);
        let block_b = Addr::new(0x22 << 2);
        let mut correct = 0;
        let mut x: u32 = 77;
        for i in 0..2000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let go_a = (x >> 16) & 1 == 1;
            p.observe(&cond(0x50, if go_a { block_a } else { block_b }.raw(), true));
            let pc = Addr::new(0x9000);
            let actual = if go_a { ta } else { tb };
            if p.predict(pc) == actual && i >= 200 {
                correct += 1;
            }
            p.train(pc, actual);
            p.observe(&BranchRecord::indirect(pc, actual));
        }
        assert!(correct as f64 / 1800.0 > 0.95, "got {correct}");
    }

    #[test]
    fn variable_assignment_uses_different_indices_per_branch() {
        let config = PathConfig::new(12);
        let mut a = HashAssignment::fixed(8);
        a.assign(Addr::new(0x10), 1);
        a.assign(Addr::new(0x20), 32);
        let p = PathConditional::new(config, a);
        assert_eq!(p.hash(Addr::new(0x10)), 1);
        assert_eq!(p.hash(Addr::new(0x20)), 32);
        assert_eq!(p.hash(Addr::new(0x999)), 8);
    }

    #[test]
    fn history_stack_restores_caller_path() {
        let config = PathConfig::new(10).with_history_stack(8);
        let mut p = PathConditional::new(config, HashAssignment::fixed(4));
        // Build caller history.
        for i in 0..4u64 {
            p.observe(&cond(0x100 + 4 * i, (0x500 + i) << 2, true));
        }
        let caller_index = p.history.index(4);
        // Call; the callee pollutes history.
        p.observe(&BranchRecord::call(Addr::new(0x200), Addr::new(0x4000)));
        for i in 0..6u64 {
            p.observe(&cond(0x4000 + 4 * i, (0x900 + i) << 2, true));
        }
        assert_ne!(p.history.index(4), caller_index);
        // Return restores the caller's history.
        p.observe(&BranchRecord::ret(Addr::new(0x4100), Addr::new(0x204)));
        assert_eq!(p.history.index(4), caller_index);
    }

    #[test]
    fn without_stack_callee_history_persists() {
        let config = PathConfig::new(10);
        let mut p = PathConditional::new(config, HashAssignment::fixed(4));
        for i in 0..4u64 {
            p.observe(&cond(0x100 + 4 * i, (0x500 + i) << 2, true));
        }
        let caller_index = p.history.index(4);
        p.observe(&BranchRecord::call(Addr::new(0x200), Addr::new(0x4000)));
        for i in 0..6u64 {
            p.observe(&cond(0x4000 + 4 * i, (0x900 + i) << 2, true));
        }
        p.observe(&BranchRecord::ret(Addr::new(0x4100), Addr::new(0x204)));
        assert_ne!(p.history.index(4), caller_index);
    }

    #[test]
    fn dynamic_selection_converges_to_useful_length() {
        // Outcome depends on the path 2 back; HF_1 can't see it, HF_2 can.
        let config = PathConfig::new(10);
        let mut p = PathConditional::new_dynamic(config, &[1, 2], 4);
        let pc = Addr::new(0x9000);
        let mut x: u32 = 3;
        let mut correct = 0;
        for i in 0..4000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let hidden = (x >> 16) & 1 == 1;
            // Branch 2 back encodes `hidden` in its target.
            p.observe(&cond(0x50, if hidden { 0x100 << 2 } else { 0x200 << 2 }, true));
            // Branch 1 back is uncorrelated noise with a 50/50 target.
            let noise = (x >> 18) & 1 == 1;
            p.observe(&cond(0x60, if noise { 0x300 << 2 } else { 0x400 << 2 }, true));
            let prediction = p.predict(pc);
            p.train(pc, hidden);
            p.observe(&cond(pc.raw(), 0x9100, hidden));
            if prediction == hidden && i >= 1000 {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 3000.0 > 0.9,
            "dynamic selector should discover HF_2, got {correct}/3000"
        );
        assert_eq!(p.hash(pc), 2);
    }

    #[test]
    fn indirect_cold_predicts_null() {
        let mut p = PathIndirect::new(PathConfig::new(8), HashAssignment::fixed(3));
        assert_eq!(p.predict(Addr::new(0x10)), Addr::NULL);
    }

    #[test]
    fn indirect_keeps_targets_above_four_gib() {
        // Full-width registers: a branch whose pc and target live in
        // different 4 GiB regions still predicts its repeating target.
        let mut p = PathIndirect::new(PathConfig::new(8), HashAssignment::fixed(1));
        let (pc, target) = (Addr::new(0x1_0000_0040), Addr::new(0x7_0000_9000));
        p.train(pc, target);
        assert_eq!(p.predict(pc), target);
    }
}
