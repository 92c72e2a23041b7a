//! Hash-function selection (paper §3.4): which `HF_X` indexes the table
//! for each branch.
//!
//! The paper discusses three selection agents: the compiler (via profiling
//! and ISA bits — [`HashAssignment`]), the hardware (run-time accuracy
//! bookkeeping — [`DynamicSelector`]), or a combination. A fixed global
//! hash number (a [`HashAssignment::fixed`] assignment) degenerates to the
//! fixed-length path predictor.

use std::collections::HashMap;
use std::fmt;

use vlpp_trace::Addr;

/// A per-static-branch assignment of hash-function numbers, plus the
/// default used for branches never profiled (§3.4: "the default value
/// specifies the hash function that provides the highest branch
/// prediction accuracy for the average program").
///
/// # Example
///
/// ```
/// use vlpp_core::HashAssignment;
/// use vlpp_trace::Addr;
///
/// let mut a = HashAssignment::fixed(9);
/// a.assign(Addr::new(0x1000), 3);
/// assert_eq!(a.get(Addr::new(0x1000)), 3);
/// assert_eq!(a.get(Addr::new(0x2000)), 9); // default
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashAssignment {
    map: HashMap<u64, u8>,
    default: u8,
}

impl HashAssignment {
    /// Creates an assignment that maps every branch to `default` — the
    /// fixed-length path predictor's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `default` is 0 or greater than 32.
    pub fn fixed(default: u8) -> Self {
        assert!(
            default >= 1 && default as usize <= crate::MAX_PATH_LENGTH,
            "hash number must be in 1..=32, got {default}"
        );
        HashAssignment { map: HashMap::new(), default }
    }

    /// Assigns hash number `n` to the branch at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 32.
    pub fn assign(&mut self, pc: Addr, n: u8) {
        assert!(
            n >= 1 && n as usize <= crate::MAX_PATH_LENGTH,
            "hash number must be in 1..=32, got {n}"
        );
        self.map.insert(pc.raw(), n);
    }

    /// The hash number for the branch at `pc` (the default if the branch
    /// was never assigned).
    #[inline]
    pub fn get(&self, pc: Addr) -> u8 {
        self.map.get(&pc.raw()).copied().unwrap_or(self.default)
    }

    /// The default hash number.
    pub fn default_hash(&self) -> u8 {
        self.default
    }

    /// The number of branches with explicit assignments.
    pub fn assigned_count(&self) -> usize {
        self.map.len()
    }

    /// Whether this is a pure fixed-length configuration (no per-branch
    /// assignments).
    pub fn is_fixed(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the explicit `(pc, hash number)` assignments in an
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u8)> + '_ {
        self.map.iter().map(|(&pc, &n)| (Addr::new(pc), n))
    }

    /// A histogram of assigned hash numbers, indexed by hash number − 1
    /// (32 buckets). Diagnostic for "how variable is the assignment".
    pub fn length_histogram(&self) -> [usize; crate::MAX_PATH_LENGTH] {
        let mut histogram = [0usize; crate::MAX_PATH_LENGTH];
        for &n in self.map.values() {
            histogram[(n - 1) as usize] += 1;
        }
        histogram
    }
}

impl fmt::Display for HashAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} assigned branches, default HF_{}", self.map.len(), self.default)
    }
}

/// Hardware-only hash selection (§3.4): per branch set, a small
/// accuracy counter per candidate hash function; each prediction uses the
/// candidate whose counter is highest.
///
/// The paper notes this trades die area (the counter storage) for the
/// ability to use run-time information. The workspace uses it for the
/// `dynamic-select` ablation.
///
/// # Example
///
/// ```
/// use vlpp_core::DynamicSelector;
/// use vlpp_trace::Addr;
///
/// let mut s = DynamicSelector::new(&[1, 2, 4, 8, 16, 32], 10);
/// let pc = Addr::new(0x400);
/// let first = s.select(pc);
/// assert_eq!(first, 1); // ties break toward the shortest path
/// s.reward(pc, 2, true); // candidate index 2 (HF_4) was correct
/// assert_eq!(s.select(pc), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSelector {
    candidates: Vec<u8>,
    /// `counters[set * candidates.len() + c]`, saturating `0..=MAX`.
    counters: Vec<u8>,
    mask: u64,
}

impl DynamicSelector {
    const COUNTER_MAX: u8 = 63;

    /// Creates a selector choosing among `candidates` (hash numbers,
    /// each in `1..=32`), with `2^set_bits` branch sets.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, contains an out-of-range hash
    /// number, or `set_bits` exceeds 24.
    pub fn new(candidates: &[u8], set_bits: u32) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate hash function");
        assert!(
            candidates.iter().all(|&c| c >= 1 && c as usize <= crate::MAX_PATH_LENGTH),
            "candidate hash numbers must be in 1..=32"
        );
        assert!(set_bits <= 24, "set index width must be <= 24, got {set_bits}");
        DynamicSelector {
            candidates: candidates.to_vec(),
            counters: vec![Self::COUNTER_MAX / 2; candidates.len() << set_bits],
            mask: (1u64 << set_bits) - 1,
        }
    }

    /// The candidate hash numbers.
    pub fn candidates(&self) -> &[u8] {
        &self.candidates
    }

    #[inline]
    fn base(&self, pc: Addr) -> usize {
        (pc.word() & self.mask) as usize * self.candidates.len()
    }

    /// Selects the hash number with the highest accuracy counter for
    /// `pc`'s branch set. Ties break toward the earlier (shorter)
    /// candidate.
    pub fn select(&self, pc: Addr) -> u8 {
        let base = self.base(pc);
        let slice = &self.counters[base..base + self.candidates.len()];
        let best = slice
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .expect("candidates is non-empty");
        self.candidates[best]
    }

    /// Index of the currently selected candidate within
    /// [`candidates`](Self::candidates), for callers that track per-
    /// candidate state.
    pub fn selected_index(&self, pc: Addr) -> usize {
        let n = self.select(pc);
        self.candidates.iter().position(|&c| c == n).expect("selected from candidates")
    }

    /// Rewards (`correct = true`) or penalizes candidate
    /// `candidate_index` for `pc`'s branch set.
    ///
    /// # Panics
    ///
    /// Panics if `candidate_index` is out of range.
    pub fn reward(&mut self, pc: Addr, candidate_index: usize, correct: bool) {
        assert!(candidate_index < self.candidates.len(), "candidate index out of range");
        let slot = self.base(pc) + candidate_index;
        let counter = &mut self.counters[slot];
        if correct {
            *counter = (*counter + 1).min(Self::COUNTER_MAX);
        } else {
            *counter = counter.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_assignment_returns_default_everywhere() {
        let a = HashAssignment::fixed(14);
        assert!(a.is_fixed());
        assert_eq!(a.get(Addr::new(0xdead)), 14);
        assert_eq!(a.assigned_count(), 0);
    }

    #[test]
    fn explicit_assignment_overrides_default() {
        let mut a = HashAssignment::fixed(14);
        a.assign(Addr::new(0x10), 1);
        a.assign(Addr::new(0x20), 32);
        assert_eq!(a.get(Addr::new(0x10)), 1);
        assert_eq!(a.get(Addr::new(0x20)), 32);
        assert_eq!(a.get(Addr::new(0x30)), 14);
        assert!(!a.is_fixed());
        assert_eq!(a.assigned_count(), 2);
    }

    #[test]
    fn reassignment_replaces() {
        let mut a = HashAssignment::fixed(5);
        a.assign(Addr::new(0x10), 1);
        a.assign(Addr::new(0x10), 7);
        assert_eq!(a.get(Addr::new(0x10)), 7);
        assert_eq!(a.assigned_count(), 1);
    }

    #[test]
    fn histogram_counts_assignments() {
        let mut a = HashAssignment::fixed(5);
        a.assign(Addr::new(0x10), 3);
        a.assign(Addr::new(0x20), 3);
        a.assign(Addr::new(0x30), 32);
        let h = a.length_histogram();
        assert_eq!(h[2], 2);
        assert_eq!(h[31], 1);
        assert_eq!(h.iter().sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rejects_hash_zero() {
        HashAssignment::fixed(0);
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rejects_hash_over_32() {
        let mut a = HashAssignment::fixed(1);
        a.assign(Addr::new(0), 33);
    }

    #[test]
    fn dynamic_selector_learns_preference() {
        let mut s = DynamicSelector::new(&[1, 4, 16], 8);
        let pc = Addr::new(0x100);
        for _ in 0..10 {
            s.reward(pc, 1, true); // HF_4 keeps being right
            s.reward(pc, 0, false);
            s.reward(pc, 2, false);
        }
        assert_eq!(s.select(pc), 4);
    }

    #[test]
    fn dynamic_selector_is_per_set() {
        let mut s = DynamicSelector::new(&[1, 2], 8);
        let a = Addr::new(0x1 << 2);
        let b = Addr::new(0x2 << 2);
        for _ in 0..10 {
            s.reward(a, 1, true);
            s.reward(a, 0, false);
            s.reward(b, 0, true);
            s.reward(b, 1, false);
        }
        assert_eq!(s.select(a), 2);
        assert_eq!(s.select(b), 1);
    }

    #[test]
    fn dynamic_selector_counters_saturate() {
        let mut s = DynamicSelector::new(&[1], 2);
        let pc = Addr::new(0);
        for _ in 0..200 {
            s.reward(pc, 0, true);
        }
        s.reward(pc, 0, false);
        assert_eq!(s.select(pc), 1); // still selectable, no overflow panic
        for _ in 0..200 {
            s.reward(pc, 0, false);
        }
        assert_eq!(s.select(pc), 1);
    }

    #[test]
    fn display_summarizes() {
        let mut a = HashAssignment::fixed(6);
        a.assign(Addr::new(4), 2);
        let text = a.to_string();
        assert!(text.contains("1 assigned"));
        assert!(text.contains("HF_6"));
    }
}
