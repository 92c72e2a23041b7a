//! The Target History Buffer (THB): first-level history of a path
//! predictor (paper §3.1–3.2).

use std::collections::VecDeque;

use vlpp_trace::{Addr, BranchKind, BranchRecord};

/// The Target History Buffer: the `k`-bit-compressed target addresses of
/// the most recently encountered branches, newest first.
///
/// Per the paper's §3.2 recording policy, only the targets of conditional
/// and indirect branches are stored; unconditional branches and calls
/// contribute no useful path information, and returns are excluded by
/// default (the paper found accuracy "does not strongly depend" on them
/// and left them out — [`Thb::with_returns`] enables them for the
/// ablation experiment).
///
/// # Example
///
/// ```
/// use vlpp_core::Thb;
/// use vlpp_trace::{Addr, BranchRecord};
///
/// let mut thb = Thb::new(32, 14);
/// thb.observe(&BranchRecord::conditional(Addr::new(0x10), Addr::new(0x400), true));
/// thb.observe(&BranchRecord::indirect(Addr::new(0x20), Addr::new(0x800)));
/// // Unconditional jumps are not recorded.
/// thb.observe(&BranchRecord::unconditional(Addr::new(0x30), Addr::new(0xc00)));
/// assert_eq!(thb.len(), 2);
/// assert_eq!(thb.target(1), Addr::new(0x800).low_bits(14)); // T1 = newest
/// ```
#[derive(Debug, Clone)]
pub struct Thb {
    targets: VecDeque<u64>,
    capacity: usize,
    k: u32,
    store_returns: bool,
}

impl Thb {
    /// Creates an empty THB holding up to `capacity` targets compressed
    /// to `k` bits, with return targets excluded (the paper's default).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or `k` is not in `1..=64`.
    pub fn new(capacity: usize, k: u32) -> Self {
        assert!(capacity >= 1, "THB capacity must be at least 1");
        assert!((1..=64).contains(&k), "compression width must be in 1..=64, got {k}");
        Thb { targets: VecDeque::with_capacity(capacity), capacity, k, store_returns: false }
    }

    /// Creates a THB that also records return targets (§3.2 ablation).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`new`](Self::new).
    pub fn with_returns(capacity: usize, k: u32) -> Self {
        let mut thb = Thb::new(capacity, k);
        thb.store_returns = true;
        thb
    }

    /// Records `record`'s target if the §3.2 policy says it belongs in
    /// the path history.
    pub fn observe(&mut self, record: &BranchRecord) {
        let store =
            record.enters_thb() || (self.store_returns && record.kind() == BranchKind::Return);
        if store {
            self.push(record.target());
        }
    }

    /// Unconditionally records a target address (compressed to `k` bits),
    /// evicting the oldest if full.
    pub fn push(&mut self, target: Addr) {
        if self.targets.len() == self.capacity {
            self.targets.pop_back();
        }
        self.targets.push_front(target.low_bits(self.k));
    }

    /// `T_X`: the `X`-th most recent compressed target (`X` is 1-based,
    /// as in the paper). Returns 0 if fewer than `X` targets have been
    /// recorded — an empty slot contributes nothing to a hash.
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds the capacity.
    #[inline]
    pub fn target(&self, x: usize) -> u64 {
        assert!(x >= 1 && x <= self.capacity, "T_X index must be in 1..=capacity, got {x}");
        self.targets.get(x - 1).copied().unwrap_or(0)
    }

    /// Iterates over `PATH_len`: the compressed targets `T_1 … T_len`,
    /// padding with zeros if fewer targets have been recorded.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds the capacity.
    pub fn path(&self, len: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(len >= 1 && len <= self.capacity, "path length must be in 1..=capacity, got {len}");
        (1..=len).map(|x| self.targets.get(x - 1).copied().unwrap_or(0))
    }

    /// Number of targets currently recorded (saturates at the capacity).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether no targets have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The maximum number of targets the THB holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The compression width `k` in bits.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Whether return targets are recorded.
    pub fn stores_returns(&self) -> bool {
        self.store_returns
    }

    /// Forgets all recorded targets.
    pub fn clear(&mut self) {
        self.targets.clear();
    }

    /// The recorded compressed targets, newest first — what the §6
    /// history stack saves at a call.
    pub fn snapshot(&self) -> Vec<u64> {
        self.targets.iter().copied().collect()
    }

    /// Replaces the recorded targets with a [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot holds more targets than the capacity.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert!(snapshot.len() <= self.capacity, "snapshot exceeds the THB capacity");
        self.targets.clear();
        self.targets.extend(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: BranchKind, target: u64) -> BranchRecord {
        BranchRecord::new(Addr::new(0x10), Addr::new(target), kind, true)
    }

    #[test]
    fn newest_is_t1() {
        let mut thb = Thb::new(4, 16);
        thb.push(Addr::new(0xa << 2));
        thb.push(Addr::new(0xb << 2));
        assert_eq!(thb.target(1), 0xb);
        assert_eq!(thb.target(2), 0xa);
    }

    #[test]
    fn eviction_at_capacity() {
        let mut thb = Thb::new(2, 16);
        thb.push(Addr::new(0x1 << 2));
        thb.push(Addr::new(0x2 << 2));
        thb.push(Addr::new(0x3 << 2));
        assert_eq!(thb.len(), 2);
        assert_eq!(thb.target(1), 0x3);
        assert_eq!(thb.target(2), 0x2);
    }

    #[test]
    fn missing_slots_read_zero() {
        let thb = Thb::new(8, 16);
        assert_eq!(thb.target(5), 0);
        assert!(thb.is_empty());
    }

    #[test]
    fn compression_discards_high_bits() {
        let mut thb = Thb::new(2, 8);
        thb.push(Addr::new(0xabcd << 2));
        assert_eq!(thb.target(1), 0xcd);
    }

    #[test]
    fn observe_policy_matches_section_3_2() {
        let mut thb = Thb::new(8, 16);
        thb.observe(&record(BranchKind::Conditional, 0x100));
        thb.observe(&record(BranchKind::Indirect, 0x200));
        thb.observe(&record(BranchKind::Unconditional, 0x300));
        thb.observe(&record(BranchKind::Call, 0x400));
        thb.observe(&record(BranchKind::Return, 0x500));
        assert_eq!(thb.len(), 2, "only conditional and indirect targets enter the THB");
    }

    #[test]
    fn with_returns_also_records_returns() {
        let mut thb = Thb::with_returns(8, 16);
        assert!(thb.stores_returns());
        thb.observe(&record(BranchKind::Return, 0x500));
        assert_eq!(thb.len(), 1);
        thb.observe(&record(BranchKind::Call, 0x400));
        assert_eq!(thb.len(), 1, "calls are never recorded");
    }

    #[test]
    fn path_pads_with_zeros() {
        let mut thb = Thb::new(4, 16);
        thb.push(Addr::new(0x7 << 2));
        let path: Vec<u64> = thb.path(3).collect();
        assert_eq!(path, vec![0x7, 0, 0]);
    }

    #[test]
    fn restore_brings_back_a_snapshot() {
        let mut thb = Thb::new(4, 16);
        thb.push(Addr::new(0x7 << 2));
        thb.push(Addr::new(0x8 << 2));
        let saved = thb.snapshot();
        thb.push(Addr::new(0x9 << 2));
        thb.restore(&saved);
        assert_eq!(thb.path(3).collect::<Vec<_>>(), vec![0x8, 0x7, 0]);
    }

    #[test]
    fn clear_empties() {
        let mut thb = Thb::new(4, 16);
        thb.push(Addr::new(0x7 << 2));
        thb.clear();
        assert!(thb.is_empty());
    }

    #[test]
    #[should_panic(expected = "path length")]
    fn path_rejects_overlong() {
        let thb = Thb::new(4, 16);
        let _ = thb.path(5).count();
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn rejects_zero_capacity() {
        Thb::new(0, 16);
    }
}
