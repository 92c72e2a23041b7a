//! The path hash functions `HF_1 … HF_N` (paper §3.3) and their O(1)
//! incremental evaluation (paper §4.1).
//!
//! `HF_X` combines the `X` most recent compressed targets into a `k`-bit
//! index: target `T_i` is rotated left by `i − 1` bits (so the *order* of
//! targets is encoded, not just their set) and all rotated targets are
//! XORed together.
//!
//! Evaluating each hash from scratch costs O(X) XORs; the paper's §4.1
//! observes that `I_X(t+1) = rot1(I_{X−1}(t)) XOR newtarget`, so keeping a
//! register with the previous value of `I_{X−1}` evaluates every hash
//! with a single rotate-XOR per inserted target. [`IncrementalHashers`]
//! implements that scheme (and the tests prove it equal to the direct
//! evaluation).

use vlpp_trace::Addr;

use crate::thb::Thb;

/// Rotates a `k`-bit value left by `amount` within `k` bits.
#[inline]
fn rotl(value: u64, amount: u32, k: u32) -> u64 {
    let amount = amount % k;
    if amount == 0 {
        return value;
    }
    if k == 64 {
        return value.rotate_left(amount);
    }
    let mask = (1u64 << k) - 1;
    ((value << amount) | (value >> (k - amount))) & mask
}

/// Directly evaluates `HF_len(PATH_len)` from the THB contents:
/// `XOR_{i=1..len} rotl(T_i, i−1)`.
///
/// This is the specification; predictors use [`IncrementalHashers`] which
/// computes the same value in O(1) per retired branch.
///
/// # Panics
///
/// Panics if `len` is 0 or exceeds the THB capacity.
///
/// # Example
///
/// ```
/// use vlpp_core::{hash_path, Thb};
/// use vlpp_trace::Addr;
///
/// let mut thb = Thb::new(4, 8);
/// thb.push(Addr::new(0x3 << 2)); // T2 after next push
/// thb.push(Addr::new(0x5 << 2)); // T1
/// // HF_2 = rotl(T1, 0) ^ rotl(T2, 1) = 0x5 ^ 0x6 = 0x3
/// assert_eq!(hash_path(&thb, 2), 0x3);
/// ```
pub fn hash_path(thb: &Thb, len: usize) -> u64 {
    let k = thb.k();
    thb.path(len).enumerate().fold(0u64, |acc, (i, target)| acc ^ rotl(target, i as u32, k))
}

/// The §4.1 partial-sum registers: maintains the current value of every
/// hash function `HF_1 … HF_n` with one rotate-XOR per hash per inserted
/// target.
///
/// Register `X` holds `I_X`, the index `HF_X` would produce for the
/// current THB contents. When a new target arrives,
/// `I_X ← rotl(I_{X−1}, 1) XOR target` for `X = n..1` (computed high to
/// low so each update reads the *previous* value of its neighbor).
///
/// # Example
///
/// ```
/// use vlpp_core::{hash_path, IncrementalHashers, Thb};
/// use vlpp_trace::Addr;
///
/// let mut thb = Thb::new(8, 10);
/// let mut inc = IncrementalHashers::new(8, 10);
/// for raw in [0x123, 0x456, 0x789] {
///     let t = Addr::new(raw << 2);
///     thb.push(t);
///     inc.push(t);
/// }
/// assert_eq!(inc.index(5), hash_path(&thb, 5));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalHashers {
    /// `indices[x-1]` = current `I_x`.
    indices: Vec<u64>,
    k: u32,
}

impl IncrementalHashers {
    /// Creates registers for hash functions `HF_1 … HF_count` producing
    /// `k`-bit indices.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or `k` is not in `1..=64`.
    pub fn new(count: usize, k: u32) -> Self {
        assert!(count >= 1, "need at least one hash function");
        assert!((1..=64).contains(&k), "index width must be in 1..=64, got {k}");
        IncrementalHashers { indices: vec![0; count], k }
    }

    /// Updates every register for a newly inserted target address
    /// (compressed to `k` bits, like the THB entry it mirrors).
    pub fn push(&mut self, target: Addr) {
        let t = target.low_bits(self.k);
        // I_X(t+1) = rotl(I_{X-1}(t), 1) ^ t ; I_0 is the empty hash, 0.
        for x in (1..self.indices.len()).rev() {
            self.indices[x] = rotl(self.indices[x - 1], 1, self.k) ^ t;
        }
        self.indices[0] = t;
    }

    /// The current index `I_x` produced by `HF_x` (`x` is 1-based).
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds the number of hash functions.
    #[inline]
    pub fn index(&self, x: usize) -> u64 {
        assert!(x >= 1 && x <= self.indices.len(), "hash number must be in 1..=count, got {x}");
        self.indices[x - 1]
    }

    /// All current indices, `I_1` first.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// The number of hash functions maintained.
    pub fn count(&self) -> usize {
        self.indices.len()
    }

    /// The index width in bits.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Resets all registers to the empty-history state.
    pub fn clear(&mut self) {
        self.indices.fill(0);
    }

    /// Restores registers from a snapshot taken with
    /// [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a differently-configured
    /// hasher.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), self.indices.len(), "snapshot size mismatch");
        self.indices.copy_from_slice(snapshot);
    }

    /// Captures the register state (used by the §6 history stack).
    pub fn snapshot(&self) -> Vec<u64> {
        self.indices.clone()
    }
}

/// One step of the rolling partial sum `S(t) = rot1(S(t−1)) XOR t`,
/// within `k` bits (`mask` = the low `k` bits set; `t` already
/// compressed to `k` bits). For `k = 64` the shift pair is the native
/// rotate.
#[inline]
pub(crate) fn rolled(s: u64, t: u64, k: u32, mask: u64) -> u64 {
    (((s << 1) | (s >> (k - 1))) & mask) ^ t
}

/// The index `I_X = S(t) XOR rotl(S(t−X), X)` from the current sum
/// `now`, the sum `past = S(t−X)`, and `amount = X mod k`.
#[inline]
pub(crate) fn window(now: u64, past: u64, amount: u32, k: u32, mask: u64) -> u64 {
    // Branchless k-bit rotate: `past` is already masked to k bits, so
    // at amount == 0 the right shift contributes nothing (shift by k,
    // forced in-range by `& 63` for k == 64) and the left shift is the
    // identity — no data-dependent branch on the rotation amount.
    now ^ (((past << amount) | (past >> ((k - amount) & 63))) & mask)
}

/// The §4.1 register file folded into a single running register: the
/// throughput kernel's O(1)-per-retire form of [`IncrementalHashers`].
///
/// Unrolling the §4.1 recurrence shows every partial-sum register is a
/// window of one *infinite-history* sum. Let
/// `S(t) = rot1(S(t−1)) XOR target_t` (one register, never truncated).
/// Then, because rotation distributes over XOR and the targets older
/// than `X` cancel,
///
/// ```text
/// I_X(t) = S(t) XOR rotl(S(t−X), X)
/// ```
///
/// So instead of updating `n` registers per retired branch (one
/// rotate-XOR each — O(n) with `n` up to 32), this structure updates
/// `S` once and remembers its last `n` values in a ring; *any* hash
/// function's index is then one ring read and one rotate-XOR, on
/// demand. Warmup falls out for free: ring slots not yet written are
/// zero, which is exactly `S` of the empty history.
///
/// The values produced are bit-identical to [`IncrementalHashers`] (and
/// therefore to the direct [`hash_path`] evaluation) — the tests prove
/// all three equal.
///
/// # Example
///
/// ```
/// use vlpp_core::{IncrementalHashers, RollingHashers};
/// use vlpp_trace::Addr;
///
/// let mut registers = IncrementalHashers::new(8, 10);
/// let mut rolling = RollingHashers::new(8, 10);
/// for raw in [0x123, 0x456, 0x789] {
///     registers.push(Addr::new(raw << 2));
///     rolling.push(Addr::new(raw << 2));
/// }
/// for x in 1..=8 {
///     assert_eq!(rolling.index(x), registers.index(x));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RollingHashers {
    /// `S(t)` — the infinite-history partial sum.
    s: u64,
    /// The last values of `S`, `ring[j & ring_mask] = S(j)`; sized to
    /// the next power of two above `count` so the ring offset is a
    /// mask, not a modulo.
    ring: Vec<u64>,
    /// Targets pushed so far.
    t: u64,
    /// `rots[x] = x mod k`, precomputed so a lookup does no division.
    rots: Vec<u8>,
    count: usize,
    k: u32,
    mask: u64,
    ring_mask: u64,
}

impl RollingHashers {
    /// Creates the rolling form of `count` hash functions producing
    /// `k`-bit indices.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or `k` is not in `1..=64`.
    pub fn new(count: usize, k: u32) -> Self {
        assert!(count >= 1, "need at least one hash function");
        assert!((1..=64).contains(&k), "index width must be in 1..=64, got {k}");
        let ring_len = count.next_power_of_two();
        RollingHashers {
            s: 0,
            ring: vec![0; ring_len],
            t: 0,
            rots: (0..=count).map(|x| (x as u32 % k) as u8).collect(),
            count,
            k,
            mask: if k == 64 { u64::MAX } else { (1u64 << k) - 1 },
            ring_mask: ring_len as u64 - 1,
        }
    }

    /// Advances `S` for a newly inserted target: one rotate-XOR and one
    /// ring store, independent of `count`.
    #[inline]
    pub fn push(&mut self, target: Addr) {
        let t = target.low_bits(self.k);
        self.ring[(self.t & self.ring_mask) as usize] = self.s;
        self.s = rolled(self.s, t, self.k, self.mask);
        self.t += 1;
    }

    /// The current index `I_x` produced by `HF_x` (`x` is 1-based):
    /// `S(t) XOR rotl(S(t−x), x)`. Ring slots before the first push are
    /// zero, which is the empty-history `S` — warmup needs no branch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 or exceeds the number of hash functions.
    #[inline]
    pub fn index(&self, x: usize) -> u64 {
        assert!(x >= 1 && x <= self.count, "hash number must be in 1..=count, got {x}");
        let past = self.ring[(self.t.wrapping_sub(x as u64) & self.ring_mask) as usize];
        window(self.s, past, self.rots[x] as u32, self.k, self.mask)
    }

    /// The number of hash functions maintained.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The index width in bits.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Resets to the empty-history state.
    pub fn clear(&mut self) {
        self.s = 0;
        self.t = 0;
        self.ring.fill(0);
    }

    /// The exact length of [`snapshot`](Self::snapshot)'s vector for
    /// this configuration — snapshot loaders validate against it
    /// before calling [`restore`](Self::restore), which panics on a
    /// mismatch.
    pub fn snapshot_len(&self) -> usize {
        2 + self.ring.len()
    }

    /// Captures the full rolling state (used by the §6 history stack):
    /// `[S, t, ring…]`, opaque to the caller.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut snapshot = Vec::with_capacity(2 + self.ring.len());
        snapshot.push(self.s);
        snapshot.push(self.t);
        snapshot.extend_from_slice(&self.ring);
        snapshot
    }

    /// Restores state from a snapshot taken with
    /// [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a differently-configured
    /// hasher.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), 2 + self.ring.len(), "snapshot size mismatch");
        self.s = snapshot[0];
        self.t = snapshot[1];
        self.ring.copy_from_slice(&snapshot[2..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple deterministic pseudo-random sequence for tests.
    fn pseudo_targets(n: usize) -> Vec<Addr> {
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Addr::new((x >> 11) << 2)
            })
            .collect()
    }

    #[test]
    fn direct_hash_of_single_target_is_target() {
        let mut thb = Thb::new(4, 12);
        thb.push(Addr::new(0xabc << 2));
        assert_eq!(hash_path(&thb, 1), 0xabc);
    }

    #[test]
    fn direct_hash_encodes_order() {
        let (a, b) = (Addr::new(0x11 << 2), Addr::new(0x22 << 2));
        let mut ab = Thb::new(4, 8);
        ab.push(a);
        ab.push(b);
        let mut ba = Thb::new(4, 8);
        ba.push(b);
        ba.push(a);
        assert_ne!(hash_path(&ab, 2), hash_path(&ba, 2));
    }

    #[test]
    fn incremental_matches_direct_for_all_lengths() {
        let cap = 32;
        let k = 14;
        let mut thb = Thb::new(cap, k);
        let mut inc = IncrementalHashers::new(cap, k);
        for target in pseudo_targets(300) {
            thb.push(target);
            inc.push(target);
            for len in 1..=cap {
                assert_eq!(inc.index(len), hash_path(&thb, len), "mismatch at length {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_direct_during_warmup() {
        // Fewer targets than hash length: missing slots are zero in both.
        let mut thb = Thb::new(8, 10);
        let mut inc = IncrementalHashers::new(8, 10);
        for target in pseudo_targets(5) {
            thb.push(target);
            inc.push(target);
        }
        for len in 1..=8 {
            assert_eq!(inc.index(len), hash_path(&thb, len));
        }
    }

    #[test]
    fn incremental_matches_direct_at_k_64() {
        let mut thb = Thb::new(8, 64);
        let mut inc = IncrementalHashers::new(8, 64);
        for target in pseudo_targets(50) {
            thb.push(target);
            inc.push(target);
            assert_eq!(inc.index(8), hash_path(&thb, 8));
        }
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut inc = IncrementalHashers::new(8, 10);
        for target in pseudo_targets(20) {
            inc.push(target);
        }
        let saved = inc.snapshot();
        let at_save: Vec<u64> = inc.indices().to_vec();
        for target in pseudo_targets(7) {
            inc.push(target);
        }
        inc.restore(&saved);
        assert_eq!(inc.indices(), &at_save[..]);
    }

    #[test]
    fn clear_resets_to_empty_state() {
        let mut inc = IncrementalHashers::new(4, 10);
        inc.push(Addr::new(0x40));
        inc.clear();
        assert!(inc.indices().iter().all(|&i| i == 0));
    }

    #[test]
    fn indices_stay_within_k_bits() {
        let mut inc = IncrementalHashers::new(16, 9);
        for target in pseudo_targets(100) {
            inc.push(target);
            assert!(inc.indices().iter().all(|&i| i < (1 << 9)));
        }
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn index_rejects_zero() {
        IncrementalHashers::new(4, 8).index(0);
    }

    #[test]
    fn rolling_matches_incremental_for_all_lengths() {
        // Non-power-of-two counts and awkward widths included.
        for (count, k) in [(1, 1), (5, 9), (16, 14), (31, 10), (32, 28), (8, 64)] {
            let mut registers = IncrementalHashers::new(count, k);
            let mut rolling = RollingHashers::new(count, k);
            for target in pseudo_targets(3 * count + 40) {
                registers.push(target);
                rolling.push(target);
                for x in 1..=count {
                    assert_eq!(
                        rolling.index(x),
                        registers.index(x),
                        "count {count} k {k} length {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn rolling_warmup_matches_incremental() {
        // Fewer targets than the deepest hash: unwritten ring slots must
        // act as the empty-history S.
        let mut registers = IncrementalHashers::new(12, 10);
        let mut rolling = RollingHashers::new(12, 10);
        for target in pseudo_targets(5) {
            registers.push(target);
            rolling.push(target);
        }
        for x in 1..=12 {
            assert_eq!(rolling.index(x), registers.index(x));
        }
    }

    #[test]
    fn rolling_snapshot_restore_round_trips() {
        let mut rolling = RollingHashers::new(8, 10);
        for target in pseudo_targets(20) {
            rolling.push(target);
        }
        let saved = rolling.snapshot();
        let at_save: Vec<u64> = (1..=8).map(|x| rolling.index(x)).collect();
        for target in pseudo_targets(40) {
            rolling.push(target);
        }
        rolling.restore(&saved);
        let restored: Vec<u64> = (1..=8).map(|x| rolling.index(x)).collect();
        assert_eq!(restored, at_save);
    }

    #[test]
    fn rolling_clear_resets_to_empty_state() {
        let mut rolling = RollingHashers::new(4, 10);
        rolling.push(Addr::new(0x40));
        rolling.clear();
        for x in 1..=4 {
            assert_eq!(rolling.index(x), 0);
        }
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rolling_index_rejects_out_of_range() {
        RollingHashers::new(4, 8).index(5);
    }
}
