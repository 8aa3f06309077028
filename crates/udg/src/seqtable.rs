//! Allocation-lean containers for the per-instruction hot path.
//!
//! The µDG evaluators key almost every lookup by a dynamic-instruction
//! `seq` — a dense, monotonically increasing integer. Hashing those through
//! a general-purpose SipHash map costs more than the model math itself, so
//! this module provides:
//!
//! * [`SeqTable`] — a windowed `seq → u64` table backed by a seq-indexed
//!   `Vec` for the live window plus a small spill map for long-lived old
//!   entries, with a watermark-based [`SeqTable::trim`] that re-bases the
//!   window (the replacement for dense-keyed `HashMap<u64, u64>`
//!   timetables),
//! * [`FastMap`] / [`FastSet`] — `HashMap`/`HashSet` with a cheap
//!   multiplicative [`FastHasher`] for the remaining integer-keyed
//!   hot-path maps (memory-word footprints), where keys are attacker-free
//!   internal values and SipHash's DoS resistance buys nothing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel marking an unoccupied window slot. Completion times are cycle
/// counts and can never legitimately reach `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// A fast, non-cryptographic hasher for internal integer keys
/// (an FxHash-style multiplicative mix).
///
/// Not DoS-resistant — only for maps whose keys the program itself
/// generates (seqs, memory words), never for external input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

/// Multiplicative mixing constant (golden-ratio based, as in FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// [`BuildHasherDefault`] for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

/// Windowed `seq → u64` table: a dense, seq-indexed ring of the recent
/// window plus a spill map for entries that survive a trim.
///
/// Dynamic-instruction seqs arrive (nearly) densely and monotonically, so
/// within the live window a lookup is one bounds check and one `Vec` index
/// — no hashing. [`SeqTable::trim`] re-bases the window: entries named by
/// the caller's keep-set move to the spill map (bounded by the live
/// dependence frontier, e.g. one seq per architectural register), and
/// everything else is dropped. Entries inserted below the current base
/// (stragglers after a re-base) land in the spill map and stay exactly
/// as queryable as before.
///
/// # Examples
///
/// ```
/// use prism_udg::SeqTable;
///
/// let mut t = SeqTable::new();
/// t.insert(0, 10);
/// t.insert(1, 12);
/// t.insert(7, 99);
/// assert_eq!(t.get(1), Some(12));
/// assert_eq!(t.get(3), None);
/// t.trim([7u64]); // keep only seq 7's time
/// assert_eq!(t.get(1), None);
/// assert_eq!(t.get(7), Some(99));
/// t.insert(8, 120); // the window continues past the trim point
/// assert_eq!(t.get(8), Some(120));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeqTable {
    /// Seq of `slots[0]`.
    base: u64,
    /// Dense window; `EMPTY` marks unoccupied slots.
    slots: Vec<u64>,
    /// Occupied slots in `slots` (not counting the spill map).
    live: usize,
    /// Entries below `base` that survived a trim (or were inserted late).
    spill: FastMap<u64, u64>,
    /// [`SeqTable::trim`]'s survivors, kept between trims so a trim
    /// reuses its allocation.
    kept: Vec<(u64, u64)>,
}

impl SeqTable {
    /// Creates an empty table based at seq 0.
    #[must_use]
    pub fn new() -> Self {
        SeqTable::default()
    }

    /// Creates an empty table with window capacity for `cap` seqs.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        SeqTable {
            slots: Vec::with_capacity(cap),
            ..SeqTable::default()
        }
    }

    /// Number of entries currently held (window + spill).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    /// `true` when no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored for `seq`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<u64> {
        if seq >= self.base {
            let idx = (seq - self.base) as usize;
            match self.slots.get(idx) {
                Some(&t) if t != EMPTY => Some(t),
                _ => None,
            }
        } else {
            self.spill.get(&seq).copied()
        }
    }

    /// Whether `seq` has a stored value.
    #[inline]
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Inserts (or overwrites) the value for `seq`.
    #[inline]
    pub fn insert(&mut self, seq: u64, value: u64) {
        debug_assert_ne!(value, EMPTY, "u64::MAX is the empty-slot sentinel");
        if seq >= self.base {
            let idx = (seq - self.base) as usize;
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, EMPTY);
            }
            if self.slots[idx] == EMPTY {
                self.live += 1;
            }
            self.slots[idx] = value;
        } else {
            self.spill.insert(seq, value);
        }
    }

    /// Drops every entry not named by `keep`, then re-bases the window one
    /// past its current end: survivors move to the spill map (bounded by
    /// the keep-set size), the dense window restarts empty, and every
    /// allocation is reused.
    pub fn trim(&mut self, keep: impl IntoIterator<Item = u64>) {
        self.kept.clear();
        for s in keep {
            if let Some(t) = self.get(s) {
                self.kept.push((s, t));
            }
        }
        self.base += self.slots.len() as u64;
        self.slots.clear();
        self.live = 0;
        self.spill.clear();
        self.spill.extend(self.kept.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = SeqTable::new();
        assert!(t.is_empty());
        for s in 0..100u64 {
            t.insert(s, s * 3);
        }
        assert_eq!(t.len(), 100);
        for s in 0..100u64 {
            assert_eq!(t.get(s), Some(s * 3));
        }
        assert_eq!(t.get(100), None);
    }

    #[test]
    fn sparse_inserts_leave_gaps_unoccupied() {
        let mut t = SeqTable::new();
        t.insert(5, 50);
        t.insert(9, 90);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(7), None);
        assert!(t.contains(9));
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let mut t = SeqTable::new();
        t.insert(3, 1);
        t.insert(3, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3), Some(2));
    }

    #[test]
    fn trim_keeps_only_named_seqs() {
        let mut t = SeqTable::new();
        for s in 0..1000u64 {
            t.insert(s, s + 7);
        }
        t.trim([10u64, 500, 999, 12345]); // 12345 was never inserted
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(500), Some(507));
        assert_eq!(t.get(501), None);
    }

    #[test]
    fn window_continues_after_trim_and_stragglers_spill() {
        let mut t = SeqTable::new();
        for s in 0..100u64 {
            t.insert(s, s + 1);
        }
        t.trim([99u64]);
        // New entries past the trim point go in the fresh window.
        t.insert(100, 1000);
        assert_eq!(t.get(100), Some(1000));
        assert_eq!(t.get(99), Some(100));
        // A straggler below the new base is still stored and queryable.
        t.insert(50, 555);
        assert_eq!(t.get(50), Some(555));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn repeated_trims_rebase_monotonically() {
        let mut t = SeqTable::new();
        let mut next = 0u64;
        for _ in 0..10 {
            for _ in 0..500 {
                t.insert(next, next + 2);
                next += 1;
            }
            let keep = next - 1;
            t.trim([keep]);
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(keep), Some(keep + 2));
        }
    }

    /// SplitMix64: small, seedable, no dependencies.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// A `SeqTable` and a `HashMap` driven by the same seeded operations
    /// — dense inserts, sparse jumps, overwrites, stragglers below the
    /// base, and trims whose keep sets also name seqs never inserted —
    /// agree on `len` and on `get` around every operation.
    #[test]
    fn matches_a_hash_map_under_random_operations() {
        for seed in 1..=4u64 {
            let mut gen = Gen(seed);
            let mut table = SeqTable::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            // One past the highest seq inserted so far.
            let mut end = 0u64;
            for op in 0..200_000 {
                let value = gen.below(1 << 40);
                let seq = match gen.below(100) {
                    0..=59 => end,
                    60..=69 => end + gen.below(5_000),
                    70..=84 => end.saturating_sub(1 + gen.below(64)),
                    85..=98 => table.base.saturating_sub(1 + gen.below(1_000)),
                    _ => {
                        // Sorted, so the keep set does not hang on the
                        // map's per-process iteration order.
                        let mut held: Vec<u64> = model.keys().copied().collect();
                        held.sort_unstable();
                        let mut keep: Vec<u64> =
                            held.into_iter().filter(|_| gen.below(8) == 0).collect();
                        for _ in 0..gen.below(4) {
                            keep.push(gen.below(end + 100));
                        }
                        table.trim(keep.iter().copied());
                        model.retain(|seq, _| keep.contains(seq));
                        assert_eq!(table.len(), model.len(), "seed {seed} op {op}: trim");
                        for &seq in &keep {
                            assert_eq!(table.get(seq), model.get(&seq).copied());
                        }
                        continue;
                    }
                };
                table.insert(seq, value);
                model.insert(seq, value);
                end = end.max(seq + 1);
                assert_eq!(table.len(), model.len(), "seed {seed} op {op}: {seq}");
                for probe in seq.saturating_sub(3)..seq + 4 {
                    assert_eq!(
                        table.get(probe),
                        model.get(&probe).copied(),
                        "seed {seed} op {op}: get({probe}) after insert({seq})"
                    );
                }
                let probe = gen.below(end + 10);
                assert_eq!(table.get(probe), model.get(&probe).copied());
            }
        }
    }

    #[test]
    fn fast_map_holds_word_keys() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for w in 0..10_000u64 {
            m.insert(w * 8, w);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&80).copied(), Some(10));
    }
}
