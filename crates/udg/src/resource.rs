//! Windowed cycle-indexed resource tables.
//!
//! The paper (§2.7): "the graph representation is itself constraining, in
//! particular for modeling resource contention. To get around this, we keep
//! a windowed cycle-indexed data structure to record which TDG node 'holds'
//! which resource. The consequence is that resources are preferentially
//! given in instruction order." This is that data structure.

/// Tracks per-cycle occupancy of a multi-unit resource (FUs, cache ports,
/// issue slots) over a sliding cycle window.
///
/// # Examples
///
/// ```
/// use prism_udg::ResourceTable;
///
/// let mut alus = ResourceTable::new(2); // two ALUs
/// assert_eq!(alus.acquire(10), 10);
/// assert_eq!(alus.acquire(10), 10);
/// assert_eq!(alus.acquire(10), 11); // third op in cycle 10 slips
/// ```
#[derive(Debug, Clone)]
pub struct ResourceTable {
    units: u32,
    base: u64,
    ring: Vec<u16>,
    /// Every nonzero slot of `ring` lies in `lo..hi` (empty when
    /// `lo >= hi`), so clearing the ring touches only the cycles granted
    /// since the last clear.
    lo: usize,
    hi: usize,
}

/// Cycle window tracked per resource; requests older than this relative to
/// the newest grant are clamped (instruction-order preference).
const WINDOW: usize = 16_384;

impl ResourceTable {
    /// Creates a table for a resource with `units` identical instances.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    #[must_use]
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "resource must have at least one unit");
        ResourceTable {
            units,
            base: 0,
            ring: vec![0; WINDOW],
            lo: WINDOW,
            hi: 0,
        }
    }

    /// Returns the table to the state [`ResourceTable::new`] builds (no
    /// cycle held, window at cycle 0) without reallocating it, zeroing
    /// only the slots granted since the last clear.
    pub fn reset(&mut self) {
        self.clear();
        self.base = 0;
    }

    /// Number of identical units.
    #[must_use]
    pub fn units(&self) -> u32 {
        self.units
    }

    /// Grants the resource for one cycle at the earliest cycle ≥ `earliest`
    /// with a free unit, and returns that cycle.
    ///
    /// Requests that fall before the sliding window are clamped to its
    /// start — resources are granted in instruction order, as in the paper.
    pub fn acquire(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest.max(self.base);
        // Slide the window forward if the request is beyond it.
        if cycle >= self.base + WINDOW as u64 {
            let new_base = cycle - (WINDOW as u64) / 2;
            self.slide_to(new_base);
        }
        loop {
            if cycle >= self.base + WINDOW as u64 {
                let new_base = cycle - (WINDOW as u64) / 2;
                self.slide_to(new_base);
            }
            let slot = ((cycle - self.base) as usize) % WINDOW;
            if u32::from(self.ring[slot]) < self.units {
                self.ring[slot] += 1;
                self.lo = self.lo.min(slot);
                self.hi = self.hi.max(slot + 1);
                return cycle;
            }
            cycle += 1;
        }
    }

    fn slide_to(&mut self, new_base: u64) {
        debug_assert!(new_base >= self.base);
        let shift = (new_base - self.base) as usize;
        if shift >= WINDOW {
            self.clear();
        } else {
            // Clear the cycles that fall out of the window; the ring is a
            // plain rotation so clear the first `shift` logical slots.
            for i in 0..shift {
                let slot = ((self.base as usize) + i) % WINDOW;
                self.ring[slot] = 0;
            }
        }
        self.base = new_base;
    }

    /// Zeroes every slot (only `lo..hi` can be nonzero).
    fn clear(&mut self) {
        if self.lo < self.hi {
            self.ring[self.lo..self.hi].fill(0);
        }
        self.lo = WINDOW;
        self.hi = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_serializes() {
        let mut r = ResourceTable::new(1);
        assert_eq!(r.acquire(5), 5);
        assert_eq!(r.acquire(5), 6);
        assert_eq!(r.acquire(5), 7);
        assert_eq!(r.acquire(100), 100);
    }

    #[test]
    fn multi_unit_shares_cycles() {
        let mut r = ResourceTable::new(3);
        assert_eq!(r.acquire(0), 0);
        assert_eq!(r.acquire(0), 0);
        assert_eq!(r.acquire(0), 0);
        assert_eq!(r.acquire(0), 1);
    }

    #[test]
    fn window_slides_for_far_future_requests() {
        let mut r = ResourceTable::new(1);
        assert_eq!(r.acquire(0), 0);
        assert_eq!(r.acquire(1_000_000), 1_000_000);
        assert_eq!(r.acquire(1_000_000), 1_000_001);
        // A stale request is clamped into the window (instruction-order
        // preference), not granted in the past.
        let granted = r.acquire(0);
        assert!(granted >= 1_000_000 - (WINDOW as u64));
    }

    #[test]
    fn interleaved_levels() {
        let mut r = ResourceTable::new(2);
        let a = r.acquire(10);
        let b = r.acquire(12);
        let c = r.acquire(10);
        let d = r.acquire(10);
        assert_eq!((a, b, c), (10, 12, 10));
        assert_eq!(d, 11);
    }

    /// A deterministic grant-request stream: mostly nearby cycles, with
    /// occasional jumps far enough to slide (or clear) the window.
    fn requests(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        let mut at = 0u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let r = x >> 33;
                at += match r % 64 {
                    0 => WINDOW as u64 * 3,
                    1 => WINDOW as u64 / 2 + 17,
                    _ => r % 5,
                };
                at.saturating_sub(r % 7)
            })
            .collect()
    }

    #[test]
    fn reset_table_behaves_like_a_new_one() {
        for units in [1, 2, 4] {
            let mut used = ResourceTable::new(units);
            for seed in 1..6u64 {
                for at in requests(seed, 3_000) {
                    used.acquire(at);
                }
                used.reset();
                assert_eq!(used.base, 0);
                assert!(used.ring.iter().all(|&c| c == 0), "ring not cleared");
                let mut fresh = ResourceTable::new(units);
                for at in requests(seed + 100, 3_000) {
                    assert_eq!(used.acquire(at), fresh.acquire(at));
                }
                assert_eq!(used.ring, fresh.ring);
                assert_eq!(used.base, fresh.base);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let _ = ResourceTable::new(0);
    }
}
