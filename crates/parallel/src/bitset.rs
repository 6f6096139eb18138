//! Lock-free atomic bitset — the paper's `mark` array (§4.1).
//!
//! "Setting the mark value of a node has the same effect as removing the
//! node from the graph representation." The SCC algorithms consult and set
//! marks from many threads concurrently, so the flags live in one `u64`
//! word per 64 nodes with relaxed atomics (the surrounding algorithms
//! provide their own synchronization points: phase barriers and the work
//! queue's lock).

use swscc_sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity concurrent bitset.
///
/// # Examples
///
/// ```
/// use swscc_parallel::AtomicBitSet;
///
/// let bits = AtomicBitSet::new(100);
/// assert!(!bits.get(42));
/// assert!(bits.set(42));   // newly set -> true
/// assert!(!bits.set(42));  // already set -> false
/// assert!(bits.get(42));
/// assert_eq!(bits.count_ones(), 1);
/// ```
pub struct AtomicBitSet {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitSet {
    /// Creates a bitset with `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        AtomicBitSet { words: v, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // ordering: Relaxed — membership flags carry no payload; the
        // traversal kernels only require claim exclusivity (RMW
        // atomicity in `set`) plus their own level barriers for
        // publication. Verified by the ClaimSet model battery.
        self.words[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns `true` iff this call changed it (atomic claim —
    /// exactly one of several concurrent setters receives `true`).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        // ordering: Relaxed — exclusivity comes from fetch_or atomicity
        // (exactly one concurrent setter sees the bit clear); no data is
        // published through the bit itself.
        self.words[i / 64].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Clears bit `i`; returns `true` iff this call changed it.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        // ordering: Relaxed — same claim-atomicity argument as `set`.
        self.words[i / 64].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }

    /// Sets (`on`) or clears bit `i` through exclusive access: a plain
    /// read-modify-write, no locked instruction.
    #[inline]
    pub fn put(&mut self, i: usize, on: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let w = self.words[i / 64].get_mut();
        if on {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Clears every bit.
    pub fn clear_all(&self) {
        // ordering: Relaxed — bulk reset runs between phases, with the
        // phase barrier (scope join / pool install) providing the sync.
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // ordering: Relaxed — counting is only meaningful at phase
        // boundaries, where the caller's barrier orders the bits.
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            // ordering: Relaxed — phase-boundary snapshot, same argument
            // as `count_ones`.
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl std::fmt::Debug for AtomicBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicBitSet({}/{} set)", self.count_ones(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let b = AtomicBitSet::new(130);
        assert_eq!(b.len(), 130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            assert!(b.set(i));
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        assert!(b.clear(64));
        assert!(!b.get(64));
        assert!(!b.clear(64)); // already clear
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn put_sets_and_clears_one_bit() {
        let mut b = AtomicBitSet::new(130);
        b.put(64, true);
        b.put(65, true);
        assert!(b.get(64) && b.get(65));
        b.put(64, false);
        assert!(!b.get(64) && b.get(65));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn set_is_a_claim() {
        let b = AtomicBitSet::new(10);
        assert!(b.set(3));
        assert!(!b.set(3));
    }

    #[test]
    fn iter_ones_ascending() {
        let b = AtomicBitSet::new(200);
        for i in [5usize, 70, 64, 199, 0] {
            b.set(i);
        }
        let ones: Vec<_> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 64, 70, 199]);
    }

    #[test]
    fn clear_all() {
        let b = AtomicBitSet::new(100);
        for i in 0..100 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 100);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn empty_bitset() {
        let b = AtomicBitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn concurrent_claims_are_exclusive() {
        use swscc_sync::atomic::{AtomicUsize, Ordering};
        let b = AtomicBitSet::new(1000);
        let wins = AtomicUsize::new(0);
        swscc_sync::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        if b.set(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // every bit claimed exactly once across all threads
        assert_eq!(wins.load(Ordering::Relaxed), 1000);
        assert_eq!(b.count_ones(), 1000);
    }
}
