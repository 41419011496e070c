//! A compact fixed-capacity bit set used for dominator closures.

/// Fixed-capacity bit set backed by `u64` blocks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bit set able to hold `capacity` bits.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// In-place union with another bit set of the same capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a |= b;
        }
    }

    /// Whether the intersection with `other` is non-empty.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterator over the indices of set bits, in increasing order.
    ///
    /// Walks only the set bits of each block (lowest first via
    /// `trailing_zeros`, then `x &= x - 1` drops it), so the cost is one step
    /// per set bit plus one per block.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (word, rest) = self
            .blocks
            .split_first()
            .map_or((0, &[][..]), |(&w, r)| (w, r));
        Ones {
            word,
            base: 0,
            rest,
        }
    }

    /// The backing `u64` words: bit `i` is bit `i % 64` of word `i / 64`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * 8 + std::mem::size_of::<Self>()
    }
}

/// Set-bit iterator of [`BitSet::iter`]: `word` holds the bits not yet
/// yielded of the block starting at bit `base`, `rest` the blocks after it.
struct Ones<'a> {
    word: u64,
    base: usize,
    rest: &'a [u64],
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&next, rest) = self.rest.split_first()?;
            self.word = next;
            self.rest = rest;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert!(!s.contains(500));
        assert_eq!(s.count(), 3);
        s.clear(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        assert!(a.intersects(&b));
        a.union_with(&b);
        assert_eq!(a.count(), 3);
        let c = BitSet::new(100);
        assert!(!c.intersects(&a));
    }

    #[test]
    fn iteration_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 77, 3, 199] {
            s.set(i);
        }
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, vec![3, 5, 77, 199]);
    }

    #[test]
    fn iter_walks_exactly_the_set_bits_in_order() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(17);
        for cap in [0usize, 1, 63, 64, 65, 130, 200] {
            for density in [0.0, 0.05, 0.5, 1.0] {
                for _ in 0..8 {
                    let mut s = BitSet::new(cap);
                    for i in 0..cap {
                        if rng.random_range(0.0..1.0) < density {
                            s.set(i);
                        }
                    }
                    // the block-boundary bits, when they exist
                    for i in [0, 63, 64, cap.wrapping_sub(1)] {
                        if i < cap && rng.random_range(0..2) == 0 {
                            s.set(i);
                        }
                    }
                    let got: Vec<usize> = s.iter().collect();
                    let expect: Vec<usize> = (0..cap).filter(|&i| s.contains(i)).collect();
                    assert_eq!(got, expect, "capacity {cap}");
                    assert_eq!(s.iter().count(), s.count());
                    assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending");
                }
            }
        }
    }

    #[test]
    fn empty_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
    }
}
