//! Set-associative cache model with LRU replacement.

/// A set-associative cache with true-LRU replacement.
///
/// Used for every level of the hierarchy (L1I, L1D, L2, LLC) and — with a
/// "line size" of one page — for the TLBs.
///
/// Each set keeps its tags in recency order, most recently used first, so
/// the order *is* the LRU state: a hit on way 0 — nearly every access of
/// an emulated program — is one compare and changes nothing, a deeper hit
/// moves its tag to the front, and a miss drops the last way, which is an
/// invalid slot while the set has one (they only ever sit at the tail)
/// and the least recently used line otherwise.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2 of the line size.
    line_shift: u32,
    /// Number of sets minus one (the set count is a power of two).
    set_mask: usize,
    ways: usize,
    /// `tags[set * ways..][..ways]`, most recently used first;
    /// `u64::MAX` = invalid.
    tags: Vec<u64>,
    pub accesses: u64,
    pub misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// `line_bytes` lines. All three must be powers of two with
    /// `size_bytes >= ways * line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two or inconsistent.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Cache {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        let lines = size_bytes / line_bytes;
        assert!(
            lines as usize >= ways,
            "cache must have at least one set ({size_bytes} bytes, {ways} ways)"
        );
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: lines as usize / ways - 1,
            ways,
            tags: vec![u64::MAX; lines as usize],
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.accesses += 1;
        let base = (line as usize & self.set_mask) * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if set[0] == line {
            return true;
        }
        match set.iter().position(|&t| t == line) {
            Some(way) => {
                set[..=way].rotate_right(1);
                true
            }
            None => {
                self.misses += 1;
                set.rotate_right(1);
                set[0] = line;
                false
            }
        }
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Miss rate over all accesses so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Resets counters but keeps contents (for warmup-then-measure runs).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn hits_and_misses() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0), "cold miss");
        assert!(c.access(0), "hit");
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line misses");
        assert_eq!(c.accesses, 4);
        assert_eq!(c.misses, 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways, 64B lines, 2 sets (256 bytes total).
        let mut c = Cache::new(256, 2, 64);
        // Set 0 gets lines 0, 2, 4 (addresses 0, 128, 256).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256)); // evicts line 0 (LRU)
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(256), "line 4 still resident");
    }

    #[test]
    fn lru_updates_on_hit() {
        let mut c = Cache::new(256, 2, 64);
        c.access(0);
        c.access(128);
        c.access(0); // touch line 0 -> line 2 becomes LRU
        c.access(256); // evicts line 2
        assert!(c.access(0), "line 0 protected by its recent hit");
        assert!(!c.access(128), "line 2 was evicted");
    }

    #[test]
    fn page_granularity_works_as_tlb() {
        let mut tlb = Cache::new(64 * 4096, 4, 4096);
        assert!(!tlb.access(0x400000));
        assert!(tlb.access(0x400FFF), "same page");
        assert!(!tlb.access(0x401000), "next page");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(1000, 2, 64);
    }

    /// The stamp-LRU implementation `Cache` replaced, kept as the
    /// reference: every way carries the tick of its last access, a miss
    /// fills the first invalid way, else evicts the smallest stamp.
    struct StampLru {
        line_shift: u32,
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
        accesses: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> StampLru {
            let sets = (size_bytes / line_bytes) as usize / ways;
            StampLru {
                line_shift: line_bytes.trailing_zeros(),
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                tick: 0,
                accesses: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            self.tick += 1;
            self.accesses += 1;
            let base = ((line as usize) & (self.sets - 1)) * self.ways;
            let slots = &self.tags[base..base + self.ways];
            if let Some(way) = slots.iter().position(|&t| t == line) {
                self.stamps[base + way] = self.tick;
                return true;
            }
            self.misses += 1;
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.ways {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.tick;
            false
        }
    }

    /// `(size, ways, line)`: direct-mapped, 2-way, the presets' 8-way
    /// L1s and 16-way LLC shapes (few sets, so streams collide), and the
    /// server dTLB (32 entries, 4 ways, 4 KiB pages).
    const GEOMETRIES: [(u64, usize, u64); 5] = [
        (256, 1, 64),
        (256, 2, 64),
        (2048, 8, 64),
        (4096, 16, 64),
        (32 * 4096, 4, 4096),
    ];

    proptest! {
        /// Recency-ordered sets are stamp-LRU: the same hit/miss answer
        /// on every access and the same counters, on streams that draw
        /// from a few more lines per set than the set has ways (so hits
        /// at every depth, evictions and re-fills all occur).
        #[test]
        fn recency_order_equals_stamp_lru(
            geometry in 0usize..GEOMETRIES.len(),
            // (set, line within the set, byte offset) per access.
            stream in collection::vec((0u64..4, 0u64..64, 0u64..4096), 1..400),
        ) {
            let (size, ways, line_bytes) = GEOMETRIES[geometry];
            let sets = size / line_bytes / ways as u64;
            let mut cache = Cache::new(size, ways, line_bytes);
            let mut reference = StampLru::new(size, ways, line_bytes);
            for (i, &(set, nth, offset)) in stream.iter().enumerate() {
                // `nth` ranges over ways + ways/2 + 1 candidates.
                let line = (nth % (ways as u64 + ways as u64 / 2 + 1)) * sets + set % sets;
                let addr = 0x40_0000 + line * line_bytes + offset % line_bytes;
                prop_assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "access {} ({:#x}) of {:?}", i, addr, GEOMETRIES[geometry]
                );
            }
            prop_assert_eq!(cache.accesses, reference.accesses);
            prop_assert_eq!(cache.misses, reference.misses);
        }
    }
}
