//! The text index shared by the decode cache and the block translation
//! cache: one flat `u32` slot per byte of each executable region, `0`
//! while nothing is cached at that address, otherwise the owner's entry
//! index + 1. Sections that touch or overlap merge into one region;
//! a probe checks the last-hit region, then scans the few others.
//!
//! Slots are zero-allocated (`vec![0; len]`), so index pages whose text
//! never executes are never touched and never become resident. A `rip`
//! in no region is not executable: both caches report it as
//! [`EmuError::NotExecutable`](crate::EmuError::NotExecutable).

use crate::MAX_INST_LEN;
use std::ops::Range;

/// The addresses a region may cover: every indexed byte sits at least
/// [`MAX_INST_LEN`] away from both ends of the address space. So
/// `rip + len` of an instruction starting in a region, and a region's
/// end plus the write slack, never overflow; and the head of a store
/// that wraps past 2^64 (under 8 bytes, at address 0) lies below every
/// region.
const INDEXABLE: Range<u64> = MAX_INST_LEN..u64::MAX - MAX_INST_LEN;

/// One executable region: a slot per byte from `base`.
#[derive(Debug, Default)]
struct Region {
    base: u64,
    slots: Vec<u32>,
}

impl Region {
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Slot offset of `rip`, if it lies in the region.
    #[inline(always)]
    fn offset(&self, rip: u64) -> Option<usize> {
        let o = rip.wrapping_sub(self.base) as usize;
        (o < self.slots.len()).then_some(o)
    }
}

/// A flat slot index over the executable regions.
#[derive(Debug, Default)]
pub(crate) struct TextIndex {
    /// The region the last probe hit — the memo. Held outside `others`
    /// so that a hit reads its base, length and slots directly, as
    /// cheaply as a single flat index.
    hot: Region,
    /// Every other region (none while nothing is indexed, when `hot` is
    /// empty too).
    others: Vec<Region>,
    /// `[watch_lo, watch_hi)`: the regions' hull plus [`MAX_INST_LEN`]
    /// past the last end (an instruction starting inside can extend that
    /// far). A store outside it cannot touch indexed text.
    watch_lo: u64,
    watch_hi: u64,
}

impl TextIndex {
    /// An index over `ranges` (clamped to [`INDEXABLE`], empty ones
    /// ignored), merging ranges that touch or overlap.
    pub(crate) fn new(ranges: impl IntoIterator<Item = Range<u64>>) -> TextIndex {
        let mut spans: Vec<Range<u64>> = ranges
            .into_iter()
            .map(|r| r.start.max(INDEXABLE.start)..r.end.min(INDEXABLE.end))
            .filter(|r| r.start < r.end)
            .collect();
        spans.sort_unstable_by_key(|r| r.start);
        let mut merged: Vec<Range<u64>> = Vec::with_capacity(spans.len());
        for r in spans {
            match merged.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        let (watch_lo, watch_hi) = match (merged.first(), merged.last()) {
            (Some(first), Some(last)) => (first.start, last.end + MAX_INST_LEN),
            _ => (0, 0),
        };
        let mut others: Vec<Region> = merged
            .into_iter()
            .map(|r| Region {
                base: r.start,
                slots: vec![0; (r.end - r.start) as usize],
            })
            .collect();
        let hot = others.pop().unwrap_or_default();
        TextIndex {
            hot,
            others,
            watch_lo,
            watch_hi,
        }
    }

    /// Every region, in no particular order.
    fn all(&self) -> impl Iterator<Item = &Region> {
        std::iter::once(&self.hot)
            .chain(&self.others)
            .filter(|r| !r.slots.is_empty())
    }

    /// The regions' address ranges, ascending.
    pub(crate) fn regions(&self) -> Vec<Range<u64>> {
        let mut ranges: Vec<_> = self.all().map(|r| r.base..r.end()).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        ranges
    }

    /// A fresh, empty index over the same regions.
    pub(crate) fn empty_copy(&self) -> TextIndex {
        TextIndex::new(self.regions())
    }

    /// Heap bytes the slots hold.
    pub(crate) fn bytes(&self) -> usize {
        self.all().map(|r| r.slots.len()).sum::<usize>() * size_of::<u32>()
    }

    /// The slot of `rip`, or `None` when `rip` lies in no region: the
    /// last-hit region first, then a scan of the others.
    #[inline(always)]
    pub(crate) fn slot(&mut self, rip: u64) -> Option<&mut u32> {
        match self.hot.offset(rip) {
            Some(o) => Some(&mut self.hot.slots[o]),
            None => self.slot_elsewhere(rip),
        }
    }

    /// [`slot`](Self::slot) after a miss in `hot`: swaps the region
    /// holding `rip`, if any, into `hot`.
    #[inline(never)]
    fn slot_elsewhere(&mut self, rip: u64) -> Option<&mut u32> {
        let i = self.others.iter().position(|r| r.offset(rip).is_some())?;
        std::mem::swap(&mut self.hot, &mut self.others[i]);
        let o = self.hot.offset(rip)?;
        Some(&mut self.hot.slots[o])
    }

    /// End of the region holding `rip`, if any.
    pub(crate) fn region_end(&mut self, rip: u64) -> Option<u64> {
        self.slot(rip)?;
        Some(self.hot.end())
    }

    /// Whether a store to `[addr, addr + len)` can touch indexed text: a
    /// region or the [`MAX_INST_LEN`] bytes past its end. One compare
    /// for a store above the regions' hull (the stack), two below it,
    /// then a per-region check. A store wrapping past 2^64 is checked
    /// up to 2^64 − 1 only: its wrapped head lies below every region
    /// (see [`INDEXABLE`]).
    #[inline(always)]
    pub(crate) fn touches(&self, addr: u64, len: u64) -> bool {
        addr < self.watch_hi
            && addr.saturating_add(len) > self.watch_lo
            && self.any_region(addr, addr.saturating_add(len))
    }

    /// Whether `[lo, hi)` overlaps a region or its write slack.
    #[inline(never)]
    fn any_region(&self, lo: u64, hi: u64) -> bool {
        self.all()
            .any(|r| lo < r.end() + MAX_INST_LEN && hi > r.base)
    }

    /// Empties every slot. The slots are reallocated zeroed rather than
    /// filled, so pages never touched again stay non-resident.
    pub(crate) fn clear(&mut self) {
        for r in std::iter::once(&mut self.hot).chain(&mut self.others) {
            r.slots = vec![0; r.slots.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touching_and_overlapping_sections_merge() {
        let t = TextIndex::new([0x500..0x600, 0x100..0x200, 0x200..0x280, 0x250..0x300, 9..9]);
        assert_eq!(t.regions(), [0x100..0x300, 0x500..0x600]);
        assert_eq!((t.watch_lo, t.watch_hi), (0x100, 0x600 + MAX_INST_LEN));
        assert_eq!(t.bytes(), (0x200 + 0x100) * 4);
    }

    #[test]
    fn slots_resolve_per_region_and_clear() {
        let mut t = TextIndex::new([0x1000..0x1010, 0x400..0x410]);
        *t.slot(0x400).unwrap() = 1;
        *t.slot(0x100f).unwrap() = 2;
        assert_eq!(t.slot(0x400).copied(), Some(1));
        assert_eq!(t.slot(0x100f).copied(), Some(2), "memo miss scans");
        assert_eq!(t.slot(0x410), None, "one past a region's end");
        assert_eq!(t.slot(0x3ff), None);
        assert_eq!(t.region_end(0x1004), Some(0x1010));
        t.clear();
        assert_eq!(t.slot(0x400).copied(), Some(0));
        assert_eq!(t.regions(), t.empty_copy().regions());
    }

    #[test]
    fn stores_touch_regions_and_their_slack_only() {
        let t = TextIndex::new([0x400..0x500, 0x1000..0x1100]);
        assert!(t.touches(0x4f8, 8));
        assert!(t.touches(0x500 + MAX_INST_LEN - 1, 8), "in the slack");
        assert!(!t.touches(0x500 + MAX_INST_LEN, 8));
        assert!(!t.touches(0x800, 8), "inside the hull, between regions");
        assert!(!t.touches(0x3f8, 8));
        assert!(!t.touches(u64::MAX - 3, 8), "wraps to below the text");
        let ends = TextIndex::new([0..0x100, u64::MAX - 0x100..u64::MAX]);
        assert_eq!(
            ends.regions(),
            [
                MAX_INST_LEN..0x100,
                u64::MAX - 0x100..u64::MAX - MAX_INST_LEN
            ],
            "clamped away from both ends of the address space"
        );
        assert!(ends.touches(u64::MAX - 0x100 - 4, 8));
        assert!(ends.touches(u64::MAX - 3, 8), "slack reaches 2^64 - 1");
    }
}
