//! Sparse paged memory for the emulator.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Slots in the direct-mapped page memo. Eight ways keep a handful of
/// concurrently hot pages (code, stack, a couple of data regions)
/// resolving without a hash.
const MEMO_WAYS: usize = 8;

/// Memo slot sentinel: no page number is `u64::MAX` (it would imply an
/// address past the top of the 64-bit space).
const NO_PAGE: u64 = u64::MAX;

/// A sparse 64-bit address space backed by 4 KiB pages allocated on
/// demand.
///
/// Pages live in a stable arena (`pages`) reached through a page-number
/// index; a small direct-mapped memo caches recent page resolutions so
/// the emulator's hot paths — stack traffic, a loop's data, straight-line
/// code — skip the hash map entirely. Every memory access used to pay a
/// SipHash lookup, which dominated the interpreter's per-instruction
/// cost for memory-heavy code under every engine.
#[derive(Debug)]
pub struct Memory {
    /// Page storage; slots are never freed until [`clear`](Memory::clear).
    pages: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    /// Page number → arena slot.
    index: HashMap<u64, u32>,
    /// Direct-mapped `(page number, arena slot)` memo, keyed by the page
    /// number's low bits. Interior-mutable so reads can refresh it.
    memo: [Cell<(u64, u32)>; MEMO_WAYS],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Vec::new(),
            index: HashMap::new(),
            memo: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
        }
    }
}

impl Memory {
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Resolves a page number to its arena slot, if resident.
    #[inline]
    fn page_slot(&self, page_no: u64) -> Option<u32> {
        let way = (page_no as usize) & (MEMO_WAYS - 1);
        let (memo_no, slot) = self.memo[way].get();
        if memo_no == page_no {
            return Some(slot);
        }
        let slot = *self.index.get(&page_no)?;
        self.memo[way].set((page_no, slot));
        Some(slot)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let page_no = addr >> PAGE_SHIFT;
        let slot = match self.page_slot(page_no) {
            Some(s) => s,
            None => {
                let s = self.pages.len() as u32;
                self.pages.push(Box::new([0; PAGE_SIZE as usize]));
                self.index.insert(page_no, s);
                self.memo[(page_no as usize) & (MEMO_WAYS - 1)].set((page_no, s));
                s
            }
        };
        &mut self.pages[slot as usize]
    }

    /// Reads one byte (unmapped memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page_slot(addr >> PAGE_SHIFT) {
            Some(s) => self.pages[s as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = v;
    }

    /// Reads `buf.len()` bytes starting at `addr`. Cross-page accesses
    /// are chunked into one `copy_from_slice` span per page.
    pub fn read(&self, addr: u64, mut buf: &mut [u8]) {
        let mut addr = addr;
        while !buf.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = buf.len().min(PAGE_SIZE as usize - off);
            match self.page_slot(addr >> PAGE_SHIFT) {
                Some(s) => buf[..n].copy_from_slice(&self.pages[s as usize][off..off + n]),
                None => buf[..n].fill(0),
            }
            buf = &mut buf[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Writes `data` starting at `addr`, one `copy_from_slice` span per
    /// page.
    pub fn write(&mut self, addr: u64, mut data: &[u8]) {
        let mut addr = addr;
        while !data.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = data.len().min(PAGE_SIZE as usize - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&data[..n]);
            data = &data[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Drops every resident page, returning the address space to
    /// all-zeros (used by [`Machine::reset`](crate::Machine::reset)).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.index.clear();
        for way in &self.memo {
            way.set((NO_PAGE, 0));
        }
    }

    /// Reads a little-endian u64. Accesses inside one page (the hot
    /// case: stack slots, aligned data) skip the chunking loop.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            return match self.page_slot(addr >> PAGE_SHIFT) {
                Some(s) => {
                    u64::from_le_bytes(self.pages[s as usize][off..off + 8].try_into().unwrap())
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian u64 (single-page fast path like
    /// [`read_u64`](Memory::read_u64)).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
            return;
        }
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of resident pages (for tests and stats).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_round_trip() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u8(0x1000), 0x0D);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x5000_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1FFC; // straddles the 0x1000/0x2000 page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u8(0x2000), 0x44, "5th little-endian byte");
    }

    #[test]
    fn multi_page_span_with_unmapped_hole() {
        let mut m = Memory::new();
        // Map the first and third page of a three-page read; the middle
        // page stays unmapped and must read as zeros.
        m.write(0x1FF0, &[0xAA; 16]);
        m.write(0x3000, &[0xBB; 16]);
        assert_eq!(m.resident_pages(), 2);
        let mut buf = vec![0xCCu8; 0x1020];
        m.read(0x1FF0, &mut buf);
        assert_eq!(&buf[..16], &[0xAA; 16]);
        assert!(buf[16..0x1010].iter().all(|&b| b == 0), "hole reads zero");
        assert_eq!(&buf[0x1010..], &[0xBB; 16]);
        // Reading must not have materialized the hole page.
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn clear_drops_all_pages() {
        let mut m = Memory::new();
        m.write(0x1000, &[1, 2, 3]);
        m.write(0x9000, &[4, 5, 6]);
        m.clear();
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_u8(0x1000), 0);
    }

    #[test]
    fn bulk_write_spanning_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(0x1F80, &data);
        let mut back = vec![0u8; 256];
        m.read(0x1F80, &mut back);
        assert_eq!(back, data);
    }
}
