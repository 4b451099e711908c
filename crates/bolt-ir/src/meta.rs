//! Simplified debug-information tables: the line table (`.bolt.lines`,
//! standing in for DWARF `.debug_line`) and the exception table
//! (`.bolt.eh`, standing in for the LSDA). Both are emitted by the linker
//! and *rewritten* by BOLT when code moves (paper section 3.4).

use crate::LineInfo;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Errors from parsing metadata sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    Truncated,
    BadUtf8,
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::Truncated => write!(f, "truncated metadata section"),
            MetaError::BadUtf8 => write!(f, "invalid UTF-8 in file name"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Address → (file, line) mapping with a file-name table.
///
/// Entries are sorted by address; a lookup finds the last entry at or below
/// the queried address within the same entry's extent (entries are
/// per-instruction, so exact match is the norm).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineTable {
    /// File names, indexed by `LineInfo::file`.
    pub files: Vec<String>,
    /// `(address, file, line)`, sorted by address.
    pub entries: Vec<(u64, u32, u32)>,
}

impl LineTable {
    pub fn new() -> LineTable {
        LineTable::default()
    }

    /// Interns a file name, returning its index.
    pub fn intern_file(&mut self, name: &str) -> u32 {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            return i as u32;
        }
        self.files.push(name.to_string());
        (self.files.len() - 1) as u32
    }

    /// Records that the instruction at `addr` came from `file:line`.
    pub fn push(&mut self, addr: u64, file: u32, line: u32) {
        self.entries.push((addr, file, line));
    }

    /// Sorts entries by address (required before serialization/lookup).
    pub fn normalize(&mut self) {
        self.entries.sort_unstable();
        self.entries.dedup();
    }

    /// Exact-address lookup.
    pub fn lookup(&self, addr: u64) -> Option<(u32, u32)> {
        let i = self.entries.partition_point(|e| e.0 < addr);
        self.entries
            .get(i)
            .filter(|e| e.0 == addr)
            .map(|e| (e.1, e.2))
    }

    /// Human-readable `file:line` for an address.
    pub fn describe(&self, addr: u64) -> Option<String> {
        let (f, l) = self.lookup(addr)?;
        let name = self
            .files
            .get(f as usize)
            .map(String::as_str)
            .unwrap_or("?");
        Some(format!("{name}:{l}"))
    }

    /// Serializes to the `.bolt.lines` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        LineTable::write(
            &self.files,
            self.entries.len(),
            self.entries.iter().copied(),
        )
    }

    /// Serializes `files` and `entries` (in the order given, up to about
    /// `max_entries` of them: the buffer is sized for that many) to the
    /// `.bolt.lines` binary format without building a table.
    pub fn write(
        files: &[String],
        max_entries: usize,
        entries: impl IntoIterator<Item = (u64, u32, u32)>,
    ) -> Vec<u8> {
        let mut out = header(files, max_entries);
        let count_at = out.len() - 4;
        let mut n = 0u32;
        for e in entries {
            push_record(&mut out, e);
            n += 1;
        }
        out[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
        out
    }

    /// Parses the `.bolt.lines` binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated input or invalid UTF-8 file names.
    pub fn from_bytes(data: &[u8]) -> Result<LineTable, MetaError> {
        let (files, records) = split_lines(data)?;
        let entries = records.chunks_exact(RECORD).map(record).collect();
        Ok(LineTable { files, entries })
    }
}

/// Bytes per `.bolt.lines` entry: address, file, line.
const RECORD: usize = 16;

/// The `.bolt.lines` bytes before the entries, their count 0 until
/// patched, in a buffer sized for `max_entries` entries after them.
fn header(files: &[String], max_entries: usize) -> Vec<u8> {
    let names: usize = files.iter().map(|f| 4 + f.len()).sum();
    let mut out = Vec::with_capacity(8 + names + RECORD * max_entries);
    out.extend_from_slice(&(files.len() as u32).to_le_bytes());
    for f in files {
        out.extend_from_slice(&(f.len() as u32).to_le_bytes());
        out.extend_from_slice(f.as_bytes());
    }
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

fn push_record(out: &mut Vec<u8>, (a, f, l): (u64, u32, u32)) {
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&f.to_le_bytes());
    out.extend_from_slice(&l.to_le_bytes());
}

fn record(r: &[u8]) -> (u64, u32, u32) {
    let a = u64::from_le_bytes(r[..8].try_into().expect("8 bytes"));
    let f = u32::from_le_bytes(r[8..12].try_into().expect("4 bytes"));
    let l = u32::from_le_bytes(r[12..16].try_into().expect("4 bytes"));
    (a, f, l)
}

/// Splits a `.bolt.lines` section into its file names and the bytes of
/// its entry records (exactly as many as it declares; bytes after them
/// are ignored).
fn split_lines(data: &[u8]) -> Result<(Vec<String>, &[u8]), MetaError> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], MetaError> {
        let end = pos.checked_add(n).ok_or(MetaError::Truncated)?;
        let s = data.get(pos..end).ok_or(MetaError::Truncated)?;
        pos = end;
        Ok(s)
    };
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
    let nfiles = word(take(4)?);
    // Each name takes 4 bytes at least, which bounds a corrupt count.
    let mut files = Vec::with_capacity(nfiles.min(data.len() / 4));
    for _ in 0..nfiles {
        let len = word(take(4)?);
        let name = std::str::from_utf8(take(len)?).map_err(|_| MetaError::BadUtf8)?;
        files.push(name.to_string());
    }
    let nentries = word(take(4)?);
    let records = take(nentries.checked_mul(RECORD).ok_or(MetaError::Truncated)?)?;
    Ok((files, records))
}

/// A `.bolt.lines` section read in place: its file names, and its
/// entries as the section's own 16-byte records, or, when those are not
/// strictly increasing, an owned sorted and deduplicated copy of them
/// (what [`LineTable::normalize`] would make). Lookups walk the records;
/// no entry is copied into a table.
#[derive(Debug, Clone, Default)]
pub struct LineRecords<'a> {
    /// File names, indexed by `LineInfo::file`.
    pub files: Vec<String>,
    records: Cow<'a, [u8]>,
}

impl<'a> LineRecords<'a> {
    /// Reads a `.bolt.lines` section.
    ///
    /// # Errors
    ///
    /// As [`LineTable::from_bytes`].
    pub fn parse(data: &'a [u8]) -> Result<LineRecords<'a>, MetaError> {
        let (files, records) = split_lines(data)?;
        let sorted = records
            .chunks_exact(RECORD)
            .map(record)
            .is_sorted_by(|a, b| a < b);
        let records = if sorted {
            Cow::Borrowed(records)
        } else {
            let mut t = LineTable {
                files: Vec::new(),
                entries: records.chunks_exact(RECORD).map(record).collect(),
            };
            t.normalize();
            let mut bytes = Vec::with_capacity(RECORD * t.entries.len());
            t.entries
                .into_iter()
                .for_each(|e| push_record(&mut bytes, e));
            Cow::Owned(bytes)
        };
        Ok(LineRecords { files, records })
    }

    pub fn len(&self) -> usize {
        self.records.len() / RECORD
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Entry `i`, `(address, file, line)`.
    pub fn get(&self, i: usize) -> Option<(u64, u32, u32)> {
        self.records.get(i * RECORD..(i + 1) * RECORD).map(record)
    }

    /// The number of leading entries whose address satisfies `pred`
    /// (entries are sorted, so `pred` must be true on a prefix).
    pub fn partition_point(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid).expect("in range").0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Every entry, in address order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u32, u32)> + Clone + '_ {
        self.records.chunks_exact(RECORD).map(record)
    }

    /// The `.bolt.lines` bytes of these file names and of the entries in
    /// `kept` (ascending runs of entry indices) merged with `new` (sorted
    /// by address, then line), without repeats. The kept entries between
    /// two new ones are copied as the section's bytes.
    pub fn merge_to_bytes(
        &self,
        kept: impl Iterator<Item = Range<usize>> + Clone,
        new: &[(u64, LineInfo)],
    ) -> Vec<u8> {
        let n_kept: usize = kept.clone().map(|r| r.len()).sum();
        let mut out = header(&self.files, n_kept + new.len());
        let count_at = out.len() - 4;
        let mut last = None;
        let mut new = new.iter().map(|&(a, li)| (a, li.file, li.line)).peekable();
        for run in kept {
            let mut i = run.start;
            while i < run.end {
                let entry = self.get(i).expect("in range");
                // The new entry goes first, or the run's entries below it.
                let upto = match new.peek() {
                    Some(&n) if n <= entry => {
                        if last.replace(n) != Some(n) {
                            push_record(&mut out, n);
                        }
                        new.next();
                        continue;
                    }
                    Some(&n) => self.first_at_least(i..run.end, n),
                    None => run.end,
                };
                // The entries are strictly increasing: only the first can
                // repeat the last one written.
                let from = if last == Some(entry) { i + 1 } else { i };
                out.extend_from_slice(&self.records[from * RECORD..upto * RECORD]);
                last = self.get(upto - 1);
                i = upto;
            }
        }
        for n in new {
            if last.replace(n) != Some(n) {
                push_record(&mut out, n);
            }
        }
        let n = ((out.len() - count_at - 4) / RECORD) as u32;
        out[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
        out
    }

    /// The first index in `range` whose entry is at least `e`.
    fn first_at_least(&self, range: Range<usize>, e: (u64, u32, u32)) -> usize {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).expect("in range") < e {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The simplified exception table: maps call-site addresses to landing-pad
/// addresses. BOLT must keep this table correct when it moves either the
/// call site or the landing pad (paper sections 3.4 and split-eh).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExceptionTable {
    /// `call_site_addr -> landing_pad_addr`.
    pub entries: BTreeMap<u64, u64>,
}

impl ExceptionTable {
    pub fn new() -> ExceptionTable {
        ExceptionTable::default()
    }

    /// Registers a call site with its landing pad.
    pub fn add(&mut self, call_site: u64, landing_pad: u64) {
        self.entries.insert(call_site, landing_pad);
    }

    /// The landing pad for a call site, if registered.
    pub fn landing_pad_for(&self, call_site: u64) -> Option<u64> {
        self.entries.get(&call_site).copied()
    }

    /// Serializes to the `.bolt.eh` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 16 * self.entries.len());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (cs, lp) in &self.entries {
            out.extend_from_slice(&cs.to_le_bytes());
            out.extend_from_slice(&lp.to_le_bytes());
        }
        out
    }

    /// Parses the `.bolt.eh` binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated input.
    pub fn from_bytes(data: &[u8]) -> Result<ExceptionTable, MetaError> {
        let mut t = ExceptionTable::new();
        let n = u32::from_le_bytes(
            data.get(..4)
                .ok_or(MetaError::Truncated)?
                .try_into()
                .unwrap(),
        ) as usize;
        let mut pos = 4;
        for _ in 0..n {
            let cs = u64::from_le_bytes(
                data.get(pos..pos + 8)
                    .ok_or(MetaError::Truncated)?
                    .try_into()
                    .unwrap(),
            );
            let lp = u64::from_le_bytes(
                data.get(pos + 8..pos + 16)
                    .ok_or(MetaError::Truncated)?
                    .try_into()
                    .unwrap(),
            );
            t.entries.insert(cs, lp);
            pos += 16;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_table_round_trip() {
        let mut t = LineTable::new();
        let f1 = t.intern_file("exception4.cpp");
        let f2 = t.intern_file("PointerIntPair.h");
        assert_eq!(t.intern_file("exception4.cpp"), f1, "interning dedups");
        t.push(0x400010, f1, 22);
        t.push(0x400000, f2, 152);
        t.normalize();
        let back = LineTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.lookup(0x400010), Some((f1, 22)));
        assert_eq!(back.describe(0x400000).unwrap(), "PointerIntPair.h:152");
        assert_eq!(back.lookup(0x400001), None);
    }

    #[test]
    fn exception_table_round_trip() {
        let mut t = ExceptionTable::new();
        t.add(0x400010, 0x400200);
        t.add(0x400050, 0x400220);
        let back = ExceptionTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.landing_pad_for(0x400010), Some(0x400200));
        assert_eq!(back.landing_pad_for(0x400011), None);
    }

    #[test]
    fn truncation_rejected() {
        let mut t = LineTable::new();
        t.intern_file("a.cpp");
        t.push(1, 0, 1);
        let bytes = t.to_bytes();
        assert_eq!(
            LineTable::from_bytes(&bytes[..bytes.len() - 1]),
            Err(MetaError::Truncated)
        );
        let mut e = ExceptionTable::new();
        e.add(1, 2);
        let bytes = e.to_bytes();
        assert_eq!(
            ExceptionTable::from_bytes(&bytes[..bytes.len() - 1]),
            Err(MetaError::Truncated)
        );
    }
}
