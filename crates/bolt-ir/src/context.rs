//! The whole-binary rewriting context shared by passes.

use crate::{BinaryFunction, ExceptionTable};
use std::collections::{BTreeMap, HashMap};

/// Read-only data the rewriter needs beyond per-function CFGs: read-only
/// sections (for jump tables and `simplify-ro-loads`), PLT stub
/// resolution, and the metadata tables being rewritten.
#[derive(Debug, Clone, Default)]
pub struct BinaryContext {
    /// All functions, simple or not.
    pub functions: Vec<BinaryFunction>,
    /// Function index by name (includes ICF aliases).
    pub by_name: HashMap<String, usize>,
    /// Function index by start address.
    pub by_addr: BTreeMap<u64, usize>,
    /// Read-only data ranges: `(start_addr, bytes)`.
    pub rodata: Vec<(u64, Vec<u8>)>,
    /// PLT stub address → final target function name.
    pub plt_stubs: HashMap<u64, String>,
    /// The file names of the line table in `.bolt.lines`, indexed by
    /// `LineInfo::file`. Its entries are read from the section's bytes
    /// where they are needed ([`crate::LineRecords`]) and live on in each
    /// instruction's `line`.
    pub line_files: Vec<String>,
    /// The exception table read from `.bolt.eh`.
    pub exceptions: ExceptionTable,
    /// Program entry point.
    pub entry: u64,
    /// Weighted call-graph edges recovered from the profile:
    /// `(caller index, callee index) -> count`.
    pub call_graph: HashMap<(usize, usize), u64>,
    /// Indirect-call target profile for ICP:
    /// `call-site address -> [(callee index, count)]`.
    pub indirect_call_targets: HashMap<u64, Vec<(usize, u64)>>,
}

impl BinaryContext {
    pub fn new() -> BinaryContext {
        BinaryContext::default()
    }

    /// Adds a function and indexes it.
    pub fn add_function(&mut self, func: BinaryFunction) -> usize {
        let idx = self.functions.len();
        self.by_name.insert(func.name.clone(), idx);
        self.by_addr.insert(func.address, idx);
        self.functions.push(func);
        idx
    }

    /// Rebuilds both indices (after passes rename/fold functions).
    /// Folded functions resolve by name to their fold keeper.
    pub fn reindex(&mut self) {
        self.by_name.clear();
        self.by_addr.clear();
        for (i, f) in self.functions.iter().enumerate() {
            self.by_addr.insert(f.address, i);
            if f.folded_into.is_none() {
                self.by_name.insert(f.name.clone(), i);
                for alias in &f.icf_aliases {
                    self.by_name.insert(alias.clone(), i);
                }
            }
        }
        // Names of folded functions resolve through the fold chain.
        for i in 0..self.functions.len() {
            if self.functions[i].folded_into.is_some() {
                let mut k = i;
                while let Some(next) = self.functions[k].folded_into {
                    k = next;
                }
                self.by_name.insert(self.functions[i].name.clone(), k);
            }
        }
    }

    /// Function lookup by name (following ICF aliases).
    pub fn function_by_name(&self, name: &str) -> Option<&BinaryFunction> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// The function whose address range contains `addr`, if any.
    pub fn function_at(&self, addr: u64) -> Option<usize> {
        let (_, &idx) = self.by_addr.range(..=addr).next_back()?;
        let f = &self.functions[idx];
        if addr < f.address + f.size.max(1) {
            Some(idx)
        } else {
            None
        }
    }

    /// Reads bytes from read-only data at a virtual address.
    pub fn read_rodata(&self, addr: u64, len: usize) -> Option<&[u8]> {
        for (start, data) in &self.rodata {
            if addr >= *start {
                let off = (addr - start) as usize;
                if off + len <= data.len() {
                    return Some(&data[off..off + len]);
                }
            }
        }
        None
    }

    /// Reads a u64 from read-only data.
    pub fn read_rodata_u64(&self, addr: u64) -> Option<u64> {
        self.read_rodata(addr, 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Whether an address falls in read-only data.
    pub fn is_rodata_addr(&self, addr: u64) -> bool {
        self.read_rodata(addr, 1).is_some()
    }

    /// Total profile samples across all functions.
    pub fn total_exec_count(&self) -> u64 {
        self.functions.iter().map(|f| f.exec_count).sum()
    }

    /// Simple functions eligible for rewriting, hottest first.
    pub fn simple_functions_by_hotness(&self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.functions.len())
            .filter(|&i| self.functions[i].is_simple)
            .collect();
        v.sort_by_key(|&i| std::cmp::Reverse(self.functions[i].exec_count));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_lookup_respects_ranges() {
        let mut ctx = BinaryContext::new();
        let mut f1 = BinaryFunction::new("a", 0x400000);
        f1.size = 0x20;
        let mut f2 = BinaryFunction::new("b", 0x400100);
        f2.size = 0x10;
        ctx.add_function(f1);
        ctx.add_function(f2);
        assert_eq!(ctx.function_at(0x400000), Some(0));
        assert_eq!(ctx.function_at(0x40001F), Some(0));
        assert_eq!(ctx.function_at(0x400020), None, "gap between functions");
        assert_eq!(ctx.function_at(0x400105), Some(1));
        assert_eq!(ctx.function_at(0x3FFFFF), None);
    }

    #[test]
    fn rodata_reads() {
        let mut ctx = BinaryContext::new();
        ctx.rodata.push((0x500000, vec![1, 0, 0, 0, 0, 0, 0, 0, 2]));
        assert_eq!(ctx.read_rodata_u64(0x500000), Some(1));
        assert!(ctx.is_rodata_addr(0x500008));
        assert!(!ctx.is_rodata_addr(0x500009));
        assert_eq!(ctx.read_rodata_u64(0x500002), None);
    }

    #[test]
    fn reindex_follows_aliases() {
        let mut ctx = BinaryContext::new();
        let mut f = BinaryFunction::new("original", 0x400000);
        f.icf_aliases.push("folded_twin".into());
        ctx.add_function(f);
        ctx.reindex();
        assert!(ctx.function_by_name("folded_twin").is_some());
        assert_eq!(
            ctx.function_by_name("folded_twin").unwrap().name,
            "original"
        );
    }
}
