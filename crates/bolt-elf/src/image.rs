//! The in-memory ELF image model shared by the writer and the reader.

use crate::types::{shf, SymBind, SymKind};
use std::fmt;

/// A section with content and layout information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `.text`).
    pub name: String,
    /// `sht::*` section type.
    pub sh_type: u32,
    /// `shf::*` flag bits.
    pub flags: u64,
    /// Virtual address (0 for non-allocatable sections).
    pub addr: u64,
    /// Raw contents.
    pub data: Vec<u8>,
    /// Required alignment.
    pub align: u64,
}

impl Section {
    /// Creates an allocatable, executable code section.
    pub fn code(name: impl Into<String>, addr: u64, data: Vec<u8>) -> Section {
        Section {
            name: name.into(),
            sh_type: crate::types::sht::PROGBITS,
            flags: shf::ALLOC | shf::EXECINSTR,
            addr,
            data,
            align: 16,
        }
    }

    /// Creates an allocatable read-only data section.
    pub fn rodata(name: impl Into<String>, addr: u64, data: Vec<u8>) -> Section {
        Section {
            name: name.into(),
            sh_type: crate::types::sht::PROGBITS,
            flags: shf::ALLOC,
            addr,
            data,
            align: 8,
        }
    }

    /// Creates an allocatable read-write data section.
    pub fn data(name: impl Into<String>, addr: u64, data: Vec<u8>) -> Section {
        Section {
            name: name.into(),
            sh_type: crate::types::sht::PROGBITS,
            flags: shf::ALLOC | shf::WRITE,
            addr,
            data,
            align: 8,
        }
    }

    /// Creates a non-allocatable metadata section.
    pub fn metadata(name: impl Into<String>, data: Vec<u8>) -> Section {
        Section {
            name: name.into(),
            sh_type: crate::types::sht::PROGBITS,
            flags: 0,
            addr: 0,
            data,
            align: 8,
        }
    }

    /// Whether the section occupies memory at run time.
    pub fn is_alloc(&self) -> bool {
        self.flags & shf::ALLOC != 0
    }

    /// Whether the section contains executable code.
    pub fn is_exec(&self) -> bool {
        self.flags & shf::EXECINSTR != 0
    }

    /// Whether the section is writable at run time.
    pub fn is_writable(&self) -> bool {
        self.flags & shf::WRITE != 0
    }

    /// The virtual address range `[addr, addr+len)` of the section.
    pub fn addr_range(&self) -> std::ops::Range<u64> {
        self.addr..self.addr + self.data.len() as u64
    }
}

/// Where a symbol is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymSection {
    /// Undefined (external) symbol.
    Undef,
    /// Absolute value.
    Abs,
    /// Index into [`Elf::sections`].
    Section(usize),
}

/// A symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    pub name: String,
    pub value: u64,
    pub size: u64,
    pub kind: SymKind,
    pub bind: SymBind,
    pub section: SymSection,
}

impl Symbol {
    /// Creates a global function symbol.
    pub fn func(name: impl Into<String>, value: u64, size: u64, section: usize) -> Symbol {
        Symbol {
            name: name.into(),
            value,
            size,
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: SymSection::Section(section),
        }
    }

    /// Creates a local data-object symbol.
    pub fn object(name: impl Into<String>, value: u64, size: u64, section: usize) -> Symbol {
        Symbol {
            name: name.into(),
            value,
            size,
            kind: SymKind::Object,
            bind: SymBind::Local,
            section: SymSection::Section(section),
        }
    }

    /// The address range covered by the symbol.
    pub fn addr_range(&self) -> std::ops::Range<u64> {
        self.value..self.value + self.size
    }
}

/// An ELF64 executable image.
///
/// This is the single model used by [`crate::write_elf`] and
/// [`crate::read_elf`]; the generated bookkeeping sections (`.symtab`,
/// `.strtab`, `.shstrtab`) are represented by the typed `symbols` field
/// rather than by raw [`Section`]s, so a write→read round trip reproduces
/// the same `Elf` value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Elf {
    /// Program entry point.
    pub entry: u64,
    /// Content sections in layout order.
    pub sections: Vec<Section>,
    /// Symbol table (never includes the leading null symbol).
    pub symbols: Vec<Symbol>,
}

impl Elf {
    /// Creates an empty image with the given entry point.
    pub fn new(entry: u64) -> Elf {
        Elf {
            entry,
            ..Elf::default()
        }
    }

    /// Finds a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Finds a section by name, mutably.
    pub fn section_mut(&mut self, name: &str) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.name == name)
    }

    /// Index of a section by name.
    pub fn section_index(&self, name: &str) -> Option<usize> {
        self.sections.iter().position(|s| s.name == name)
    }

    /// Finds a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// All function symbols, sorted by address.
    pub fn function_symbols(&self) -> Vec<&Symbol> {
        let mut v: Vec<&Symbol> = self
            .symbols
            .iter()
            .filter(|s| s.kind == SymKind::Func)
            .collect();
        v.sort_by_key(|s| s.value);
        v
    }

    /// Reads `len` bytes at virtual address `addr` from allocatable
    /// sections.
    pub fn read_vaddr(&self, addr: u64, len: usize) -> Option<&[u8]> {
        for s in &self.sections {
            if s.is_alloc() && addr >= s.addr {
                let off = (addr - s.addr) as usize;
                if off + len <= s.data.len() {
                    return Some(&s.data[off..off + len]);
                }
            }
        }
        None
    }

    /// Reads a little-endian u64 at a virtual address.
    pub fn read_u64(&self, addr: u64) -> Option<u64> {
        self.read_vaddr(addr, 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// The section containing the given virtual address, if any.
    pub fn section_at(&self, addr: u64) -> Option<(usize, &Section)> {
        self.sections
            .iter()
            .enumerate()
            .find(|(_, s)| s.is_alloc() && s.addr_range().contains(&addr))
    }

    /// Total size of executable sections in bytes (the binary's "text
    /// size").
    pub fn text_size(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.is_exec())
            .map(|s| s.data.len() as u64)
            .sum()
    }
}

impl fmt::Display for Elf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ELF exec entry={:#x}", self.entry)?;
        for s in &self.sections {
            writeln!(
                f,
                "  {:<16} addr={:#010x} size={:#8x} flags={}{}{}",
                s.name,
                s.addr,
                s.data.len(),
                if s.is_alloc() { "A" } else { "-" },
                if s.is_writable() { "W" } else { "-" },
                if s.is_exec() { "X" } else { "-" },
            )?;
        }
        writeln!(f, "  {} symbols", self.symbols.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Elf {
        let mut e = Elf::new(0x400000);
        e.sections
            .push(Section::code(".text", 0x400000, vec![0xC3; 32]));
        e.sections.push(Section::rodata(
            ".rodata",
            0x500000,
            42u64.to_le_bytes().to_vec(),
        ));
        e.symbols.push(Symbol::func("main", 0x400000, 16, 0));
        e
    }

    #[test]
    fn section_lookup() {
        let e = sample();
        assert!(e.section(".text").is_some());
        assert_eq!(e.section_index(".rodata"), Some(1));
        assert!(e.section(".data").is_none());
    }

    #[test]
    fn vaddr_reads() {
        let e = sample();
        assert_eq!(e.read_u64(0x500000), Some(42));
        assert_eq!(e.read_vaddr(0x400010, 4), Some(&[0xC3u8; 4][..]));
        assert_eq!(e.read_vaddr(0x400000, 64), None, "read past end");
    }

    #[test]
    fn section_at_and_text_size() {
        let e = sample();
        assert_eq!(e.section_at(0x40001F).map(|(i, _)| i), Some(0));
        assert_eq!(e.section_at(0x400020), None);
        assert_eq!(e.text_size(), 32);
    }

    #[test]
    fn function_symbols_sorted() {
        let mut e = sample();
        e.symbols.push(Symbol::func("aaa", 0x3FF000, 8, 0));
        let funcs = e.function_symbols();
        assert_eq!(funcs[0].name, "aaa");
        assert_eq!(funcs[1].name, "main");
    }
}
