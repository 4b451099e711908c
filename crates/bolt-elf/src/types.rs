//! ELF64 constants and primitive types (little-endian, x86-64).

/// ELF magic bytes.
pub const ELF_MAGIC: [u8; 4] = [0x7F, b'E', b'L', b'F'];
/// 64-bit class.
pub const ELFCLASS64: u8 = 2;
/// Little-endian data encoding.
pub const ELFDATA2LSB: u8 = 1;
/// Current ELF version.
pub const EV_CURRENT: u8 = 1;

/// Executable file type.
pub const ET_EXEC: u16 = 2;
/// AMD x86-64 machine.
pub const EM_X86_64: u16 = 62;

/// Size of the ELF64 file header.
pub const EHDR_SIZE: usize = 64;
/// Size of one program header.
pub const PHDR_SIZE: usize = 56;
/// Size of one section header.
pub const SHDR_SIZE: usize = 64;
/// Size of one symbol-table entry.
pub const SYM_SIZE: usize = 24;

/// Section types.
pub mod sht {
    pub const NULL: u32 = 0;
    pub const PROGBITS: u32 = 1;
    pub const SYMTAB: u32 = 2;
    pub const STRTAB: u32 = 3;
    pub const RELA: u32 = 4;
    pub const NOBITS: u32 = 8;
}

/// Section flags.
pub mod shf {
    pub const WRITE: u64 = 0x1;
    pub const ALLOC: u64 = 0x2;
    pub const EXECINSTR: u64 = 0x4;
}

/// Program header types.
pub mod pt {
    pub const LOAD: u32 = 1;
}

/// Program header flags.
pub mod pf {
    pub const X: u32 = 0x1;
    pub const W: u32 = 0x2;
    pub const R: u32 = 0x4;
}

/// Special section indexes.
pub mod shn {
    pub const UNDEF: u16 = 0;
    pub const ABS: u16 = 0xFFF1;
}

/// Symbol binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymBind {
    #[default]
    Local,
    Global,
    Weak,
}

impl SymBind {
    pub fn to_st_bind(self) -> u8 {
        match self {
            SymBind::Local => 0,
            SymBind::Global => 1,
            SymBind::Weak => 2,
        }
    }

    pub fn from_st_bind(b: u8) -> Option<SymBind> {
        Some(match b {
            0 => SymBind::Local,
            1 => SymBind::Global,
            2 => SymBind::Weak,
            _ => return None,
        })
    }
}

/// Symbol type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymKind {
    #[default]
    NoType,
    Object,
    Func,
    Section,
}

impl SymKind {
    pub fn to_st_type(self) -> u8 {
        match self {
            SymKind::NoType => 0,
            SymKind::Object => 1,
            SymKind::Func => 2,
            SymKind::Section => 3,
        }
    }

    pub fn from_st_type(t: u8) -> Option<SymKind> {
        Some(match t {
            0 => SymKind::NoType,
            1 => SymKind::Object,
            2 => SymKind::Func,
            3 => SymKind::Section,
            _ => return None,
        })
    }
}

/// Well-known section names used across the toolchain.
pub mod sections {
    pub const TEXT: &str = ".text";
    pub const TEXT_COLD: &str = ".text.cold";
    pub const RODATA: &str = ".rodata";
    pub const DATA: &str = ".data";
    pub const PLT: &str = ".plt";
    pub const GOT: &str = ".got";
    /// Simplified line table (the DWARF `.debug_line` substitute).
    pub const LINES: &str = ".bolt.lines";
    /// Simplified exception table (the LSDA substitute).
    pub const EH: &str = ".bolt.eh";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_kind_round_trip() {
        for b in [SymBind::Local, SymBind::Global, SymBind::Weak] {
            assert_eq!(SymBind::from_st_bind(b.to_st_bind()), Some(b));
        }
        for k in [
            SymKind::NoType,
            SymKind::Object,
            SymKind::Func,
            SymKind::Section,
        ] {
            assert_eq!(SymKind::from_st_type(k.to_st_type()), Some(k));
        }
        assert_eq!(SymBind::from_st_bind(9), None);
        assert_eq!(SymKind::from_st_type(9), None);
    }
}
