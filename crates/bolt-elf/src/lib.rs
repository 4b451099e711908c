//! # bolt-elf — ELF64 reader and writer
//!
//! A from-scratch ELF64 object model used by the compiler substrate (to link
//! executables) and by the BOLT rewriter (to read and rewrite them). It is
//! the `goblin`-equivalent substrate called for by the reproduction plan.
//!
//! The model is deliberately executable-focused: sections with contents and
//! virtual addresses, and a typed symbol table. It models no relocation
//! section: the rewriter needs none (it patches moved functions' old
//! entries instead, paper section 3.2), and the reader skips a `SHT_RELA`
//! section if an input has one.
//!
//! ## Example
//!
//! ```
//! use bolt_elf::{Elf, Section, Symbol, read_elf, write_elf};
//!
//! let mut elf = Elf::new(0x400000);
//! elf.sections.push(Section::code(".text", 0x400000, vec![0xC3]));
//! elf.symbols.push(Symbol::func("main", 0x400000, 1, 0));
//!
//! let bytes = write_elf(&elf)?;
//! let back = read_elf(&bytes)?;
//! assert_eq!(back.symbol("main").unwrap().value, 0x400000);
//! # Ok::<(), bolt_elf::ElfError>(())
//! ```

mod image;
mod reader;
pub mod types;
mod writer;

pub use image::{Elf, Section, SymSection, Symbol};
pub use reader::read_elf;
pub use types::{sections, shf, sht, SymBind, SymKind};
pub use writer::write_elf;

use std::fmt;

/// Errors produced when reading or writing ELF images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The file does not start with the ELF magic.
    BadMagic,
    /// The file ended unexpectedly.
    Truncated,
    /// A structurally valid ELF using features outside the supported
    /// subset.
    UnsupportedFormat(&'static str),
    /// A string-table offset pointed outside the table.
    BadStringOffset(usize),
    /// A symbol referenced a section index that does not exist.
    BadSymbolSection { symbol: usize, section: usize },
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::BadMagic => write!(f, "not an ELF file"),
            ElfError::Truncated => write!(f, "unexpected end of file"),
            ElfError::UnsupportedFormat(what) => write!(f, "unsupported ELF: {what}"),
            ElfError::BadStringOffset(o) => write!(f, "invalid string table offset {o}"),
            ElfError::BadSymbolSection { symbol, section } => {
                write!(f, "symbol {symbol} references invalid section {section}")
            }
        }
    }
}

impl std::error::Error for ElfError {}
