//! ELF64 serializer.

use crate::image::{Elf, SymSection};
use crate::types::*;
use crate::ElfError;

struct Out(Vec<u8>);

impl Out {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn pad_to(&mut self, off: usize) {
        assert!(off >= self.0.len(), "cannot pad backwards");
        self.0.resize(off, 0);
    }
}

/// A string table under construction.
#[derive(Default)]
struct StrTab {
    data: Vec<u8>,
}

impl StrTab {
    fn new() -> StrTab {
        StrTab { data: vec![0] }
    }

    fn add(&mut self, s: &str) -> u32 {
        if s.is_empty() {
            return 0;
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(s.as_bytes());
        self.data.push(0);
        off
    }
}

struct ShdrEntry {
    name_off: u32,
    sh_type: u32,
    flags: u64,
    addr: u64,
    offset: u64,
    size: u64,
    link: u32,
    info: u32,
    align: u64,
    entsize: u64,
}

/// Serializes an [`Elf`] image to bytes.
///
/// Bookkeeping sections (`.symtab`, `.strtab`, `.shstrtab`) are generated
/// from the typed fields. One `PT_LOAD` program header is emitted per
/// allocatable section, with file offsets congruent to virtual addresses
/// modulo the page size.
///
/// # Errors
///
/// Returns an error if a symbol references an out-of-range section.
pub fn write_elf(elf: &Elf) -> Result<Vec<u8>, ElfError> {
    // Validate cross-references up front.
    for (i, sym) in elf.symbols.iter().enumerate() {
        if let SymSection::Section(s) = sym.section {
            if s >= elf.sections.len() {
                return Err(ElfError::BadSymbolSection {
                    symbol: i,
                    section: s,
                });
            }
        }
    }

    // Symbol order: ELF requires local symbols to precede globals.
    let mut sym_order: Vec<usize> = (0..elf.symbols.len()).collect();
    sym_order.sort_by_key(|&i| elf.symbols[i].bind.to_st_bind().min(1));
    let n_local = elf
        .symbols
        .iter()
        .filter(|s| s.bind == SymBind::Local)
        .count();

    let n_content = elf.sections.len();
    // Section header order:
    //   0: null, 1..=n: content, then .symtab, .strtab, .shstrtab
    let symtab_idx = n_content + 1;
    let strtab_idx = symtab_idx + 1;
    let shstrtab_idx = strtab_idx + 1;
    let n_sections = shstrtab_idx + 1;

    let n_phdrs = elf.sections.iter().filter(|s| s.is_alloc()).count();

    let mut shstr = StrTab::new();
    let mut strtab = StrTab::new();

    // .symtab payload.
    let mut symtab_data = Out(Vec::new());
    // Null symbol.
    for _ in 0..SYM_SIZE {
        symtab_data.u8(0);
    }
    for &old in &sym_order {
        let sym = &elf.symbols[old];
        let name_off = strtab.add(&sym.name);
        let shndx = match sym.section {
            SymSection::Undef => shn::UNDEF,
            SymSection::Abs => shn::ABS,
            SymSection::Section(s) => (s + 1) as u16,
        };
        symtab_data.u32(name_off);
        symtab_data.u8((sym.bind.to_st_bind() << 4) | sym.kind.to_st_type());
        symtab_data.u8(0); // st_other
        symtab_data.u16(shndx);
        symtab_data.u64(sym.value);
        symtab_data.u64(sym.size);
    }

    // Header layout.
    let phdr_off = EHDR_SIZE;
    let data_start = phdr_off + n_phdrs * PHDR_SIZE;

    // Assign file offsets to content sections.
    let mut offsets = Vec::with_capacity(n_content);
    let mut cursor = data_start;
    for s in &elf.sections {
        if s.is_alloc() {
            const PAGE: usize = 4096;
            let want = (s.addr as usize) % PAGE;
            if cursor % PAGE != want {
                cursor += (want + PAGE - cursor % PAGE) % PAGE;
            }
        } else {
            cursor = (cursor + 7) & !7;
        }
        offsets.push(cursor);
        cursor += s.data.len();
    }
    let symtab_off = (cursor + 7) & !7;
    let strtab_off = symtab_off + symtab_data.0.len();
    let shstrtab_off = strtab_off + strtab.data.len();

    // Build section header entries (names interned in order).
    let mut shdrs: Vec<ShdrEntry> = Vec::with_capacity(n_sections);
    shdrs.push(ShdrEntry {
        name_off: 0,
        sh_type: sht::NULL,
        flags: 0,
        addr: 0,
        offset: 0,
        size: 0,
        link: 0,
        info: 0,
        align: 0,
        entsize: 0,
    });
    for (i, s) in elf.sections.iter().enumerate() {
        shdrs.push(ShdrEntry {
            name_off: shstr.add(&s.name),
            sh_type: s.sh_type,
            flags: s.flags,
            addr: s.addr,
            offset: offsets[i] as u64,
            size: s.data.len() as u64,
            link: 0,
            info: 0,
            align: s.align,
            entsize: 0,
        });
    }
    shdrs.push(ShdrEntry {
        name_off: shstr.add(".symtab"),
        sh_type: sht::SYMTAB,
        flags: 0,
        addr: 0,
        offset: symtab_off as u64,
        size: symtab_data.0.len() as u64,
        link: strtab_idx as u32,
        info: (n_local + 1) as u32,
        align: 8,
        entsize: SYM_SIZE as u64,
    });
    shdrs.push(ShdrEntry {
        name_off: shstr.add(".strtab"),
        sh_type: sht::STRTAB,
        flags: 0,
        addr: 0,
        offset: strtab_off as u64,
        size: strtab.data.len() as u64,
        link: 0,
        info: 0,
        align: 1,
        entsize: 0,
    });
    let shstrtab_name = shstr.add(".shstrtab");
    shdrs.push(ShdrEntry {
        name_off: shstrtab_name,
        sh_type: sht::STRTAB,
        flags: 0,
        addr: 0,
        offset: shstrtab_off as u64,
        size: shstr.data.len() as u64,
        link: 0,
        info: 0,
        align: 1,
        entsize: 0,
    });

    let shoff = {
        let end = shstrtab_off + shstr.data.len();
        (end + 7) & !7
    };

    // Emit.
    let mut out = Out(Vec::with_capacity(shoff + n_sections * SHDR_SIZE));
    // ELF header.
    out.0.extend_from_slice(&ELF_MAGIC);
    out.u8(ELFCLASS64);
    out.u8(ELFDATA2LSB);
    out.u8(EV_CURRENT);
    out.u8(0); // OS ABI = System V
    for _ in 0..8 {
        out.u8(0);
    }
    out.u16(ET_EXEC);
    out.u16(EM_X86_64);
    out.u32(EV_CURRENT as u32);
    out.u64(elf.entry);
    out.u64(phdr_off as u64);
    out.u64(shoff as u64);
    out.u32(0); // flags
    out.u16(EHDR_SIZE as u16);
    out.u16(PHDR_SIZE as u16);
    out.u16(n_phdrs as u16);
    out.u16(SHDR_SIZE as u16);
    out.u16(n_sections as u16);
    out.u16(shstrtab_idx as u16);
    debug_assert_eq!(out.0.len(), EHDR_SIZE);

    // Program headers: one PT_LOAD per allocatable section.
    for (i, s) in elf.sections.iter().enumerate() {
        if !s.is_alloc() {
            continue;
        }
        let mut flags = pf::R;
        if s.is_writable() {
            flags |= pf::W;
        }
        if s.is_exec() {
            flags |= pf::X;
        }
        out.u32(pt::LOAD);
        out.u32(flags);
        out.u64(offsets[i] as u64);
        out.u64(s.addr);
        out.u64(s.addr); // paddr
        out.u64(s.data.len() as u64);
        out.u64(s.data.len() as u64);
        out.u64(4096);
    }

    // Section data.
    for (i, s) in elf.sections.iter().enumerate() {
        out.pad_to(offsets[i]);
        out.0.extend_from_slice(&s.data);
    }
    out.pad_to(symtab_off);
    out.0.extend_from_slice(&symtab_data.0);
    debug_assert_eq!(out.0.len(), strtab_off);
    out.0.extend_from_slice(&strtab.data);
    debug_assert_eq!(out.0.len(), shstrtab_off);
    out.0.extend_from_slice(&shstr.data);

    // Section headers.
    out.pad_to(shoff);
    for sh in &shdrs {
        out.u32(sh.name_off);
        out.u32(sh.sh_type);
        out.u64(sh.flags);
        out.u64(sh.addr);
        out.u64(sh.offset);
        out.u64(sh.size);
        out.u32(sh.link);
        out.u32(sh.info);
        out.u64(sh.align);
        out.u64(sh.entsize);
    }

    Ok(out.0)
}
