//! ELF64 parser.

use crate::image::{Elf, Rela, Section, SymSection, Symbol};
use crate::types::*;
use crate::ElfError;

struct In<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> In<'a> {
    fn at(data: &'a [u8], pos: usize) -> In<'a> {
        In { data, pos }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ElfError> {
        let end = self.pos.checked_add(n).ok_or(ElfError::Truncated)?;
        if end > self.data.len() {
            return Err(ElfError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ElfError> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ElfError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ElfError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ElfError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, ElfError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn skip(&mut self, n: usize) -> Result<(), ElfError> {
        self.bytes(n).map(|_| ())
    }
}

#[derive(Clone)]
struct RawShdr {
    name_off: u32,
    sh_type: u32,
    flags: u64,
    addr: u64,
    offset: u64,
    size: u64,
    link: u32,
    align: u64,
}

fn strtab_get(table: &[u8], off: u32) -> Result<String, ElfError> {
    let off = off as usize;
    if off >= table.len() {
        return Err(ElfError::BadStringOffset(off));
    }
    let end = table[off..]
        .iter()
        .position(|&b| b == 0)
        .ok_or(ElfError::BadStringOffset(off))?;
    String::from_utf8(table[off..off + end].to_vec()).map_err(|_| ElfError::BadStringOffset(off))
}

/// Parses an ELF64 executable produced by [`crate::write_elf`] (or any
/// binary using the same subset of features) back into an [`Elf`] image.
///
/// # Errors
///
/// Returns an error for malformed headers, unsupported class/encoding, or
/// out-of-bounds offsets.
pub fn read_elf(data: &[u8]) -> Result<Elf, ElfError> {
    let mut c = In::at(data, 0);
    let magic = c.bytes(4)?;
    if magic != ELF_MAGIC {
        return Err(ElfError::BadMagic);
    }
    if c.u8()? != ELFCLASS64 || c.u8()? != ELFDATA2LSB {
        return Err(ElfError::UnsupportedFormat("not ELF64 little-endian"));
    }
    c.skip(10)?; // version, ABI, padding
    let e_type = c.u16()?;
    let machine = c.u16()?;
    if e_type != ET_EXEC {
        return Err(ElfError::UnsupportedFormat("not an executable"));
    }
    if machine != EM_X86_64 {
        return Err(ElfError::UnsupportedFormat("not x86-64"));
    }
    c.skip(4)?; // e_version
    let entry = c.u64()?;
    let _phoff = c.u64()?;
    let shoff = c.u64()?;
    c.skip(4)?; // flags
    c.skip(2)?; // ehsize
    c.skip(2)?; // phentsize
    let _phnum = c.u16()?;
    c.skip(2)?; // shentsize
    let shnum = c.u16()?;
    let shstrndx = c.u16()?;

    // Section headers.
    let mut shdrs = Vec::with_capacity(shnum as usize);
    let mut sc = In::at(data, shoff as usize);
    for _ in 0..shnum {
        let name_off = sc.u32()?;
        let sh_type = sc.u32()?;
        let flags = sc.u64()?;
        let addr = sc.u64()?;
        let offset = sc.u64()?;
        let size = sc.u64()?;
        let link = sc.u32()?;
        let _info = sc.u32()?;
        let align = sc.u64()?;
        let _entsize = sc.u64()?;
        shdrs.push(RawShdr {
            name_off,
            sh_type,
            flags,
            addr,
            offset,
            size,
            link,
            align,
        });
    }

    let sect_data = |sh: &RawShdr| -> Result<&[u8], ElfError> {
        let start = sh.offset as usize;
        let end = start
            .checked_add(sh.size as usize)
            .ok_or(ElfError::Truncated)?;
        data.get(start..end).ok_or(ElfError::Truncated)
    };

    let shstrtab = shdrs
        .get(shstrndx as usize)
        .ok_or(ElfError::UnsupportedFormat("bad shstrndx"))?;
    let shstrtab_data = sect_data(shstrtab)?;

    let mut names = Vec::with_capacity(shdrs.len());
    for sh in &shdrs {
        names.push(strtab_get(shstrtab_data, sh.name_off)?);
    }

    // Content sections: everything that is not bookkeeping.
    let mut elf = Elf::new(entry);
    // Map from file shndx to content index.
    let mut content_of_shndx = vec![None; shdrs.len()];
    for (i, sh) in shdrs.iter().enumerate() {
        let name = &names[i];
        let bookkeeping = sh.sh_type == sht::NULL
            || sh.sh_type == sht::SYMTAB
            || sh.sh_type == sht::STRTAB
            || sh.sh_type == sht::RELA;
        if bookkeeping {
            continue;
        }
        if sh.flags & shf::ALLOC != 0 && sh.addr.checked_add(sh.size).is_none() {
            return Err(ElfError::UnsupportedFormat(
                "allocatable section wraps past the end of the address space",
            ));
        }
        content_of_shndx[i] = Some(elf.sections.len());
        elf.sections.push(Section {
            name: name.clone(),
            sh_type: sh.sh_type,
            flags: sh.flags,
            addr: sh.addr,
            data: sect_data(sh)?.to_vec(),
            align: sh.align,
        });
    }

    // Symbol table.
    let mut file_sym_to_ours: Vec<u32> = Vec::new();
    if let Some(symtab_i) = (0..shdrs.len()).find(|&i| shdrs[i].sh_type == sht::SYMTAB) {
        let symtab = &shdrs[symtab_i];
        let strtab = shdrs
            .get(symtab.link as usize)
            .ok_or(ElfError::UnsupportedFormat("bad symtab link"))?;
        let str_data = sect_data(strtab)?;
        let payload = sect_data(symtab)?;
        let count = payload.len() / SYM_SIZE;
        let mut sc = In::at(payload, 0);
        for i in 0..count {
            let name_off = sc.u32()?;
            let info = sc.u8()?;
            let _other = sc.u8()?;
            let shndx = sc.u16()?;
            let value = sc.u64()?;
            let size = sc.u64()?;
            if i == 0 {
                file_sym_to_ours.push(u32::MAX); // null symbol
                continue;
            }
            let bind = SymBind::from_st_bind(info >> 4)
                .ok_or(ElfError::UnsupportedFormat("unknown symbol binding"))?;
            let kind = SymKind::from_st_type(info & 0xF)
                .ok_or(ElfError::UnsupportedFormat("unknown symbol type"))?;
            let section = match shndx {
                shn::UNDEF => SymSection::Undef,
                shn::ABS => SymSection::Abs,
                s => {
                    let ci = content_of_shndx
                        .get(s as usize)
                        .copied()
                        .flatten()
                        .ok_or(ElfError::UnsupportedFormat("symbol in bookkeeping section"))?;
                    SymSection::Section(ci)
                }
            };
            file_sym_to_ours.push(elf.symbols.len() as u32);
            elf.symbols.push(Symbol {
                name: strtab_get(str_data, name_off)?,
                value,
                size,
                kind,
                bind,
                section,
            });
        }
    }

    // Relocations.
    for (i, sh) in shdrs.iter().enumerate() {
        if sh.sh_type != sht::RELA {
            continue;
        }
        let _ = i;
        let payload = sect_data(sh)?;
        let count = payload.len() / RELA_SIZE;
        let mut rc = In::at(payload, 0);
        for _ in 0..count {
            let offset = rc.u64()?;
            let info = rc.u64()?;
            let addend = rc.i64()?;
            let file_sym = (info >> 32) as usize;
            let sym_index = file_sym_to_ours
                .get(file_sym)
                .copied()
                .filter(|&v| v != u32::MAX)
                .ok_or(ElfError::UnsupportedFormat(
                    "relocation against null symbol",
                ))?;
            elf.relocations.push(Rela {
                offset,
                sym_index,
                rtype: (info & 0xFFFF_FFFF) as u32,
                addend,
            });
        }
    }

    Ok(elf)
}
