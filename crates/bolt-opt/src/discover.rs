//! Stage 1 of the rewriting pipeline (paper Figure 3): function discovery
//! plus debug-info and metadata loading.
//!
//! Discovery is driven by the ELF symbol table (paper section 3.3: "BOLT
//! relies on correct ELF symbol table information for code discovery").

use bolt_elf::{sections, Elf, SymKind};
use bolt_ir::{BinaryContext, BinaryFunction, ExceptionTable, LineRecords};
use std::collections::HashMap;

/// A discovered-but-not-yet-disassembled function.
#[derive(Debug, Clone)]
pub struct RawFunction {
    pub name: String,
    pub address: u64,
    pub size: u64,
    pub section: String,
}

/// Builds the initial [`BinaryContext`] from an ELF image: function
/// symbols, read-only data, PLT stubs, line and exception tables.
///
/// Returns the context plus the list of functions to disassemble.
pub fn discover(elf: &Elf) -> (BinaryContext, Vec<RawFunction>) {
    let mut ctx = BinaryContext::new();
    ctx.entry = elf.entry;

    // Read-only data (jump tables, constants).
    for sec in &elf.sections {
        if sec.is_alloc() && !sec.is_exec() && !sec.is_writable() {
            ctx.rodata.push((sec.addr, sec.data.clone()));
        }
    }

    // Metadata tables. Of the line table only the file names are kept:
    // disassembly and the rewrite read its entries from the section.
    if let Some(sec) = elf.section(sections::LINES) {
        if let Ok(t) = LineRecords::parse(&sec.data) {
            ctx.line_files = t.files;
        }
    }
    if let Some(sec) = elf.section(sections::EH) {
        if let Ok(t) = ExceptionTable::from_bytes(&sec.data) {
            ctx.exceptions = t;
        }
    }

    // Function symbols, address-ordered; sizes repaired from the next
    // symbol when missing (assembly functions often lack sizes — paper
    // section 3.3's hybrid discovery).
    let mut funcs: Vec<RawFunction> = elf
        .symbols
        .iter()
        .filter(|s| s.kind == SymKind::Func)
        .map(|s| {
            let section = elf
                .section_at(s.value)
                .map(|(_, sec)| sec.name.clone())
                .unwrap_or_else(|| ".text".to_string());
            RawFunction {
                name: s.name.clone(),
                address: s.value,
                size: s.size,
                section,
            }
        })
        .collect();
    funcs.sort_by_key(|f| f.address);
    for i in 0..funcs.len() {
        if funcs[i].size == 0 {
            let end = funcs
                .get(i + 1)
                .map(|n| n.address)
                .or_else(|| {
                    elf.section_at(funcs[i].address)
                        .map(|(_, s)| s.addr + s.data.len() as u64)
                })
                .unwrap_or(funcs[i].address);
            funcs[i].size = end.saturating_sub(funcs[i].address);
        }
    }

    // PLT stub resolution: `__plt_<target>` symbols by naming convention,
    // verified against both ends of the indirection — the GOT content
    // (`__got_<target>`) must point at the target function, and the
    // stub's own bytes must actually be a rip-relative `jmp` through
    // that exact GOT slot. The second check matters: devirtualizing by
    // name alone would silently "repair" a stub whose displacement is
    // corrupted (or hand-written to jump elsewhere), changing the
    // program's behavior instead of preserving it.
    let got_by_name: HashMap<&str, (u64, u64)> = elf
        .symbols
        .iter()
        .filter_map(|s| {
            s.name
                .strip_prefix("__got_")
                .map(|n| (n, (s.value, elf.read_u64(s.value).unwrap_or(0))))
        })
        .collect();
    for f in &funcs {
        if let Some(target) = f.name.strip_prefix("__plt_") {
            let Some(&(got_addr, got_content)) = got_by_name.get(target) else {
                continue;
            };
            if elf.symbol(target).map(|s| s.value) != Some(got_content) {
                continue;
            }
            let jumps_through_slot = elf
                .read_vaddr(f.address, f.size.min(16) as usize)
                .and_then(|bytes| bolt_isa::decode(bytes, f.address).ok())
                .is_some_and(|d| {
                    matches!(
                        d.inst,
                        bolt_isa::Inst::JmpInd {
                            rm: bolt_isa::Rm::Mem(bolt_isa::Mem::RipRel {
                                target: bolt_isa::Target::Addr(a),
                            }),
                        } if a == got_addr
                    )
                });
            if jumps_through_slot {
                ctx.plt_stubs.insert(f.address, target.to_string());
            }
        }
    }

    // Pre-register functions so address lookups work during disassembly.
    for f in &funcs {
        let mut bf = BinaryFunction::new(&f.name, f.address);
        bf.size = f.size;
        bf.section = f.section.clone();
        bf.is_simple = false; // flipped by successful disassembly
        ctx.add_function(bf);
    }
    (ctx, funcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_elf::{Section, Symbol};
    use bolt_ir::LineTable;

    fn sample_elf() -> Elf {
        let mut e = Elf::new(0x400000);
        e.sections
            .push(Section::code(".text", 0x400000, vec![0xC3; 64]));
        e.sections
            .push(Section::rodata(".rodata", 0x500000, vec![7; 16]));
        let mut lines = LineTable::new();
        lines.intern_file("a.c");
        lines.push(0x400000, 0, 10);
        lines.normalize();
        e.sections
            .push(Section::metadata(sections::LINES, lines.to_bytes()));
        e.symbols.push(Symbol::func("f1", 0x400000, 16, 0));
        e.symbols.push(Symbol::func("f2", 0x400010, 0, 0)); // size repaired
        e.symbols.push(Symbol::func("f3", 0x400030, 16, 0));
        e
    }

    #[test]
    fn discovery_finds_functions_and_repairs_sizes() {
        let (ctx, funcs) = discover(&sample_elf());
        assert_eq!(funcs.len(), 3);
        assert_eq!(funcs[1].name, "f2");
        assert_eq!(funcs[1].size, 0x20, "size from next symbol");
        assert_eq!(ctx.functions.len(), 3);
        assert!(ctx.is_rodata_addr(0x500000));
        assert_eq!(ctx.line_files, ["a.c"]);
    }

    #[test]
    fn plt_stub_requires_got_agreement() {
        let mut e = sample_elf();
        e.sections.push(Section::data(
            ".got",
            0x600000,
            0x400000u64.to_le_bytes().to_vec(),
        ));
        // Real stub bytes at 0x400030: `jmp *0x600000(%rip)` — FF 25
        // with disp32 = 0x600000 - (0x400030 + 6).
        let text = e.section_mut(".text").unwrap();
        text.data[0x30] = 0xFF;
        text.data[0x31] = 0x25;
        text.data[0x32..0x36].copy_from_slice(&(0x600000u32 - 0x400036).to_le_bytes());
        let got_idx = e.section_index(".got").unwrap();
        e.symbols.push(Symbol::func("__plt_f1", 0x400030, 8, 0));
        e.symbols.push(Symbol {
            name: "__got_f1".into(),
            value: 0x600000,
            size: 8,
            kind: SymKind::Object,
            bind: bolt_elf::SymBind::Global,
            section: bolt_elf::SymSection::Section(got_idx),
        });
        let (ctx, _) = discover(&e);
        assert_eq!(ctx.plt_stubs.get(&0x400030).map(String::as_str), Some("f1"));

        // Corrupt the GOT: the stub is no longer trusted.
        let mut e2 = e.clone();
        e2.section_mut(".got").unwrap().data = 0xDEADu64.to_le_bytes().to_vec();
        let (ctx2, _) = discover(&e2);
        assert!(ctx2.plt_stubs.is_empty());

        // Corrupt the stub's displacement so the jmp no longer reads
        // `__got_f1`: devirtualizing by name would change behavior, so
        // the stub must not be trusted either.
        let mut e3 = e.clone();
        e3.section_mut(".text").unwrap().data[0x33] ^= 0x80;
        let (ctx3, _) = discover(&e3);
        assert!(ctx3.plt_stubs.is_empty());

        // Replace the jmp with something else entirely (here: the ret
        // padding the fixture starts with): same verdict.
        let mut e4 = e.clone();
        e4.section_mut(".text").unwrap().data[0x30] = 0xC3;
        let (ctx4, _) = discover(&e4);
        assert!(ctx4.plt_stubs.is_empty());
    }
}
