//! Round-trip and property tests: `write_elf` output always parses back to
//! the same image.

use bolt_elf::types::{sht, SHDR_SIZE};
use bolt_elf::{read_elf, write_elf, Elf, ElfError, Section, SymBind, SymKind, SymSection, Symbol};
use proptest::prelude::*;

fn sample_elf() -> Elf {
    let mut e = Elf::new(0x400000);
    e.sections.push(Section::code(
        ".text",
        0x400000,
        vec![0x55, 0x48, 0x89, 0xE5, 0x5D, 0xC3],
    ));
    e.sections.push(Section::rodata(
        ".rodata",
        0x500000,
        vec![1, 2, 3, 4, 5, 6, 7, 8],
    ));
    e.sections
        .push(Section::data(".data", 0x600000, vec![0; 16]));
    e.sections
        .push(Section::metadata(".bolt.lines", vec![9, 9, 9]));
    e.symbols.push(Symbol {
        name: "local_helper".into(),
        value: 0x400000,
        size: 6,
        kind: SymKind::Func,
        bind: SymBind::Local,
        section: SymSection::Section(0),
    });
    e.symbols.push(Symbol::func("main", 0x400000, 6, 0));
    e.symbols.push(Symbol::object("table", 0x500000, 8, 1));
    e
}

#[test]
fn full_image_round_trips() {
    let elf = sample_elf();
    let bytes = write_elf(&elf).unwrap();
    let back = read_elf(&bytes).unwrap();
    assert_eq!(back.entry, elf.entry);
    assert_eq!(back.sections, elf.sections);
    assert_eq!(back.symbols.len(), elf.symbols.len());
    for sym in &elf.symbols {
        let got = back.symbol(&sym.name).expect("symbol survives round trip");
        assert_eq!(got, sym);
    }
}

/// A relocation section is bookkeeping the reader skips unread: retyping
/// `.bolt.lines` as `SHT_RELA` in the bytes reads back as the same image
/// without that section.
#[test]
fn relocation_sections_are_skipped() {
    let elf = sample_elf();
    let mut bytes = write_elf(&elf).unwrap();
    let lines = elf.section_index(".bolt.lines").unwrap();
    // File section 0 is the null header, so content section `i` is `i + 1`.
    let shoff = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
    let sh_type = shoff + (lines + 1) * SHDR_SIZE + 4;
    bytes[sh_type..sh_type + 4].copy_from_slice(&sht::RELA.to_le_bytes());

    let mut without = elf.clone();
    without.sections.remove(lines);
    let expected = read_elf(&write_elf(&without).unwrap()).unwrap();
    assert_eq!(read_elf(&bytes).unwrap(), expected);
}

#[test]
fn rejects_garbage() {
    assert_eq!(read_elf(b"not an elf"), Err(ElfError::BadMagic));
    let mut bytes = write_elf(&sample_elf()).unwrap();
    bytes.truncate(40);
    assert!(read_elf(&bytes).is_err());
}

/// An allocatable section whose end does not fit in 64 bits has no
/// valid address range: reading it back is an error, not a wrapped
/// range for the loader to trip over.
#[test]
fn section_wrapping_the_address_space_is_rejected() {
    let mut elf = Elf::new(0xFFFF_FFFF_FFFF_FFF0);
    elf.sections.push(Section::code(
        ".text",
        0xFFFF_FFFF_FFFF_FFF0,
        vec![0x90; 32],
    ));
    let bytes = write_elf(&elf).unwrap();
    assert!(matches!(
        read_elf(&bytes),
        Err(ElfError::UnsupportedFormat(_))
    ));
    // Ending exactly at the last byte is still a valid range.
    elf.sections[0].data.truncate(15);
    let back = read_elf(&write_elf(&elf).unwrap()).unwrap();
    assert_eq!(back.sections[0].addr_range().end, u64::MAX);
}

#[test]
fn alloc_sections_page_congruent() {
    let elf = sample_elf();
    let bytes = write_elf(&elf).unwrap();
    // Parse program headers directly to validate loadability.
    let phoff = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    let phnum = u16::from_le_bytes(bytes[56..58].try_into().unwrap()) as usize;
    assert_eq!(phnum, 3, "one PT_LOAD per alloc section");
    for i in 0..phnum {
        let p = &bytes[phoff + i * 56..phoff + (i + 1) * 56];
        let p_offset = u64::from_le_bytes(p[8..16].try_into().unwrap());
        let p_vaddr = u64::from_le_bytes(p[16..24].try_into().unwrap());
        assert_eq!(p_offset % 4096, p_vaddr % 4096, "segment {i} congruence");
    }
}

#[test]
fn globals_follow_locals_in_symtab() {
    let mut elf = sample_elf();
    // Deliberately interleave: global first, then local.
    elf.symbols.swap(0, 1);
    let bytes = write_elf(&elf).unwrap();
    let back = read_elf(&bytes).unwrap();
    let first_global = back
        .symbols
        .iter()
        .position(|s| s.bind == SymBind::Global)
        .unwrap();
    assert!(
        back.symbols[..first_global]
            .iter()
            .all(|s| s.bind == SymBind::Local),
        "locals must precede globals"
    );
}

#[test]
fn invalid_cross_references_rejected() {
    let mut elf = sample_elf();
    elf.symbols[0].section = SymSection::Section(99);
    assert!(matches!(
        write_elf(&elf),
        Err(ElfError::BadSymbolSection { .. })
    ));
}

fn arb_section(i: usize) -> impl Strategy<Value = Section> {
    let name = format!(".s{i}");
    (
        proptest::collection::vec(any::<u8>(), 0..200),
        0u8..4,
        Just(name),
    )
        .prop_map(move |(data, kind, name)| {
            let addr = 0x40_0000 + (i as u64) * 0x10_0000;
            match kind {
                0 => Section::code(name, addr, data),
                1 => Section::rodata(name, addr, data),
                2 => Section::data(name, addr, data),
                _ => Section::metadata(name, data),
            }
        })
}

fn arb_elf() -> impl Strategy<Value = Elf> {
    (0usize..5).prop_flat_map(|n| {
        let sections: Vec<_> = (0..n).map(arb_section).collect();
        (
            sections,
            proptest::collection::vec(("[a-z]{1,8}", 0u64..1 << 40, 0u64..4096), 0..10),
        )
            .prop_map(move |(sections, syms)| {
                let mut elf = Elf::new(0x400000);
                elf.sections = sections;
                for (j, (name, value, size)) in syms.into_iter().enumerate() {
                    let section = if elf.sections.is_empty() {
                        SymSection::Abs
                    } else {
                        SymSection::Section(j % elf.sections.len())
                    };
                    elf.symbols.push(Symbol {
                        name: format!("{name}_{j}"),
                        value,
                        size,
                        kind: if j % 2 == 0 {
                            SymKind::Func
                        } else {
                            SymKind::Object
                        },
                        // Locals first keeps the image in canonical order so
                        // equality round-trips exactly.
                        bind: SymBind::Global,
                        section,
                    });
                }
                elf
            })
    })
}

proptest! {
    #[test]
    fn write_read_round_trip(elf in arb_elf()) {
        let bytes = write_elf(&elf).unwrap();
        let back = read_elf(&bytes).unwrap();
        prop_assert_eq!(back, elf);
    }

    /// Writing is deterministic.
    #[test]
    fn write_is_deterministic(elf in arb_elf()) {
        prop_assert_eq!(write_elf(&elf).unwrap(), write_elf(&elf).unwrap());
    }
}

#[test]
fn section_types_preserved() {
    let elf = sample_elf();
    let bytes = write_elf(&elf).unwrap();
    let back = read_elf(&bytes).unwrap();
    assert_eq!(back.section(".text").unwrap().sh_type, sht::PROGBITS);
    assert!(back.section(".text").unwrap().is_exec());
    assert!(!back.section(".rodata").unwrap().is_writable());
    assert!(back.section(".data").unwrap().is_writable());
    assert!(!back.section(".bolt.lines").unwrap().is_alloc());
}
