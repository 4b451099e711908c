//! Robustness properties for the reader: `read_elf` must never panic,
//! no matter how a valid image's bytes are mutated — every input either
//! parses to an image or returns a structured [`ElfError`]. The writer
//! side of the round-trip lives in `roundtrip.rs`; this file is the
//! adversarial half of the fault-tolerance story (the dynamic sweep is
//! `tests/fault_injection.rs` at the workspace root).

use bolt_elf::{read_elf, write_elf, Elf, Section, Symbol};
use proptest::prelude::*;

/// A representative well-formed image: code, rodata, data, metadata and
/// symbols, so every reader code path is reachable from a mutation.
fn valid_image() -> Vec<u8> {
    let mut e = Elf::new(0x400000);
    e.sections.push(Section::code(
        ".text",
        0x400000,
        vec![0x55, 0x48, 0x89, 0xE5, 0x31, 0xC0, 0x5D, 0xC3],
    ));
    e.sections
        .push(Section::rodata(".rodata", 0x500000, (0..32).collect()));
    e.sections
        .push(Section::data(".data", 0x600000, vec![0; 24]));
    e.sections
        .push(Section::metadata(".bolt.lines", vec![1, 2, 3, 4]));
    e.symbols.push(Symbol::func("main", 0x400000, 8, 0));
    e.symbols.push(Symbol::object("table", 0x500000, 8, 1));
    write_elf(&e).expect("valid image serializes")
}

/// Every prefix of a valid image parses or errors — never panics. This
/// walks each truncation point exhaustively (the file is a few KB), so
/// every length-check in the reader is exercised deterministically.
#[test]
fn every_truncation_is_handled() {
    let bytes = valid_image();
    for len in 0..bytes.len() {
        let _ = read_elf(&bytes[..len]);
    }
}

/// Every single-bit flip of the header and section-table region parses
/// or errors — never panics. The header and section table carry all the
/// offsets and counts the reader trusts, so this is the densest panic
/// surface.
#[test]
fn every_header_bitflip_is_handled() {
    let bytes = valid_image();
    let shoff = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
    let mut regions = Vec::new();
    regions.push(0..64.min(bytes.len()));
    if shoff < bytes.len() {
        regions.push(shoff..bytes.len());
    }
    for region in regions {
        for at in region {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[at] ^= 1 << bit;
                let _ = read_elf(&mutated);
            }
        }
    }
}

proptest! {
    /// Arbitrary multi-byte corruption plus truncation: the reader
    /// must return (`Ok` or `Err`) on every mutant.
    #[test]
    fn mutated_images_never_panic_the_reader(
        muts in proptest::collection::vec((0usize..1 << 20, any::<u8>()), 1..32),
        cut in 0usize..1 << 20,
    ) {
        let mut bytes = valid_image();
        for (at, xor) in muts {
            let idx = at % bytes.len();
            bytes[idx] ^= xor;
        }
        // Truncate only sometimes, so whole-length mutants stay common.
        if cut % 4 == 0 {
            let keep = cut % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        let _ = read_elf(&bytes);
    }

    /// Pure-noise inputs (no valid scaffold at all) are rejected or
    /// parsed, never a panic.
    #[test]
    fn random_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = read_elf(&bytes);
    }
}
