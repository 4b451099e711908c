//! The linker: lowers every function, lays out data, synthesizes the
//! runtime (`_start`, `__bolt_emit`, `__bolt_exit`) and PLT/GOT, emits the
//! code with relaxation, and produces a loadable ELF executable.

use crate::codegen::{codegen_function, is_external, JumpTableReq, Labels, RT_EMIT, RT_EXIT};
use crate::inline::run_inlining;
use crate::mir::{MirFunction, MirProgram};
use crate::options::CompileOptions;
use crate::pgo::pgo_layout;
use bolt_elf::{Elf, Section, SymBind, SymKind, SymSection, Symbol};
use bolt_ir::{
    emit_units, EmitBlock, EmitError, EmitInst, EmitUnit, ExceptionTable, LineInfo, LineTable,
};
use bolt_isa::{AluOp, Inst, JumpWidth, Label, Mem, Reg, Rm, Target};
use std::collections::HashMap;
use std::fmt;

/// Link-time virtual address bases.
pub const TEXT_BASE: u64 = 0x40_0000;
/// Cold-code base (used by BOLT's split functions; empty in compiler
/// output).
pub const COLD_BASE: u64 = 0x200_0000;
pub const RODATA_BASE: u64 = 0x400_0000;
pub const DATA_BASE: u64 = 0x500_0000;
pub const GOT_BASE: u64 = 0x5F0_0000;

/// Errors from compilation/linking.
#[derive(Debug)]
pub enum CompileError {
    /// The MIR failed validation.
    InvalidMir(String),
    /// Emission failed.
    Emit(EmitError),
    /// ELF serialization failed.
    Elf(bolt_elf::ElfError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidMir(m) => write!(f, "invalid MIR: {m}"),
            CompileError::Emit(e) => write!(f, "emit error: {e}"),
            CompileError::Elf(e) => write!(f, "elf error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<EmitError> for CompileError {
    fn from(e: EmitError) -> CompileError {
        CompileError::Emit(e)
    }
}

impl From<bolt_elf::ElfError> for CompileError {
    fn from(e: bolt_elf::ElfError) -> CompileError {
        CompileError::Elf(e)
    }
}

/// The product of [`compile_and_link`].
#[derive(Debug)]
pub struct CompiledBinary {
    pub elf: Elf,
}

/// Builds the runtime functions.
fn make_runtime(labels: &mut Labels) -> Vec<EmitUnit> {
    // __bolt_emit(rdi): syscall 1, returns.
    let emit_label = labels.func(RT_EMIT);
    let mut b = EmitBlock::new(emit_label);
    b.insts.push(EmitInst::new(Inst::MovRI {
        dst: Reg::Rax,
        imm: 1,
    }));
    b.insts.push(EmitInst::new(Inst::Syscall));
    b.insts.push(EmitInst::new(Inst::Ret));
    let mut emit_unit = EmitUnit::new(RT_EMIT);
    emit_unit.blocks = vec![b];

    // __bolt_exit(rdi): syscall 60, never returns.
    let exit_label = labels.func(RT_EXIT);
    let mut b = EmitBlock::new(exit_label);
    b.insts.push(EmitInst::new(Inst::MovRI {
        dst: Reg::Rax,
        imm: 60,
    }));
    b.insts.push(EmitInst::new(Inst::Syscall));
    b.insts.push(EmitInst::new(Inst::Ud2));
    let mut exit_unit = EmitUnit::new(RT_EXIT);
    exit_unit.blocks = vec![b];

    vec![emit_unit, exit_unit]
}

/// Builds one PLT stub: `jmp *got_slot(%rip)`.
fn make_plt_stub(name: &str, stub: Label, got: Label) -> EmitUnit {
    let mut b = EmitBlock::new(stub);
    b.insts.push(EmitInst::new(Inst::JmpInd {
        rm: Rm::Mem(Mem::rip(got)),
    }));
    let mut u = EmitUnit::new(format!("__plt_{name}"));
    u.align = 16;
    u.blocks = vec![b];
    u
}

/// Compiles a MIR program into an ELF executable.
///
/// # Errors
///
/// Returns an error when the program fails validation or when emission
/// produces inconsistent references (both indicate bugs in the caller).
pub fn compile_and_link(
    program: &MirProgram,
    opts: &CompileOptions,
) -> Result<CompiledBinary, CompileError> {
    compile_and_link_phases(program, opts, &mut |_| {})
}

/// [`compile_and_link`], calling `phase` with the name of each phase as
/// it ends: `clone+inline`, `codegen`, `emit`, `tables`, `assemble`
/// (memory ledgers measure the phases through it).
///
/// Each phase frees what the next does not read: a function's MIR once
/// it is lowered, the emission units once they are encoded, the
/// emitter's line entries once they are written out, and the code
/// streams move into the ELF.
///
/// # Errors
///
/// As [`compile_and_link`].
pub fn compile_and_link_phases(
    program: &MirProgram,
    opts: &CompileOptions,
    phase: &mut dyn FnMut(&'static str),
) -> Result<CompiledBinary, CompileError> {
    program.validate().map_err(CompileError::InvalidMir)?;
    let mut program = program.clone();

    // Compiler optimizations: inlining then PGO block layout.
    run_inlining(&mut program, opts);
    if let Some(profile) = &opts.pgo {
        for f in &mut program.functions {
            pgo_layout(f, profile);
        }
    }
    program.validate().map_err(CompileError::InvalidMir)?;
    phase("clone+inline");

    let mut labels = Labels::new();

    // Lower program functions in the requested order: an explicit order
    // names functions first (unknown names skipped), then the rest follow
    // in program order. Under PGO without an explicit order, model
    // -freorder-functions: hot functions first by aggregated line heat
    // (the compile-time analogue of HFSort's goal).
    let order: Vec<usize> = match (&opts.function_order, &opts.pgo) {
        (Some(names), _) => {
            let index: HashMap<&str, usize> = program
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i))
                .collect();
            let mut placed = vec![false; program.functions.len()];
            let mut o = Vec::with_capacity(program.functions.len());
            for &i in names.iter().filter_map(|n| index.get(n.as_str())) {
                // A name given twice is placed where it first appears.
                if !std::mem::replace(&mut placed[i], true) {
                    o.push(i);
                }
            }
            o.extend((0..program.functions.len()).filter(|&i| !placed[i]));
            o
        }
        (None, Some(profile)) => {
            let mut scored: Vec<(u64, usize)> = program
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let heat = f
                        .blocks
                        .iter()
                        .flat_map(|b| b.stmts.iter().map(|s| s.line()).chain([b.term_line]))
                        .map(|l| profile.line(l))
                        .max()
                        .unwrap_or(0);
                    (heat, i)
                })
                .collect();
            scored.sort_by_key(|&(heat, i)| (std::cmp::Reverse(heat), i));
            scored.into_iter().map(|(_, i)| i).collect()
        }
        (None, None) => (0..program.functions.len()).collect(),
    };

    // Each function's MIR is freed once it is lowered: codegen reads
    // only the program's line-to-file map besides the function itself.
    let mut jump_tables: Vec<JumpTableReq> = Vec::new();
    let mut gen_units: Vec<EmitUnit> = Vec::with_capacity(order.len());
    let mut functions: Vec<Option<MirFunction>> = std::mem::take(&mut program.functions)
        .into_iter()
        .map(Some)
        .collect();
    for &i in &order {
        let func = functions[i].take().expect("each function is lowered once");
        let gen = codegen_function(&func, &program, &mut labels, opts);
        gen_units.push(gen.unit);
        jump_tables.extend(gen.jump_tables);
    }
    drop(functions);

    // Runtime + _start (synthesized after program codegen so PLT demand is
    // known).
    let start_unit = {
        let mut l = EmitUnit::new("_start");
        l.blocks = make_start_blocks(&mut labels, opts, &program.entry);
        l
    };
    let runtime_units = make_runtime(&mut labels);

    // PLT stubs for every external referenced through the PLT.
    let plt_pairs: Vec<(String, Label)> = labels.iter_plt().map(|(n, l)| (n.clone(), l)).collect();
    let mut plt_units = Vec::new();
    for (name, stub) in &plt_pairs {
        let got = labels.got(name);
        plt_units.push(make_plt_stub(name, *stub, got));
    }

    let mut units = Vec::with_capacity(1 + plt_units.len() + runtime_units.len() + gen_units.len());
    units.push(start_unit);
    units.extend(plt_units);
    units.extend(runtime_units);
    units.extend(gen_units);
    phase("codegen");

    // ---- Data layout ----
    let mut rodata = Vec::new();
    let mut data = Vec::new();
    let mut data_symbols: Vec<(String, u64, u64)> = Vec::new(); // (name, addr, size)
    let mut extern_labels: HashMap<Label, u64> = HashMap::new();
    let mut global_addrs: HashMap<String, u64> = HashMap::new();

    for g in &program.globals {
        let (buf, base) = if g.mutable {
            (&mut data, DATA_BASE)
        } else {
            (&mut rodata, RODATA_BASE)
        };
        // Align to 16.
        while buf.len() % 16 != 0 {
            buf.push(0);
        }
        let addr = base + buf.len() as u64;
        for w in &g.words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        global_addrs.insert(g.name.clone(), addr);
        data_symbols.push((g.name.clone(), addr, 8 * g.words.len() as u64));
    }
    // Jump tables go to rodata after the globals.
    let mut jt_offsets: Vec<(usize, u64)> = Vec::new(); // (jt index, addr)
    for (i, jt) in jump_tables.iter().enumerate() {
        while rodata.len() % 8 != 0 {
            rodata.push(0);
        }
        let addr = RODATA_BASE + rodata.len() as u64;
        rodata.extend(std::iter::repeat_n(0u8, 8 * jt.targets.len()));
        extern_labels.insert(jt.table, addr);
        jt_offsets.push((i, addr));
        data_symbols.push((jt.name.clone(), addr, 8 * jt.targets.len() as u64));
    }
    // GOT: one slot per external.
    let mut got = Vec::new();
    let got_pairs: Vec<(String, Label)> = labels.iter_got().map(|(n, l)| (n.clone(), l)).collect();
    let mut got_slots: Vec<(String, u64)> = Vec::new();
    for (name, label) in &got_pairs {
        let addr = GOT_BASE + got.len() as u64;
        got.extend_from_slice(&0u64.to_le_bytes());
        extern_labels.insert(*label, addr);
        got_slots.push((name.clone(), addr));
    }

    // Resolve global labels.
    for (name, label) in labels.iter_globals() {
        extern_labels.insert(label, global_addrs[name]);
    }
    for ((name, idx), label) in labels.iter_global_words() {
        extern_labels.insert(label, global_addrs[name] + 8 * idx);
    }

    // ---- Emit code ----
    let mut result = emit_units(&units, TEXT_BASE, COLD_BASE, &extern_labels)?;
    drop(units);

    // Patch jump tables with resolved block addresses.
    for (jti, addr) in &jt_offsets {
        let jt = &jump_tables[*jti];
        for (k, target) in jt.targets.iter().enumerate() {
            let a = result.label_addrs[target];
            let off = (*addr - RODATA_BASE) as usize + 8 * k;
            rodata[off..off + 8].copy_from_slice(&a.to_le_bytes());
        }
    }
    // Patch GOT slots with resolved function addresses.
    for (i, (name, _)) in got_slots.iter().enumerate() {
        let fl = labels.func(name);
        let a = result.label_addrs[&fl];
        got[8 * i..8 * i + 8].copy_from_slice(&a.to_le_bytes());
    }

    phase("emit");

    // ---- Metadata tables ----
    let lines = line_table_bytes(&program.files, &std::mem::take(&mut result.line_entries));

    let mut eh = ExceptionTable::new();
    for (call_addr, pad_label) in &result.eh_entries {
        eh.add(*call_addr, result.label_addrs[pad_label]);
    }
    phase("tables");

    // ---- Assemble the ELF ----
    let entry = result.label_addrs[&labels.func("_start")];
    let mut elf = Elf::new(entry);
    let text = std::mem::take(&mut result.text);
    elf.sections.push(Section::code(".text", TEXT_BASE, text));
    let text_idx = 0usize;
    if !result.cold.is_empty() {
        let cold = std::mem::take(&mut result.cold);
        elf.sections
            .push(Section::code(".text.cold", COLD_BASE, cold));
    }
    let rodata_idx = elf.sections.len();
    elf.sections
        .push(Section::rodata(".rodata", RODATA_BASE, rodata));
    let data_idx = elf.sections.len();
    elf.sections.push(Section::data(".data", DATA_BASE, data));
    let got_idx = elf.sections.len();
    elf.sections.push(Section::data(".got", GOT_BASE, got));
    elf.sections.push(Section::metadata(".bolt.lines", lines));
    elf.sections
        .push(Section::metadata(".bolt.eh", eh.to_bytes()));

    // Symbols: functions (from emission), then data objects.
    for s in &result.symbols {
        elf.symbols.push(Symbol {
            name: s.name.clone(),
            value: s.addr,
            size: s.size,
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: SymSection::Section(text_idx),
        });
    }
    for (name, addr, size) in &data_symbols {
        let (kind_idx, _) = if *addr >= DATA_BASE {
            (data_idx, ())
        } else {
            (rodata_idx, ())
        };
        elf.symbols.push(Symbol {
            name: name.clone(),
            value: *addr,
            size: *size,
            kind: SymKind::Object,
            bind: SymBind::Global,
            section: SymSection::Section(kind_idx),
        });
    }
    for (name, addr) in &got_slots {
        elf.symbols.push(Symbol {
            name: format!("__got_{name}"),
            value: *addr,
            size: 8,
            kind: SymKind::Object,
            bind: SymBind::Global,
            section: SymSection::Section(got_idx),
        });
    }

    phase("assemble");
    Ok(CompiledBinary { elf })
}

/// The `.bolt.lines` section for the source `files` and the emitter's
/// line entries: what [`LineTable::normalize`] and
/// [`LineTable::to_bytes`] make of them, written straight from the
/// entries when they are strictly sorted (as the emitter leaves them
/// unless the cold stream starts below the hot one), since normalizing
/// leaves such entries as they are.
fn line_table_bytes(files: &[String], entries: &[(u64, LineInfo)]) -> Vec<u8> {
    let mut table = LineTable::new();
    for f in files {
        table.intern_file(f);
    }
    let entries = entries.iter().map(|(a, li)| (*a, li.file, li.line));
    if entries.clone().is_sorted_by(|a, b| a < b) {
        return LineTable::write(&table.files, entries.len(), entries);
    }
    table.entries = entries.collect();
    table.normalize();
    table.to_bytes()
}

/// Blocks of the `_start` unit: align the stack, call the entry function
/// and pass its result to the exit runtime call (through the PLT when
/// `opts.plt`).
fn make_start_blocks(labels: &mut Labels, opts: &CompileOptions, entry_fn: &str) -> Vec<EmitBlock> {
    let start_label = labels.func("_start");
    let main_label = labels.func(entry_fn);
    let exit_target = if opts.plt {
        labels.plt(RT_EXIT)
    } else {
        labels.func(RT_EXIT)
    };
    let mut b = EmitBlock::new(start_label);
    // Align the stack and call main.
    b.insts.push(EmitInst::new(Inst::AluI {
        op: AluOp::Sub,
        dst: Reg::Rsp,
        imm: 8,
    }));
    b.insts.push(EmitInst::new(Inst::Call {
        target: Target::Label(main_label),
    }));
    b.insts.push(EmitInst::new(Inst::MovRR {
        dst: Reg::Rdi,
        src: Reg::Rax,
    }));
    b.insts.push(EmitInst::new(Inst::Call {
        target: Target::Label(exit_target),
    }));
    b.insts.push(EmitInst::new(Inst::Ud2));
    vec![b]
}

// Keep `is_external` and JumpWidth referenced (used by BOLT-side crates
// through this module's re-exports in integration scenarios).
const _: fn(&str) -> bool = is_external;
const _: JumpWidth = JumpWidth::Near;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::mir::{BinOp, CmpOp, Interp, Operand, Rvalue};
    use bolt_elf::write_elf;
    use bolt_emu::{Exit, Machine, NullSink};

    /// Builds a program exercising branches, loops, calls, globals, jump
    /// tables, and output.
    fn kitchen_sink() -> MirProgram {
        let mut p = MirProgram::with_entry("main");
        p.globals.push(crate::mir::Global {
            name: "weights".into(),
            words: vec![3, 1, 4, 1, 5, 9, 2, 6],
            mutable: false,
        });
        p.globals.push(crate::mir::Global {
            name: "state".into(),
            words: vec![0; 4],
            mutable: true,
        });

        // classify(x) = switch(x & 3): 0->10, 1->11, 2->12, default->-1
        let mut cl = FunctionBuilder::new("classify", 0, "classify.c", 1);
        let masked = cl.assign(Rvalue::BinOp(
            BinOp::And,
            Operand::Local(0),
            Operand::Const(3),
        ));
        let arms = cl.switch(Operand::Local(masked), 3);
        for (i, arm) in arms.targets.clone().iter().enumerate() {
            cl.switch_to(*arm);
            cl.ret(Operand::Const(10 + i as i64));
        }
        cl.switch_to(arms.default);
        cl.ret(Operand::Const(-1));
        p.add_function(cl.finish());

        // weigh(i) = weights[i & 7]
        let mut w = FunctionBuilder::new("weigh", 0, "weigh.c", 1);
        let idx = w.assign(Rvalue::BinOp(
            BinOp::And,
            Operand::Local(0),
            Operand::Const(7),
        ));
        let v = w.assign(Rvalue::LoadGlobal {
            global: "weights".into(),
            index: Operand::Local(idx),
        });
        w.ret(Operand::Local(v));
        p.add_function(w.finish());

        // main: loop i in 0..20 { s += classify(i) * weigh(i) }, store to
        // state[0], emit, return s & 0xFF.
        let mut m = FunctionBuilder::new("main", 1, "main.c", 0);
        let s = m.new_local();
        let i = m.new_local();
        m.assign_to(s, Rvalue::Use(Operand::Const(0)));
        m.assign_to(i, Rvalue::Use(Operand::Const(0)));
        let head = m.goto_new();
        m.switch_to(head);
        let c = m.assign_cmp(CmpOp::Lt, Operand::Local(i), Operand::Const(20));
        let (body, done) = m.branch(Operand::Local(c));
        m.switch_to(body);
        let a = m.call("classify", vec![Operand::Local(i)]);
        let b = m.call("weigh", vec![Operand::Local(i)]);
        let prod = m.assign(Rvalue::BinOp(
            BinOp::Mul,
            Operand::Local(a),
            Operand::Local(b),
        ));
        m.assign_to(
            s,
            Rvalue::BinOp(BinOp::Add, Operand::Local(s), Operand::Local(prod)),
        );
        m.assign_to(
            i,
            Rvalue::BinOp(BinOp::Add, Operand::Local(i), Operand::Const(1)),
        );
        m.goto(head);
        m.switch_to(done);
        m.push_stmt(crate::mir::Stmt::StoreGlobal {
            global: "state".into(),
            index: Operand::Const(0),
            value: Operand::Local(s),
            line: 0,
        });
        let back = m.assign(Rvalue::LoadGlobal {
            global: "state".into(),
            index: Operand::Const(0),
        });
        m.emit(Operand::Local(back));
        let masked = m.assign(Rvalue::BinOp(
            BinOp::And,
            Operand::Local(back),
            Operand::Const(0xFF),
        ));
        m.ret(Operand::Local(masked));
        p.add_function(m.finish());
        p.validate().unwrap();
        p
    }

    fn run_compiled(p: &MirProgram, opts: &CompileOptions) -> (i64, Vec<i64>) {
        let bin = compile_and_link(p, opts).expect("compile");
        let mut m = Machine::new();
        m.load_elf(&bin.elf);
        let r = m.run(&mut NullSink, 10_000_000).expect("run");
        let Exit::Exited(code) = r.exit else {
            panic!("program did not exit: {:?}", r.exit);
        };
        (code, m.output)
    }

    #[test]
    fn compiled_binary_matches_interpreter() {
        let p = kitchen_sink();
        let mut interp = Interp::new(&p, 1_000_000);
        let expected = interp.run(&[]).unwrap();

        for opts in [
            CompileOptions::default(),
            CompileOptions {
                opt_level: 0,
                ..CompileOptions::default()
            },
            CompileOptions {
                opt_level: 1,
                ..CompileOptions::default()
            },
            CompileOptions {
                legacy_amd: true,
                ..CompileOptions::default()
            },
            CompileOptions {
                plt: false,
                ..CompileOptions::default()
            },
            CompileOptions {
                align_blocks: false,
                ..CompileOptions::default()
            },
            CompileOptions {
                lto: true,
                ..CompileOptions::default()
            },
        ] {
            let (code, output) = run_compiled(&p, &opts);
            assert_eq!(code, expected, "exit code under {opts:?}");
            assert_eq!(output, interp.output, "output under {opts:?}");
        }
    }

    #[test]
    fn function_order_is_respected() {
        let p = kitchen_sink();
        let opts = CompileOptions {
            function_order: Some(vec!["main".into(), "weigh".into(), "classify".into()]),
            ..CompileOptions::default()
        };
        let bin = compile_and_link(&p, &opts).unwrap();
        let addr = |n: &str| bin.elf.symbol(n).unwrap().value;
        assert!(addr("main") < addr("weigh"));
        assert!(addr("weigh") < addr("classify"));
        // A name given twice is placed where it is first named.
        let twice = CompileOptions {
            function_order: Some(
                ["main", "weigh", "main", "classify"]
                    .map(String::from)
                    .into(),
            ),
            ..CompileOptions::default()
        };
        let again = compile_and_link(&p, &twice).unwrap();
        assert_eq!(write_elf(&again.elf).unwrap(), write_elf(&bin.elf).unwrap());
        // And execution still works.
        let mut m = Machine::new();
        m.load_elf(&bin.elf);
        let r = m.run(&mut NullSink, 10_000_000).unwrap();
        assert!(matches!(r.exit, Exit::Exited(_)));
    }

    #[test]
    fn metadata_sections_present_and_parse() {
        let p = kitchen_sink();
        let bin = compile_and_link(&p, &CompileOptions::default()).unwrap();
        let lines = LineTable::from_bytes(&bin.elf.section(".bolt.lines").unwrap().data).unwrap();
        assert!(!lines.entries.is_empty());
        assert!(lines.files.iter().any(|f| f == "main.c"));
        let eh = ExceptionTable::from_bytes(&bin.elf.section(".bolt.eh").unwrap().data).unwrap();
        // kitchen_sink has no landing pads.
        assert!(eh.entries.is_empty());
    }

    #[test]
    fn plt_stubs_and_got_exist() {
        let p = kitchen_sink();
        let bin = compile_and_link(&p, &CompileOptions::default()).unwrap();
        assert!(bin.elf.symbol("__plt___bolt_emit").is_some());
        assert!(bin.elf.symbol("__got___bolt_emit").is_some());
        // The GOT slot holds the runtime function's address.
        let got = bin.elf.symbol("__got___bolt_emit").unwrap().value;
        let target = bin.elf.read_u64(got).unwrap();
        assert_eq!(target, bin.elf.symbol(RT_EMIT).unwrap().value);
    }

    #[test]
    fn plt_false_builds_no_plt_stub_or_got_slot() {
        let p = kitchen_sink();
        let opts = CompileOptions {
            plt: false,
            ..CompileOptions::default()
        };
        let bin = compile_and_link(&p, &opts).unwrap();
        let indirect: Vec<&str> = (bin.elf.symbols.iter())
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("__plt_") || n.starts_with("__got_"))
            .collect();
        assert!(indirect.is_empty(), "plt: false built {indirect:?}");
    }

    /// The linker's line table, written straight from the emitter's
    /// entries, equals the normalized table's bytes on units with hot and
    /// cold code, whether the cold stream lies above the hot one (the
    /// entries come sorted) or below it (they do not), and with repeated
    /// or out-of-range file names.
    #[test]
    fn line_table_bytes_equal_the_normalized_table() {
        let mut unit = EmitUnit::new("split");
        for (i, line) in [3u32, 1, 4, 1, 5].into_iter().enumerate() {
            let mut b = EmitBlock::new(Label(i as u32));
            let mut inst = EmitInst::new(Inst::Push(Reg::Rbp));
            inst.line = Some(LineInfo {
                file: line % 3,
                line,
            });
            b.insts.push(inst);
            b.insts.push(EmitInst::new(Inst::Pop(Reg::Rbp)));
            let mut ret = EmitInst::new(Inst::Ret);
            ret.line = Some(LineInfo { file: 0, line: 9 });
            b.insts.push(ret);
            unit.blocks.push(b);
        }
        unit.cold_start = Some(2);
        let files: Vec<String> = ["a.c", "b.c", "a.c"].map(String::from).into();
        for cold_base in [COLD_BASE, TEXT_BASE - 0x1000, TEXT_BASE + 4] {
            let units = [unit.clone()];
            let result = emit_units(&units, TEXT_BASE, cold_base, &HashMap::new()).unwrap();
            assert_eq!(result.line_entries.len(), 10);
            let mut reference = LineTable::new();
            for f in &files {
                reference.intern_file(f);
            }
            for (a, li) in &result.line_entries {
                reference.push(*a, li.file, li.line);
            }
            reference.normalize();
            let bytes = line_table_bytes(&files, &result.line_entries);
            assert_eq!(bytes, reference.to_bytes(), "cold base {cold_base:#x}");
        }
    }
}
