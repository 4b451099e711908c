//! The functional emulator core.
//!
//! Code runs only from the executable sections `load_elf` loaded. The
//! step engine's decode cache and the translation engines' block cache
//! both key on one [`TextIndex`] layout, one region per executable
//! section; a `rip` outside every region fails with
//! [`EmuError::NotExecutable`] under all three engines.

use crate::block::{BlockCache, BlockTier, InjectedFault, TierCounts, TranslationMode};
use crate::text::TextIndex;
use crate::uop::{MicroOp, UopKind};
use crate::{BranchEvent, BranchKind, MemRecord, Memory, TraceSink};
use bolt_isa::{decode, AluOp, Cond, Inst, Mem, Reg, Rm, ShiftOp, Target};
use std::fmt;
use std::ops::Range;

/// Fixed stack top for emulated programs.
pub const STACK_TOP: u64 = 0x7FFF_FF00_0000;
/// Return-address sentinel used by [`Machine::call_function`].
pub const RETURN_SENTINEL: u64 = 0xFFFF_FFFF_FFFF_FF00;

/// Arithmetic flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    pub zf: bool,
    pub sf: bool,
    pub of: bool,
    pub cf: bool,
    pub pf: bool,
}

impl Flags {
    /// Flags of a logical operation's result (`and`/`or`/`xor`/`test`):
    /// CF and OF cleared, ZF/SF/PF from the result. The single shared
    /// implementation behind every engine — the step engine computes it
    /// eagerly, the uop engine lazily at the first consumer.
    #[inline]
    pub fn of_logic(r: u64) -> Flags {
        Flags {
            zf: r == 0,
            sf: (r >> 63) != 0,
            of: false,
            cf: false,
            pf: (r as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Flags of `a - b` (`sub`/`cmp`).
    #[inline]
    pub fn of_sub(a: u64, b: u64) -> Flags {
        let r = a.wrapping_sub(b);
        Flags {
            zf: r == 0,
            sf: (r >> 63) != 0,
            cf: a < b,
            of: (((a ^ b) & (a ^ r)) >> 63) != 0,
            pf: (r as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Flags of `a + b`.
    #[inline]
    pub fn of_add(a: u64, b: u64) -> Flags {
        let r = a.wrapping_add(b);
        Flags {
            zf: r == 0,
            sf: (r >> 63) != 0,
            cf: r < a,
            of: ((!(a ^ b) & (a ^ r)) >> 63) != 0,
            pf: (r as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Flags of a signed multiply producing `r`, with `over` reporting
    /// whether the full product overflowed 64 bits.
    #[inline]
    pub fn of_imul(r: i64, over: bool) -> Flags {
        Flags {
            zf: r == 0,
            sf: r < 0,
            of: over,
            cf: over,
            pf: (r as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Flags of a nonzero-count shift producing `r` with carry-out `cf`.
    #[inline]
    pub fn of_shift(r: u64, cf: bool) -> Flags {
        Flags {
            zf: r == 0,
            sf: (r >> 63) != 0,
            of: false,
            cf,
            pf: (r as u8).count_ones().is_multiple_of(2),
        }
    }

    /// Evaluates a condition code against the flags.
    pub fn cond(&self, c: Cond) -> bool {
        match c {
            Cond::O => self.of,
            Cond::No => !self.of,
            Cond::B => self.cf,
            Cond::Ae => !self.cf,
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !self.cf && !self.zf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
            Cond::P => self.pf,
            Cond::Np => !self.pf,
            Cond::L => self.sf != self.of,
            Cond::Ge => self.sf == self.of,
            Cond::Le => self.zf || (self.sf != self.of),
            Cond::G => !self.zf && (self.sf == self.of),
        }
    }
}

/// Deferred flags state for the uop engine's lazy-flags optimization:
/// a flag-writing micro-op whose flags *are* consumed later records its
/// operands here (two or three stores, no `pf` popcount) instead of
/// computing the full [`Flags`] struct; the first consumer — a `jcc` or
/// `setcc` uop, or the run's exit — materializes them through the
/// shared [`Flags::of_logic`]-family helpers. Micro-ops whose flag
/// writes are provably dead (a later writer in the same block precedes
/// any reader) skip even this. Outside the uop hot loop the state is
/// always `Clean` and `Machine::flags` is architectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LazyFlags {
    /// `Machine::flags` is up to date.
    #[default]
    Clean,
    /// A logical op produced this result.
    Logic(u64),
    /// A subtraction/compare of these operands is pending.
    Sub(u64, u64),
    /// An addition of these operands is pending.
    Add(u64, u64),
    /// A signed multiply produced this result (with overflow bit).
    Imul(i64, bool),
    /// A nonzero shift produced this result (with carry-out).
    Shift(u64, bool),
}

/// Which execution engine drives a run.
///
/// All engines are observationally identical — same program output,
/// same retired-instruction counts, same trace-event stream as seen by
/// every sink (`tests/engine_invariance.rs` proves byte-identical
/// `Counters`, `Profile`, and rewritten ELF) — they differ only in
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One fetch → decode-cache probe → dispatch per instruction
    /// ([`Machine::step`] in a loop). The reference engine.
    #[default]
    Step,
    /// Superblock translation with chaining: decode a straight-line run
    /// once (blocks end only at control transfers, spanning
    /// memory-touching instructions), then execute its packed entries
    /// with no per-step fetch probe. One batched
    /// [`TraceSink::on_block`] event carries the I-side footprint with
    /// the executed instructions' memory records interleaved, and a
    /// block's terminator caches its successor block so the hot loop
    /// skips the entry-index lookup entirely.
    Superblock,
    /// Pre-resolved micro-op execution: blocks translate exactly like
    /// superblocks (same spanning, chaining, SMC, and event batching),
    /// but each decoded instruction is additionally
    /// *lowered* to a flat [`MicroOp`](crate::uop::MicroOp) — operands
    /// pre-resolved to register-file indices, immediates sign-extended,
    /// effective-address recipes split per addressing shape — so the hot
    /// loop is a linear sweep over a dense `#[repr(u8)]`-tagged array
    /// with no re-decode and no wide `Inst` match. Arithmetic flags are
    /// computed lazily: only micro-ops whose flags a later consumer
    /// actually reads record them (as pending operands), and dead flag
    /// writes are skipped outright. The fastest tier.
    Uop,
}

impl Engine {
    /// The accepted knob spellings, for error messages.
    pub const VALID: &'static str = "step|superblock|uop";
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "step" => Ok(Engine::Step),
            "superblock" => Ok(Engine::Superblock),
            "uop" => Ok(Engine::Uop),
            other => Err(format!("expected one of {}, got {other:?}", Engine::VALID)),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Step => "step",
            Engine::Superblock => "superblock",
            Engine::Uop => "uop",
        })
    }
}

/// The superblock engine's capture sink: records the executing block's
/// memory accesses (with their execute-time-resolved addresses, tagged
/// by instruction index) and its terminating branch, for delivery as
/// one interleaved [`BlockEvent`](crate::BlockEvent) followed by the
/// branch — the exact step-engine event order.
struct CaptureSink<'a> {
    mems: &'a mut Vec<MemRecord>,
    /// Index (within the block) of the instruction now executing.
    inst: u32,
    branch: Option<BranchEvent>,
}

impl TraceSink for CaptureSink<'_> {
    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        self.mems.push(MemRecord {
            inst: self.inst,
            addr,
            len,
            write,
        });
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        debug_assert!(self.branch.is_none(), "a block has at most one branch");
        self.branch = Some(ev);
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The program invoked the exit syscall with this code.
    Exited(i64),
    /// The step budget ran out.
    MaxSteps,
    /// Control returned to the [`RETURN_SENTINEL`] (function-call mode).
    Returned,
}

/// Emulation errors (always fatal for the run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Bytes at `rip` did not decode.
    BadInstruction { rip: u64 },
    /// `ud2` executed.
    Trap { rip: u64 },
    /// Unknown syscall number.
    BadSyscall { rip: u64, number: u64 },
    /// `rip` lies in no executable section of the loaded image.
    NotExecutable { rip: u64 },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadInstruction { rip } => write!(f, "undecodable instruction at {rip:#x}"),
            EmuError::Trap { rip } => write!(f, "trap (ud2) at {rip:#x}"),
            EmuError::BadSyscall { rip, number } => {
                write!(f, "unsupported syscall {number} at {rip:#x}")
            }
            EmuError::NotExecutable { rip } => {
                write!(f, "jump to non-executable address {rip:#x}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    pub exit: Exit,
    /// Instructions retired.
    pub steps: u64,
}

/// The emulated machine: registers, flags, memory, and a decode cache.
///
/// # Examples
///
/// ```
/// use bolt_emu::Machine;
/// use bolt_elf::{Elf, Section};
///
/// // A binary whose entry point immediately exits with code 7:
/// //   movq $60, %rax ; movq $7, %rdi ; syscall
/// let code = vec![
///     0x48, 0xC7, 0xC0, 0x3C, 0, 0, 0,
///     0x48, 0xC7, 0xC7, 0x07, 0, 0, 0,
///     0x0F, 0x05,
/// ];
/// let mut elf = Elf::new(0x400000);
/// elf.sections.push(Section::code(".text", 0x400000, code));
///
/// let mut m = Machine::new();
/// m.load_elf(&elf);
/// let r = m.run(&mut bolt_emu::NullSink, 100)?;
/// assert_eq!(r.exit, bolt_emu::Exit::Exited(7));
/// # Ok::<(), bolt_emu::EmuError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    pub regs: [u64; 16],
    pub flags: Flags,
    pub rip: u64,
    pub mem: Memory,
    /// Values written by the emit syscall — the program's observable
    /// output (used to verify BOLT preserves semantics).
    pub output: Vec<i64>,
    /// Decode-cache index over the executable sections `load_elf`
    /// loaded: the slot of `rip` holds `entry + 1` into
    /// `icache_entries`, or 0 while undecoded. One `u32` per text byte
    /// (only instruction starts ever fill in); decoded instructions live
    /// packed in `icache_entries`, so the per-byte cost stays 4 bytes
    /// regardless of `size_of::<Inst>()`. Its regions are also the
    /// block cache's, and a `rip` outside them is not executable.
    icache_index: TextIndex,
    icache_entries: Vec<(Inst, u8)>,
    /// Translation cache for the superblock and uop engines.
    blocks: BlockCache,
    /// Reused capture buffer for the superblock engine's per-block
    /// memory records.
    mem_buf: Vec<MemRecord>,
    /// Pending lazy-flags state (uop engine only; `Clean` — and `flags`
    /// architectural — at every observable boundary).
    lazy: LazyFlags,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine {
            regs: [0; 16],
            flags: Flags::default(),
            rip: 0,
            mem: Memory::default(),
            output: Vec::new(),
            icache_index: TextIndex::default(),
            icache_entries: Vec::new(),
            blocks: BlockCache::default(),
            mem_buf: Vec::new(),
            lazy: LazyFlags::Clean,
        }
    }
}

impl Machine {
    pub fn new() -> Machine {
        Machine::default()
    }

    /// Resets all architectural and cached state — registers, flags,
    /// memory, recorded output, and the decode caches — returning the
    /// machine to its freshly-constructed state. Called by [`load_elf`]
    /// so a machine can be reused across independent runs (e.g. one
    /// worker emulating many shards) without state from a previous
    /// program leaking into the next.
    ///
    /// [`load_elf`]: Machine::load_elf
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.flags = Flags::default();
        self.rip = 0;
        self.mem.clear();
        self.output.clear();
        self.icache_index = TextIndex::default();
        self.icache_entries.clear();
        self.blocks.clear();
        self.mem_buf.clear();
        self.lazy = LazyFlags::Clean;
    }

    /// Loads all allocatable sections of an ELF image and initializes
    /// `rip`/`rsp`. The machine is fully [`reset`](Machine::reset)
    /// first: a reused machine behaves exactly like a fresh one.
    pub fn load_elf(&mut self, elf: &bolt_elf::Elf) {
        self.reset();
        for s in &elf.sections {
            if s.is_alloc() {
                self.mem.write(s.addr, &s.data);
            }
        }
        // One decode-cache region per executable section.
        self.icache_index = TextIndex::new(
            elf.sections
                .iter()
                .filter(|s| s.is_alloc() && s.is_exec())
                .map(|s| s.addr..s.addr.saturating_add(s.data.len() as u64)),
        );
        self.rip = elf.entry;
        self.set_reg(Reg::Rsp, STACK_TOP - 64);
    }

    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.num() as usize]
    }

    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.num() as usize] = v;
    }

    /// Register access by pre-resolved micro-op index. The mask keeps
    /// the bounds check out of the hot loop; lowered indices are always
    /// in 0..16.
    #[inline(always)]
    fn r(&self, i: u8) -> u64 {
        self.regs[(i & 15) as usize]
    }

    #[inline(always)]
    fn set_r(&mut self, i: u8, v: u64) {
        self.regs[(i & 15) as usize] = v;
    }

    /// Effective address of a pre-resolved `base + disp` recipe.
    #[inline(always)]
    fn ea_bd(&self, op: &MicroOp) -> u64 {
        self.r(op.b).wrapping_add(op.imm as u64)
    }

    /// Effective address of a pre-resolved `base + index*scale + disp`
    /// recipe.
    #[inline(always)]
    fn ea_bis(&self, op: &MicroOp) -> u64 {
        self.r(op.b)
            .wrapping_add(self.r(op.c).wrapping_mul(op.d as u64))
            .wrapping_add(op.imm as u64)
    }

    fn effective_addr(&self, mem: &Mem) -> u64 {
        match mem {
            Mem::BaseDisp { base, disp } => self.reg(*base).wrapping_add(*disp as i64 as u64),
            Mem::BaseIndexScale {
                base,
                index,
                scale,
                disp,
            } => self
                .reg(*base)
                .wrapping_add(self.reg(*index).wrapping_mul(*scale as u64))
                .wrapping_add(*disp as i64 as u64),
            Mem::RipRel { target } => match target {
                Target::Addr(a) => *a,
                Target::Label(_) => panic!("unresolved label reached the emulator"),
            },
        }
    }

    fn fetch(&mut self, rip: u64) -> Result<(Inst, u8), EmuError> {
        let slot = self
            .icache_index
            .slot(rip)
            .ok_or(EmuError::NotExecutable { rip })?;
        if *slot != 0 {
            return Ok(self.icache_entries[(*slot - 1) as usize]);
        }
        let mut buf = [0u8; 16];
        self.mem.read(rip, &mut buf);
        let d = decode(&buf, rip).map_err(|_| EmuError::BadInstruction { rip })?;
        self.icache_entries.push((d.inst, d.len));
        *slot = self.icache_entries.len() as u32;
        Ok((d.inst, d.len))
    }

    /// Invalidates the decode and block-translation caches when a store
    /// lands in indexed text. The fast path (stores to data/stack) is
    /// two compares per cache against its regions' hull; programs that
    /// patch their own code pay a full flush, and both engines then
    /// refetch the new bytes — a store into text behaves
    /// architecturally under either engine.
    fn note_text_write(&mut self, addr: u64, len: u64) {
        self.blocks.note_write(addr, len);
        if self.icache_index.touches(addr, len) {
            self.icache_index.clear();
            self.icache_entries.clear();
        }
    }

    fn set_flags_logic(&mut self, r: u64) {
        self.flags = Flags::of_logic(r);
    }

    fn set_flags_sub(&mut self, a: u64, b: u64) -> u64 {
        self.flags = Flags::of_sub(a, b);
        a.wrapping_sub(b)
    }

    fn set_flags_add(&mut self, a: u64, b: u64) -> u64 {
        self.flags = Flags::of_add(a, b);
        a.wrapping_add(b)
    }

    /// Folds any pending lazy-flags state into `self.flags`. Called by
    /// the uop engine at each flags consumer and at every boundary where
    /// `flags` becomes observable (run exit, fallback to exact
    /// stepping); a no-op everywhere else, since only uop execution ever
    /// leaves the state non-`Clean`.
    #[inline]
    fn materialize_flags(&mut self) {
        match std::mem::replace(&mut self.lazy, LazyFlags::Clean) {
            LazyFlags::Clean => {}
            LazyFlags::Logic(r) => self.flags = Flags::of_logic(r),
            LazyFlags::Sub(a, b) => self.flags = Flags::of_sub(a, b),
            LazyFlags::Add(a, b) => self.flags = Flags::of_add(a, b),
            LazyFlags::Imul(r, over) => self.flags = Flags::of_imul(r, over),
            LazyFlags::Shift(r, cf) => self.flags = Flags::of_shift(r, cf),
        }
    }

    fn alu(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Add => self.set_flags_add(a, b),
            AluOp::Sub => self.set_flags_sub(a, b),
            AluOp::Cmp => {
                self.set_flags_sub(a, b);
                a
            }
            AluOp::And => {
                let r = a & b;
                self.set_flags_logic(r);
                r
            }
            AluOp::Or => {
                let r = a | b;
                self.set_flags_logic(r);
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                self.set_flags_logic(r);
                r
            }
        }
    }

    fn push<S: TraceSink + ?Sized>(&mut self, v: u64, sink: &mut S) {
        let rsp = self.reg(Reg::Rsp).wrapping_sub(8);
        self.set_reg(Reg::Rsp, rsp);
        self.mem.write_u64(rsp, v);
        self.note_text_write(rsp, 8);
        sink.on_mem(rsp, 8, true);
    }

    fn pop<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> u64 {
        let rsp = self.reg(Reg::Rsp);
        let v = self.mem.read_u64(rsp);
        sink.on_mem(rsp, 8, false);
        self.set_reg(Reg::Rsp, rsp.wrapping_add(8));
        v
    }

    fn resolve_rm<S: TraceSink + ?Sized>(&mut self, rm: &Rm, sink: &mut S) -> u64 {
        match rm {
            Rm::Reg(r) => self.reg(*r),
            Rm::Mem(m) => {
                let ea = self.effective_addr(m);
                sink.on_mem(ea, 8, false);
                self.mem.read_u64(ea)
            }
        }
    }

    /// Executes one instruction. Returns `Some(exit)` when the program
    /// terminates.
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn step<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> Result<Option<Exit>, EmuError> {
        let rip = self.rip;
        let (inst, len) = self.fetch(rip)?;
        sink.on_inst(rip, len);
        self.exec_inst(rip, inst, len, sink)
    }

    /// Executes one already-decoded instruction at `rip` (occupying
    /// `len` bytes), advancing `self.rip`. The caller has already
    /// charged the fetch to the sink — `on_inst` ([`step`](Machine::step))
    /// or a batched `on_block` ([`exec_block`](Machine::exec_block)).
    fn exec_inst<S: TraceSink + ?Sized>(
        &mut self,
        rip: u64,
        inst: Inst,
        len: u8,
        sink: &mut S,
    ) -> Result<Option<Exit>, EmuError> {
        let next = rip + len as u64;
        let mut new_rip = next;

        match inst {
            Inst::Push(r) => {
                let v = self.reg(r);
                self.push(v, sink);
            }
            Inst::Pop(r) => {
                let v = self.pop(sink);
                self.set_reg(r, v);
            }
            Inst::MovRR { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
            }
            Inst::MovRI { dst, imm } => self.set_reg(dst, imm as u64),
            Inst::MovRSym { dst, target } => {
                let Target::Addr(a) = target else {
                    panic!("unresolved symbol reached the emulator");
                };
                self.set_reg(dst, a);
            }
            Inst::Load { dst, mem } => {
                let ea = self.effective_addr(&mem);
                sink.on_mem(ea, 8, false);
                let v = self.mem.read_u64(ea);
                self.set_reg(dst, v);
            }
            Inst::Store { mem, src } => {
                let ea = self.effective_addr(&mem);
                sink.on_mem(ea, 8, true);
                let v = self.reg(src);
                self.mem.write_u64(ea, v);
                self.note_text_write(ea, 8);
            }
            Inst::Lea { dst, mem } => {
                let ea = self.effective_addr(&mem);
                self.set_reg(dst, ea);
            }
            Inst::Alu { op, dst, src } => {
                let r = self.alu(op, self.reg(dst), self.reg(src));
                if op.writes_dst() {
                    self.set_reg(dst, r);
                }
            }
            Inst::AluI { op, dst, imm } => {
                let r = self.alu(op, self.reg(dst), imm as i64 as u64);
                if op.writes_dst() {
                    self.set_reg(dst, r);
                }
            }
            Inst::Test { a, b } => {
                let r = self.reg(a) & self.reg(b);
                self.set_flags_logic(r);
            }
            Inst::Imul { dst, src } => {
                let a = self.reg(dst) as i64;
                let b = self.reg(src) as i64;
                let (r, over) = a.overflowing_mul(b);
                self.flags = Flags::of_imul(r, over);
                self.set_reg(dst, r as u64);
            }
            Inst::Shift { op, dst, amount } => {
                let a = self.reg(dst);
                let c = (amount & 63) as u32;
                if c != 0 {
                    let (r, cf) = match op {
                        ShiftOp::Shl => (a.wrapping_shl(c), (a >> (64 - c)) & 1 != 0),
                        ShiftOp::Shr => (a.wrapping_shr(c), (a >> (c - 1)) & 1 != 0),
                        ShiftOp::Sar => (
                            ((a as i64).wrapping_shr(c)) as u64,
                            ((a as i64) >> (c - 1)) & 1 != 0,
                        ),
                    };
                    self.flags = Flags::of_shift(r, cf);
                    self.set_reg(dst, r);
                }
            }
            Inst::Setcc { cond, dst } => {
                let bit = u64::from(self.flags.cond(cond));
                let old = self.reg(dst);
                self.set_reg(dst, (old & !0xFF) | bit);
            }
            Inst::Movzx8 { dst, src } => {
                let v = self.reg(src) & 0xFF;
                self.set_reg(dst, v);
            }
            Inst::Jcc { cond, target, .. } => {
                let taken = self.flags.cond(cond);
                let tgt = target.addr().expect("decoded branches are resolved");
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: if taken { tgt } else { next },
                    taken,
                    kind: BranchKind::Cond,
                });
                if taken {
                    new_rip = tgt;
                }
            }
            Inst::Jmp { target, .. } => {
                let tgt = target.addr().expect("decoded branches are resolved");
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Uncond,
                });
                new_rip = tgt;
            }
            Inst::JmpInd { rm } => {
                let tgt = self.resolve_rm(&rm, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectJump,
                });
                new_rip = tgt;
            }
            Inst::Call { target } => {
                let tgt = target.addr().expect("decoded branches are resolved");
                self.push(next, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Call,
                });
                new_rip = tgt;
            }
            Inst::CallInd { rm } => {
                let tgt = self.resolve_rm(&rm, sink);
                self.push(next, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectCall,
                });
                new_rip = tgt;
            }
            Inst::Ret | Inst::RepzRet => {
                let tgt = self.pop(sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Return,
                });
                if tgt == RETURN_SENTINEL {
                    self.rip = tgt;
                    return Ok(Some(Exit::Returned));
                }
                new_rip = tgt;
            }
            Inst::Nop { .. } => {}
            Inst::Ud2 => return Err(EmuError::Trap { rip }),
            Inst::Syscall => {
                let nr = self.reg(Reg::Rax);
                match nr {
                    1 => {
                        // "emit": record rdi as program output.
                        let v = self.reg(Reg::Rdi) as i64;
                        self.output.push(v);
                        self.set_reg(Reg::Rax, 8);
                    }
                    60 | 231 => {
                        self.rip = next;
                        return Ok(Some(Exit::Exited(self.reg(Reg::Rdi) as i64)));
                    }
                    number => return Err(EmuError::BadSyscall { rip, number }),
                }
            }
        }

        self.rip = new_rip;
        Ok(None)
    }

    /// Runs until exit, error, or `max_steps` instructions, under the
    /// process default engine ([`Knobs::engine`](crate::Knobs::engine):
    /// the `BOLT_ENGINE` override, else per-instruction stepping). All
    /// engines are observationally identical — see [`Engine`].
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn run<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        max_steps: u64,
    ) -> Result<RunResult, EmuError> {
        self.run_engine(sink, max_steps, crate::Knobs::get().engine(None))
    }

    /// [`run`](Machine::run) with an explicit engine choice.
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn run_engine<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        max_steps: u64,
        engine: Engine,
    ) -> Result<RunResult, EmuError> {
        match engine {
            Engine::Step => self.run_steps(sink, max_steps),
            Engine::Superblock => self.run_translated(sink, max_steps, TranslationMode::Superblock),
            Engine::Uop => self.run_translated(sink, max_steps, TranslationMode::Uop),
        }
    }

    /// The step engine: fetch → dispatch per instruction.
    fn run_steps<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        max_steps: u64,
    ) -> Result<RunResult, EmuError> {
        let mut steps = 0u64;
        while steps < max_steps {
            steps += 1;
            if let Some(exit) = self.step(sink)? {
                return Ok(RunResult { exit, steps });
            }
        }
        Ok(RunResult {
            exit: Exit::MaxSteps,
            steps,
        })
    }

    /// The translation engines: executes translated superblocks from the
    /// translation cache. `mode` is a constant at both call sites in
    /// [`run_engine`](Machine::run_engine), so the driver monomorphizes
    /// per engine.
    ///
    /// Blocks end only at control transfers and *chain* — a block's
    /// terminator caches its successor block index so the hot loop
    /// skips the entry-index lookup on direct jumps and fall-throughs.
    /// Under [`TranslationMode::Uop`] a full-tier block executes its
    /// *lowered micro-ops* ([`crate::uop`]) instead of re-dispatching
    /// decoded [`Inst`]s, with arithmetic flags kept lazily in
    /// [`LazyFlags`]; the pending state materializes at every boundary
    /// where `flags` becomes observable — flag consumers, any fallback
    /// off the micro-op path, and run exit (normal, `MaxSteps`, and
    /// errors alike).
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    #[inline(always)]
    fn run_translated<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        max_steps: u64,
        mode: TranslationMode,
    ) -> Result<RunResult, EmuError> {
        self.blocks.ensure_span(&self.icache_index, mode);
        let mut mems = std::mem::take(&mut self.mem_buf);
        let r = self.run_translated_inner(sink, max_steps, mode, &mut mems);
        self.materialize_flags();
        mems.clear();
        self.mem_buf = mems;
        r
    }

    /// The one block-driver loop: reclaim → chain probe → lookup or
    /// translate → install link → execute at the block's tier → `prev`
    /// bookkeeping.
    ///
    /// A block the step budget lands inside runs at the step tier, so
    /// [`Exit::MaxSteps`] fires at exactly the same retired count as
    /// the step engine.
    #[inline(always)]
    fn run_translated_inner<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        max_steps: u64,
        mode: TranslationMode,
        mems: &mut Vec<MemRecord>,
    ) -> Result<RunResult, EmuError> {
        let mut steps = 0u64;
        // The block just executed, if its chain links are still valid —
        // the source end of the next transition's cached link.
        let mut prev: Option<u32> = None;
        while steps < max_steps {
            // Reclaim invalidated pools only between blocks; any chain
            // state died with them.
            if self.blocks.reclaim() {
                prev = None;
            }
            let rip = self.rip;
            let idx = match prev.and_then(|p| self.blocks.linked(p, rip)) {
                Some(i) => i,
                None => {
                    let i = match self.blocks.lookup(rip) {
                        Some(i) => i,
                        None => self.blocks.translate(&self.mem, rip)?,
                    };
                    if let Some(p) = prev {
                        self.blocks.install_link(p, rip, i);
                    }
                    i
                }
            };
            let count = self.blocks.block_info(idx).0.len() as u64;
            let budget = max_steps - steps;
            let tier = if budget < count {
                BlockTier::Step
            } else {
                self.blocks.tier(idx)
            };
            if tier != BlockTier::Full {
                // Any pending lazy flags become architectural before a
                // fallback path reads or rewrites them.
                self.materialize_flags();
            }
            let (executed, exit) = match tier {
                // The packed entries are untrusted (or the budget ends
                // inside them): retire the instructions through the
                // interpreter's architectural fetch path instead.
                BlockTier::Step => {
                    let r = self.run_steps(sink, count.min(budget))?;
                    (r.steps, (r.exit != Exit::MaxSteps).then_some(r.exit))
                }
                BlockTier::Full if mode == TranslationMode::Uop => {
                    self.exec_block::<true, S>(idx, sink, mems)?
                }
                // Superblock mode, or a uop-mode block whose lowering is
                // untrusted but whose decoded entries validated clean:
                // the uop pool is never read.
                BlockTier::Full | BlockTier::Decoded => {
                    self.exec_block::<false, S>(idx, sink, mems)?
                }
            };
            steps += executed;
            if let Some(exit) = exit {
                return Ok(RunResult { exit, steps });
            }
            // A stepped or abandoned block leaves any chain state stale.
            prev = (tier != BlockTier::Step && executed == count).then_some(idx);
        }
        Ok(RunResult {
            exit: Exit::MaxSteps,
            steps,
        })
    }

    /// Executes the block at `entry` (`byte_len` bytes, pool entries
    /// `range`) against `sink` — its lowered micro-ops when `UOPS`, its
    /// decoded instructions otherwise — calling `mark(sink, k)` before
    /// entry `k`. Returns how many entries were attempted (including one
    /// that exited or failed) and the outcome.
    ///
    /// A micro-op block runs as *body + terminator*: translation ends a
    /// block only after a control transfer, so every entry but the last
    /// is a straight-line op that cannot exit, fail or branch
    /// ([`exec_body_uop`](Machine::exec_body_uop): no `Result`, no `rip`
    /// store), and only the last goes through
    /// [`exec_uop`](Machine::exec_uop), at `entry + byte_len - len`.
    ///
    /// Stores into cached text set the cache's dirty flag; it is checked
    /// after every entry and the rest of the block is abandoned, with
    /// `rip` just past the store, so self-modifying code — even code
    /// patching *later instructions of the same block* — refetches the
    /// patched bytes just like the step engine.
    #[inline(always)]
    fn exec_entries<const UOPS: bool, S: TraceSink + ?Sized>(
        &mut self,
        (range, entry, byte_len): (Range<usize>, u64, u64),
        sink: &mut S,
        mut mark: impl FnMut(&mut S, u32),
    ) -> (u32, Result<Option<Exit>, EmuError>) {
        if UOPS {
            let pool = self.blocks.take_uops();
            let (&last, body) = pool[range].split_last().expect("blocks are never empty");
            for (k, op) in body.iter().enumerate() {
                mark(sink, k as u32);
                self.exec_body_uop(op, sink);
                if self.blocks.is_dirty() {
                    self.rip = entry + body[..=k].iter().map(|op| op.len as u64).sum::<u64>();
                    self.blocks.put_uops(pool);
                    return (k as u32 + 1, Ok(None));
                }
            }
            mark(sink, body.len() as u32);
            let executed = body.len() as u32 + 1;
            self.blocks.put_uops(pool);
            let at = entry + byte_len - last.len as u64;
            return (executed, self.exec_uop(at, last, sink));
        }
        let count = range.len() as u32;
        let mut at = entry;
        for (k, i) in range.enumerate() {
            mark(sink, k as u32);
            let (inst, len) = self.blocks.inst(i);
            let outcome = self.exec_inst(at, inst, len, sink);
            if !matches!(outcome, Ok(None)) || self.blocks.is_dirty() {
                return (k as u32 + 1, outcome);
            }
            at += len as u64;
        }
        (count, Ok(None))
    }

    /// Executes one translated block with superblock event batching,
    /// returning how many instructions were attempted (including one
    /// that exited) and the exit, if any.
    ///
    /// A block with no memory-touching instructions charges its event
    /// up front and executes with the live sink; a block with memory
    /// accesses executes against a capture buffer, then emits one
    /// prefix event with interleaved records followed by the
    /// terminator's branch — exactly the step engine's event order.
    /// Fewer attempts than the block holds means it was abandoned (SMC
    /// dirty or exit) and any chain state is stale.
    fn exec_block<const UOPS: bool, S: TraceSink + ?Sized>(
        &mut self,
        idx: u32,
        sink: &mut S,
        mems: &mut Vec<MemRecord>,
    ) -> Result<(u64, Option<Exit>), EmuError> {
        let (range, entry, byte_len, has_mems) = self.blocks.block_info(idx);
        let block = (range, entry, byte_len);
        if !has_mems {
            // No D-side events anywhere in the block (so no store can
            // abandon it): charge the event up front and execute with
            // the live sink (its only other possible event, a
            // terminating branch, follows the fetches in step order too).
            sink.on_block(self.blocks.event(idx));
            let (executed, outcome) = self.exec_entries::<UOPS, S>(block, sink, |_, _| {});
            return outcome.map(|exit| (executed as u64, exit));
        }
        // Memory accesses mid-block: execute against a capture
        // buffer, then emit one event carrying the interleaved
        // fetch + memory records, then the terminator's branch. After
        // an abandon the prefix event reports exactly what retired,
        // and the patched bytes retranslate next iteration.
        mems.clear();
        let mut cap = CaptureSink {
            mems: &mut *mems,
            inst: 0,
            branch: None,
        };
        let (executed, outcome) =
            self.exec_entries::<UOPS, _>(block, &mut cap, |cap, k| cap.inst = k);
        let branch = cap.branch;
        debug_assert!(
            {
                let shapes = self.blocks.shapes(idx);
                mems.len() <= shapes.len()
                    && mems
                        .iter()
                        .zip(shapes)
                        .all(|(m, s)| m.inst == s.inst && m.write == s.write)
            },
            "captured records must match the translation-time shapes"
        );
        sink.on_block(self.blocks.prefix_event(idx, executed, mems));
        if let Some(ev) = branch {
            sink.on_branch(ev);
        }
        outcome.map(|exit| (executed as u64, exit))
    }

    /// Executes one straight-line micro-op: any kind but a control
    /// transfer, so it never exits, fails, branches or reads `rip` — and
    /// leaves `self.rip` alone for the caller to advance. A block's body
    /// entries run here directly; [`exec_uop`](Machine::exec_uop)
    /// delegates the same kinds here when one ends a block.
    #[inline(always)]
    fn exec_body_uop<S: TraceSink + ?Sized>(&mut self, op: &MicroOp, sink: &mut S) {
        match op.kind {
            UopKind::MovRR => {
                let v = self.r(op.b);
                self.set_r(op.a, v);
            }
            UopKind::MovRI => self.set_r(op.a, op.imm as u64),
            UopKind::LoadBD => {
                let ea = self.ea_bd(op);
                sink.on_mem(ea, 8, false);
                let v = self.mem.read_u64(ea);
                self.set_r(op.a, v);
            }
            UopKind::LoadBIS => {
                let ea = self.ea_bis(op);
                sink.on_mem(ea, 8, false);
                let v = self.mem.read_u64(ea);
                self.set_r(op.a, v);
            }
            UopKind::LoadAbs => {
                let ea = op.imm as u64;
                sink.on_mem(ea, 8, false);
                let v = self.mem.read_u64(ea);
                self.set_r(op.a, v);
            }
            UopKind::StoreBD => {
                let ea = self.ea_bd(op);
                sink.on_mem(ea, 8, true);
                let v = self.r(op.a);
                self.mem.write_u64(ea, v);
                self.note_text_write(ea, 8);
            }
            UopKind::StoreBIS => {
                let ea = self.ea_bis(op);
                sink.on_mem(ea, 8, true);
                let v = self.r(op.a);
                self.mem.write_u64(ea, v);
                self.note_text_write(ea, 8);
            }
            UopKind::StoreAbs => {
                let ea = op.imm as u64;
                sink.on_mem(ea, 8, true);
                let v = self.r(op.a);
                self.mem.write_u64(ea, v);
                self.note_text_write(ea, 8);
            }
            UopKind::LeaBD => {
                let ea = self.ea_bd(op);
                self.set_r(op.a, ea);
            }
            UopKind::LeaBIS => {
                let ea = self.ea_bis(op);
                self.set_r(op.a, ea);
            }
            UopKind::Push => {
                let v = self.r(op.a);
                self.push(v, sink);
            }
            UopKind::Pop => {
                let v = self.pop(sink);
                self.set_r(op.a, v);
            }
            UopKind::AddRR => {
                let a = self.r(op.a);
                let b = self.r(op.b);
                if op.fl {
                    self.lazy = LazyFlags::Add(a, b);
                }
                self.set_r(op.a, a.wrapping_add(b));
            }
            UopKind::AddRI => {
                let a = self.r(op.a);
                let b = op.imm as u64;
                if op.fl {
                    self.lazy = LazyFlags::Add(a, b);
                }
                self.set_r(op.a, a.wrapping_add(b));
            }
            UopKind::SubRR => {
                let a = self.r(op.a);
                let b = self.r(op.b);
                if op.fl {
                    self.lazy = LazyFlags::Sub(a, b);
                }
                self.set_r(op.a, a.wrapping_sub(b));
            }
            UopKind::SubRI => {
                let a = self.r(op.a);
                let b = op.imm as u64;
                if op.fl {
                    self.lazy = LazyFlags::Sub(a, b);
                }
                self.set_r(op.a, a.wrapping_sub(b));
            }
            UopKind::AndRR => {
                let r = self.r(op.a) & self.r(op.b);
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::AndRI => {
                let r = self.r(op.a) & op.imm as u64;
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::OrRR => {
                let r = self.r(op.a) | self.r(op.b);
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::OrRI => {
                let r = self.r(op.a) | op.imm as u64;
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::XorRR => {
                let r = self.r(op.a) ^ self.r(op.b);
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::XorRI => {
                let r = self.r(op.a) ^ op.imm as u64;
                if op.fl {
                    self.lazy = LazyFlags::Logic(r);
                }
                self.set_r(op.a, r);
            }
            UopKind::CmpRR => {
                // A compare only produces flags — dead ones vanish.
                if op.fl {
                    self.lazy = LazyFlags::Sub(self.r(op.a), self.r(op.b));
                }
            }
            UopKind::CmpRI => {
                if op.fl {
                    self.lazy = LazyFlags::Sub(self.r(op.a), op.imm as u64);
                }
            }
            UopKind::Test => {
                if op.fl {
                    self.lazy = LazyFlags::Logic(self.r(op.a) & self.r(op.b));
                }
            }
            UopKind::Imul => {
                let a = self.r(op.a) as i64;
                let b = self.r(op.b) as i64;
                let (r, over) = a.overflowing_mul(b);
                if op.fl {
                    self.lazy = LazyFlags::Imul(r, over);
                }
                self.set_r(op.a, r as u64);
            }
            UopKind::Shl => {
                // Lowering guarantees a count in 1..=63.
                let a = self.r(op.a);
                let c = op.c as u32;
                let r = a.wrapping_shl(c);
                if op.fl {
                    self.lazy = LazyFlags::Shift(r, (a >> (64 - c)) & 1 != 0);
                }
                self.set_r(op.a, r);
            }
            UopKind::Shr => {
                let a = self.r(op.a);
                let c = op.c as u32;
                let r = a.wrapping_shr(c);
                if op.fl {
                    self.lazy = LazyFlags::Shift(r, (a >> (c - 1)) & 1 != 0);
                }
                self.set_r(op.a, r);
            }
            UopKind::Sar => {
                let a = self.r(op.a);
                let c = op.c as u32;
                let r = (a as i64).wrapping_shr(c) as u64;
                if op.fl {
                    self.lazy = LazyFlags::Shift(r, ((a as i64) >> (c - 1)) & 1 != 0);
                }
                self.set_r(op.a, r);
            }
            UopKind::Setcc => {
                self.materialize_flags();
                let cond = Cond::from_cc(op.c).expect("lowered cc is valid");
                let bit = u64::from(self.flags.cond(cond));
                let old = self.r(op.a);
                self.set_r(op.a, (old & !0xFF) | bit);
            }
            UopKind::Movzx8 => {
                let v = self.r(op.b) & 0xFF;
                self.set_r(op.a, v);
            }
            UopKind::Nop => {}
            UopKind::Jcc
            | UopKind::Jmp
            | UopKind::JmpIndReg
            | UopKind::JmpIndMemBD
            | UopKind::JmpIndMemBIS
            | UopKind::JmpIndMemAbs
            | UopKind::Call
            | UopKind::CallIndReg
            | UopKind::CallIndMemBD
            | UopKind::CallIndMemBIS
            | UopKind::CallIndMemAbs
            | UopKind::Ret
            | UopKind::Ud2
            | UopKind::Syscall => unreachable!("a control transfer always ends its block"),
        }
    }

    /// Executes one lowered micro-op at `rip`, advancing `self.rip`. The
    /// uop-engine counterpart of [`exec_inst`](Machine::exec_inst):
    /// observationally identical per instruction (same memory, branch,
    /// output, and exit behavior through the sink), but with operands
    /// pre-resolved and flag writes deferred into [`LazyFlags`] (and
    /// skipped entirely when provably dead). Runs each block's last
    /// entry: the control transfers live here, every other kind in
    /// [`exec_body_uop`](Machine::exec_body_uop).
    fn exec_uop<S: TraceSink + ?Sized>(
        &mut self,
        rip: u64,
        op: MicroOp,
        sink: &mut S,
    ) -> Result<Option<Exit>, EmuError> {
        let next = rip + op.len as u64;
        let mut new_rip = next;

        match op.kind {
            UopKind::Jcc => {
                self.materialize_flags();
                let cond = Cond::from_cc(op.c).expect("lowered cc is valid");
                let taken = self.flags.cond(cond);
                let tgt = op.imm as u64;
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: if taken { tgt } else { next },
                    taken,
                    kind: BranchKind::Cond,
                });
                if taken {
                    new_rip = tgt;
                }
            }
            UopKind::Jmp => {
                let tgt = op.imm as u64;
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Uncond,
                });
                new_rip = tgt;
            }
            UopKind::JmpIndReg => {
                let tgt = self.r(op.b);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectJump,
                });
                new_rip = tgt;
            }
            UopKind::JmpIndMemBD | UopKind::JmpIndMemBIS | UopKind::JmpIndMemAbs => {
                let ea = match op.kind {
                    UopKind::JmpIndMemBD => self.ea_bd(&op),
                    UopKind::JmpIndMemBIS => self.ea_bis(&op),
                    _ => op.imm as u64,
                };
                sink.on_mem(ea, 8, false);
                let tgt = self.mem.read_u64(ea);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectJump,
                });
                new_rip = tgt;
            }
            UopKind::Call => {
                let tgt = op.imm as u64;
                self.push(next, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Call,
                });
                new_rip = tgt;
            }
            UopKind::CallIndReg => {
                let tgt = self.r(op.b);
                self.push(next, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectCall,
                });
                new_rip = tgt;
            }
            UopKind::CallIndMemBD | UopKind::CallIndMemBIS | UopKind::CallIndMemAbs => {
                // Event order matches the step engine: target load,
                // return-address push, branch.
                let ea = match op.kind {
                    UopKind::CallIndMemBD => self.ea_bd(&op),
                    UopKind::CallIndMemBIS => self.ea_bis(&op),
                    _ => op.imm as u64,
                };
                sink.on_mem(ea, 8, false);
                let tgt = self.mem.read_u64(ea);
                self.push(next, sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::IndirectCall,
                });
                new_rip = tgt;
            }
            UopKind::Ret => {
                let tgt = self.pop(sink);
                sink.on_branch(BranchEvent {
                    from: rip,
                    to: tgt,
                    taken: true,
                    kind: BranchKind::Return,
                });
                if tgt == RETURN_SENTINEL {
                    self.rip = tgt;
                    return Ok(Some(Exit::Returned));
                }
                new_rip = tgt;
            }
            UopKind::Ud2 => return Err(EmuError::Trap { rip }),
            UopKind::Syscall => {
                let nr = self.reg(Reg::Rax);
                match nr {
                    1 => {
                        let v = self.reg(Reg::Rdi) as i64;
                        self.output.push(v);
                        self.set_reg(Reg::Rax, 8);
                    }
                    60 | 231 => {
                        self.rip = next;
                        return Ok(Some(Exit::Exited(self.reg(Reg::Rdi) as i64)));
                    }
                    number => return Err(EmuError::BadSyscall { rip, number }),
                }
            }
            _ => self.exec_body_uop(&op, sink),
        }

        self.rip = new_rip;
        Ok(None)
    }

    /// Cumulative per-tier block-translation counts: how many
    /// translations ran at full tier and how many the fallback ladder
    /// degraded ([`BlockTier::Decoded`] / [`BlockTier::Step`]). Zero
    /// degradations on a healthy image; diagnostics only, never part
    /// of a [`RunResult`].
    pub fn tier_counts(&self) -> TierCounts {
        self.blocks.tier_counts()
    }

    /// Heap bytes held by the text indexes of the decode cache and the
    /// block cache (4 per executable-section byte each; the block
    /// cache's is allocated at the first translation-engine run).
    /// Diagnostics only.
    pub fn text_index_bytes(&self) -> usize {
        self.icache_index.bytes() + self.blocks.index.bytes()
    }

    /// Turns per-translation symbolic validation on or off for this
    /// machine (`bolt-run --validate-semantics`): every block the
    /// translation engines pack is proven equivalent to a fresh decode
    /// of its bytes, and a disagreeing block degrades a tier. Defaults
    /// to [`Knobs::sem_validate`](crate::Knobs::sem_validate); survives
    /// [`load_elf`](Machine::load_elf).
    pub fn set_sem_validation(&mut self, on: bool) {
        self.blocks.sem_validate = on;
    }

    /// Arms a deterministic injected translation fault: the `nth`
    /// subsequent block translation (0-based) degrades exactly as a
    /// real validation finding of `kind` would. Per-machine state (no
    /// globals), for the fault-injection harness.
    pub fn inject_translation_fault(&mut self, nth: u64, kind: InjectedFault) {
        self.blocks.inject_fault(nth, kind);
    }

    /// Calls the function at `addr` with up to six integer arguments,
    /// running until it returns. Used by unit tests to exercise individual
    /// functions.
    ///
    /// # Errors
    ///
    /// See [`EmuError`].
    pub fn call_function<S: TraceSink + ?Sized>(
        &mut self,
        addr: u64,
        args: &[u64],
        sink: &mut S,
        max_steps: u64,
    ) -> Result<u64, EmuError> {
        assert!(args.len() <= 6, "at most six register arguments");
        for (i, &a) in args.iter().enumerate() {
            self.set_reg(Reg::ARGS[i], a);
        }
        self.set_reg(Reg::Rsp, STACK_TOP - 64);
        self.push(RETURN_SENTINEL, &mut crate::NullSink);
        self.rip = addr;
        let r = self.run(sink, max_steps)?;
        debug_assert!(matches!(r.exit, Exit::Returned | Exit::MaxSteps));
        Ok(self.reg(Reg::Rax))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, NullSink};
    use bolt_isa::{encode_at, Label};

    /// Assembles instructions at `base`, resolving label `n` to the start
    /// of instruction `n`.
    fn asm(insts: &[Inst], base: u64) -> Vec<u8> {
        // Two passes: compute addresses, then encode with resolution.
        let mut addrs = Vec::with_capacity(insts.len());
        let mut pos = base;
        for i in insts {
            addrs.push(pos);
            pos += bolt_isa::encoded_len(i) as u64;
        }
        let mut out = Vec::new();
        for (i, inst) in insts.iter().enumerate() {
            let mut inst = *inst;
            if let Some(Target::Label(Label(n))) = inst.target() {
                inst.set_target(Target::Addr(addrs[n as usize]));
            }
            out.extend(encode_at(&inst, addrs[i]).unwrap().bytes);
        }
        out
    }

    /// A machine with `insts` loaded as the `.text` section at 0x400000.
    fn machine_with(insts: &[Inst]) -> Machine {
        let mut elf = bolt_elf::Elf::new(0x400000);
        elf.sections.push(bolt_elf::Section::code(
            ".text",
            0x400000,
            asm(insts, 0x400000),
        ));
        let mut m = Machine::new();
        m.load_elf(&elf);
        m
    }

    #[test]
    fn arithmetic_and_flags() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 5,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 7,
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: Reg::Rcx,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 12,
            },
        ];
        let mut m = machine_with(&insts);
        for _ in 0..4 {
            m.step(&mut NullSink).unwrap();
        }
        assert_eq!(m.reg(Reg::Rax), 12);
        assert!(m.flags.zf, "12 - 12 sets ZF");
        assert!(m.flags.cond(Cond::E));
        assert!(!m.flags.cond(Cond::L));
        assert!(m.flags.cond(Cond::Ge));
    }

    #[test]
    fn signed_comparison_conditions() {
        let mut m = machine_with(&[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: -3,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 2,
            },
        ]);
        m.step(&mut NullSink).unwrap();
        m.step(&mut NullSink).unwrap();
        assert!(m.flags.cond(Cond::L), "-3 < 2 signed");
        assert!(!m.flags.cond(Cond::B), "-3 is huge unsigned");
        assert!(m.flags.cond(Cond::Ne));
    }

    #[test]
    fn setcc_and_movzx() {
        let mut m = machine_with(&[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 10,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 3,
            },
            Inst::Setcc {
                cond: Cond::G,
                dst: Reg::Rdx,
            },
            Inst::Movzx8 {
                dst: Reg::Rdx,
                src: Reg::Rdx,
            },
        ]);
        m.set_reg(Reg::Rdx, 0xFFFF_FFFF_FFFF_FF00);
        for _ in 0..4 {
            m.step(&mut NullSink).unwrap();
        }
        assert_eq!(m.reg(Reg::Rdx), 1);
    }

    #[test]
    fn branch_events_and_control_flow() {
        // 0: mov rax, 1
        // 1: test rax, rax
        // 2: jne L4 (taken)
        // 3: ud2 (skipped)
        // 4: ret -> sentinel
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Test {
                a: Reg::Rax,
                b: Reg::Rax,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(Label(4)),
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::Ud2,
            Inst::Ret,
        ];
        let mut m = machine_with(&insts);
        m.push(RETURN_SENTINEL, &mut NullSink);
        let mut sink = CountingSink::default();
        let r = m.run(&mut sink, 100).unwrap();
        assert_eq!(r.exit, Exit::Returned);
        assert_eq!(sink.taken_cond_branches, 1);
        assert_eq!(sink.returns, 1);
        assert_eq!(r.steps, 4);
    }

    #[test]
    fn call_and_stack_discipline() {
        // main: call f; ret
        // f: mov rax, 42; ret
        let insts = [
            Inst::Call {
                target: Target::Label(Label(2)),
            },
            Inst::Ret,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 42,
            },
            Inst::Ret,
        ];
        let mut m = machine_with(&insts);
        let rax = m.call_function(0x400000, &[], &mut NullSink, 100).unwrap();
        assert_eq!(rax, 42);
    }

    #[test]
    fn memory_and_jump_table_dispatch() {
        // Jump table with 2 entries in "rodata" at 0x500000.
        // mov rax, 1 (index)
        // movabs r10, 0x500000
        // mov r11, [r10 + rax*8]
        // jmp r11
        // L4: mov rax, 111; ret   (entry 0)
        // L6: mov rax, 222; ret   (entry 1)
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::R10,
                imm: 0x500000,
            },
            Inst::Load {
                dst: Reg::R11,
                mem: Mem::BaseIndexScale {
                    base: Reg::R10,
                    index: Reg::Rax,
                    scale: 8,
                    disp: 0,
                },
            },
            Inst::JmpInd {
                rm: Rm::Reg(Reg::R11),
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 111,
            },
            Inst::Ret,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 222,
            },
            Inst::Ret,
        ];
        let mut m = machine_with(&insts);
        // Compute addresses of insts 4 and 6 the same way `asm` does.
        let mut addrs = vec![0x400000u64];
        for i in &insts {
            let last = *addrs.last().unwrap();
            addrs.push(last + bolt_isa::encoded_len(i) as u64);
        }
        m.mem.write_u64(0x500000, addrs[4]);
        m.mem.write_u64(0x500008, addrs[6]);
        let mut sink = CountingSink::default();
        let rax = m.call_function(0x400000, &[], &mut sink, 100).unwrap();
        assert_eq!(rax, 222, "index 1 selects the second table entry");
        assert!(sink.mem_reads >= 1);
    }

    #[test]
    fn syscall_emit_and_exit() {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: -99,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: 3,
            },
            Inst::Syscall,
        ];
        let mut m = machine_with(&insts);
        let r = m.run(&mut NullSink, 100).unwrap();
        assert_eq!(r.exit, Exit::Exited(3));
        assert_eq!(m.output, vec![-99]);
    }

    /// An ELF whose entry emits `mark` and then exits with `mark`.
    fn emitting_elf(mark: i64) -> bolt_elf::Elf {
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: mark,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ];
        let code = asm(&insts, 0x400000);
        let mut elf = bolt_elf::Elf::new(0x400000);
        elf.sections
            .push(bolt_elf::Section::code(".text", 0x400000, code));
        elf
    }

    #[test]
    fn load_elf_fully_resets_machine_state() {
        // First program: dirties regs, flags, memory, and output.
        let mut m = Machine::new();
        m.load_elf(&emitting_elf(11));
        m.set_reg(Reg::R9, 0xDEAD);
        m.mem.write_u64(0x700000, 0xDEAD_BEEF);
        let r = m.run(&mut NullSink, 100).unwrap();
        assert_eq!(r.exit, Exit::Exited(11));
        assert_eq!(m.output, vec![11]);

        // Reloading must not leak any of that into the second run.
        m.load_elf(&emitting_elf(22));
        assert_eq!(m.reg(Reg::R9), 0, "stale registers cleared");
        assert_eq!(m.flags, Flags::default(), "stale flags cleared");
        assert_eq!(m.mem.read_u64(0x700000), 0, "stale memory pages cleared");
        assert!(m.output.is_empty(), "stale output cleared");
        let r = m.run(&mut NullSink, 100).unwrap();
        assert_eq!(r.exit, Exit::Exited(22));
        assert_eq!(m.output, vec![22], "only the second program's output");

        // A reused machine matches a fresh one observably.
        let mut fresh = Machine::new();
        fresh.load_elf(&emitting_elf(22));
        fresh.run(&mut NullSink, 100).unwrap();
        assert_eq!(m.output, fresh.output);
        assert_eq!(m.regs, fresh.regs);
    }

    #[test]
    fn flat_icache_covers_loaded_text() {
        let mut elf = emitting_elf(5);
        elf.sections.push(bolt_elf::Section::code(
            ".text.bolt",
            0x1000000,
            vec![0xC3; 32],
        ));
        elf.sections
            .push(bolt_elf::Section::data(".data", 0x5000000, vec![0; 64]));
        let mut m = Machine::new();
        m.load_elf(&elf);
        let text_len = elf.sections[0].data.len() as u64;
        assert_eq!(
            m.icache_index.regions(),
            [0x400000..0x400000 + text_len, 0x1000000..0x1000020],
            "one region per executable section, none for data"
        );
        // Pinned to the step engine: this test asserts the *decode*
        // cache's internals (the translation engines never consult it).
        let r = m.run_engine(&mut NullSink, 100, Engine::Step).unwrap();
        assert_eq!(r.exit, Exit::Exited(5));
        assert_eq!(
            m.icache_entries.len(),
            5,
            "one packed entry per decoded instruction start"
        );
        assert_eq!(m.text_index_bytes(), 4 * (text_len as usize + 32));
    }

    /// Runs `elf` under one engine on a fresh machine — with an optional
    /// injected translation fault armed for the `nth` translated block —
    /// returning every observable: exit, steps, output, final registers,
    /// and the counted trace events.
    fn observe(
        elf: &bolt_elf::Elf,
        engine: Engine,
        fault: Option<(u64, InjectedFault)>,
        max_steps: u64,
    ) -> (RunResult, Machine, CountingSink) {
        let mut m = Machine::new();
        m.load_elf(elf);
        if let Some((nth, kind)) = fault {
            m.inject_translation_fault(nth, kind);
        }
        let mut sink = CountingSink::default();
        let r = m.run_engine(&mut sink, max_steps, engine).unwrap();
        (r, m, sink)
    }

    #[test]
    fn block_engines_match_step_engine_observably() {
        let elf = emitting_elf(42);
        let (rs, ms, ss) = observe(&elf, Engine::Step, None, u64::MAX);
        for engine in [Engine::Superblock, Engine::Uop] {
            let (rb, mb, sb) = observe(&elf, engine, None, u64::MAX);
            assert_eq!(rs, rb, "{engine}: exit and retired count identical");
            assert_eq!(ms.output, mb.output, "{engine}");
            assert_eq!(ms.regs, mb.regs, "{engine}");
            assert_eq!(ms.flags, mb.flags, "{engine}");
            assert_eq!(
                format!("{ss:?}"),
                format!("{sb:?}"),
                "{engine}: every counted trace event identical"
            );
        }
    }

    /// Satellite regression: `Exit::MaxSteps` must trigger at exactly
    /// the same retired-instruction count under every engine, including
    /// budgets landing in the middle of a translated block.
    #[test]
    fn max_steps_boundary_identical_across_engines() {
        let elf = emitting_elf(7); // 5 instructions, one straight block
        for budget in 1..=5u64 {
            let (rs, ms, ss) = observe(&elf, Engine::Step, None, budget);
            for engine in [Engine::Superblock, Engine::Uop] {
                let (rb, mb, sb) = observe(&elf, engine, None, budget);
                assert_eq!(rs, rb, "{engine} budget {budget}: exit/steps");
                assert_eq!(rs.steps, budget.min(5), "budget {budget}");
                assert_eq!(ms.rip, mb.rip, "{engine} budget {budget}: same rip");
                assert_eq!(ms.output, mb.output, "{engine} budget {budget}");
                assert_eq!(ss.insts, sb.insts, "{engine} budget {budget}");
            }
        }
    }

    /// A two-section image laid out like BOLT's output: `.text` at
    /// 0x400000 calls the hot copy in `.text.bolt` at 0x1000000, which
    /// calls back into `.text`. Between the two calls the program
    /// patches the hot copy's immediate with bytes from `.data`: output
    /// `[6, 10]` shows the store into the second region dropped the
    /// decode cache (step) and the block cache (superblock, uop).
    fn bolt_like_elf() -> bolt_elf::Elf {
        let (low, high, data) = (0x400000u64, 0x1000000u64, 0x5000000u64);
        let hot = |mark: i64| {
            asm(
                &[
                    Inst::MovRI {
                        dst: Reg::Rdi,
                        imm: mark,
                    },
                    Inst::Call {
                        target: Target::Addr(low),
                    },
                    Inst::Ret,
                ],
                high,
            )
        };
        let emit = Inst::MovRI {
            dst: Reg::Rax,
            imm: 1,
        };
        let cold = [
            // helper: rdi += 1; ret
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rdi,
                imm: 1,
            },
            Inst::Ret,
            // entry (label 2)
            Inst::Call {
                target: Target::Addr(high),
            },
            emit,
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::R10,
                imm: data as i64,
            },
            Inst::Load {
                dst: Reg::R11,
                mem: Mem::base(Reg::R10, 0),
            },
            Inst::MovRI {
                dst: Reg::R10,
                imm: high as i64 + 3,
            },
            Inst::Store {
                mem: Mem::base(Reg::R10, 0),
                src: Reg::R11,
            },
            Inst::Call {
                target: Target::Addr(high),
            },
            emit,
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ];
        let mut elf = bolt_elf::Elf::new(low + asm(&cold[..2], low).len() as u64);
        elf.sections
            .push(bolt_elf::Section::code(".text", low, asm(&cold, low)));
        elf.sections
            .push(bolt_elf::Section::code(".text.bolt", high, hot(5)));
        // The eight bytes from the immediate on, as they read with 9.
        elf.sections.push(bolt_elf::Section::data(
            ".data",
            data,
            hot(9)[3..11].to_vec(),
        ));
        elf
    }

    #[test]
    fn bolt_like_regions_run_identically_under_all_engines() {
        let elf = bolt_like_elf();
        let (rs, ms, ss) = observe(&elf, Engine::Step, None, u64::MAX);
        assert_eq!(rs.exit, Exit::Exited(10));
        assert_eq!(ms.output, [6, 10], "the patched immediate is seen");
        for engine in [Engine::Superblock, Engine::Uop] {
            let (rb, mb, sb) = observe(&elf, engine, None, u64::MAX);
            assert_eq!(rs, rb, "{engine}");
            assert_eq!(ms.output, mb.output, "{engine}");
            assert_eq!(ms.regs, mb.regs, "{engine}");
            assert_eq!(format!("{ss:?}"), format!("{sb:?}"), "{engine}");
        }
    }

    /// A jump to mapped bytes that would decode, outside every
    /// executable section, fails alike under every engine.
    #[test]
    fn jump_into_data_is_not_executable() {
        for engine in [Engine::Step, Engine::Superblock, Engine::Uop] {
            let mut m = machine_with(&[Inst::JmpInd {
                rm: Rm::Reg(Reg::Rax),
            }]);
            m.mem.write(0x5000000, &[0xC3; 16]);
            m.set_reg(Reg::Rax, 0x5000000);
            assert_eq!(
                m.run_engine(&mut NullSink, 100, engine),
                Err(EmuError::NotExecutable { rip: 0x5000000 }),
                "{engine}"
            );
        }
    }

    /// One sink-visible event.
    #[derive(Debug, PartialEq)]
    enum E {
        I(u64, u8),
        M(u64, u8, bool),
        B(u64, u64, bool),
    }

    /// Every event a run emits, in order.
    #[derive(Default)]
    struct Log(Vec<E>);

    impl TraceSink for Log {
        // No `on_block` override: the default replay must linearize
        // batched events into the exact step sequence.
        fn on_inst(&mut self, addr: u64, len: u8) {
            self.0.push(E::I(addr, len));
        }
        fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
            self.0.push(E::M(addr, len, write));
        }
        fn on_branch(&mut self, ev: BranchEvent) {
            self.0.push(E::B(ev.from, ev.to, ev.taken));
        }
    }

    /// The full sink-visible event sequence — fetches, memory accesses,
    /// and branches, in order — must be identical across all three
    /// engines on a program interleaving ALU work, loads, stores,
    /// pushes/pops, calls, and returns. This is the superblock engine's
    /// core ordering obligation: its batched events carry interleaved
    /// fetch + memory records that replay in exactly the step order.
    #[test]
    fn event_order_identical_across_engines() {
        // main: interleaved mem + alu, a call (callee loads/stores),
        // a loop, then emit + exit.
        let insts = [
            Inst::MovRI {
                dst: Reg::R10,
                imm: 0x500000,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 5,
            },
            Inst::Store {
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
                src: Reg::Rax,
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Load {
                dst: Reg::Rcx,
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
            },
            Inst::Push(Reg::Rcx),
            Inst::Pop(Reg::Rdx),
            Inst::Call {
                target: Target::Label(Label(12)),
            },
            // loop: rax -= 1; jne loop-head (two iterations)
            Inst::AluI {
                op: AluOp::Sub,
                dst: Reg::Rax,
                imm: 3,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(Label(8)),
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
            // callee: load, alu, store, ret
            Inst::Load {
                dst: Reg::R11,
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 0,
                },
            },
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::R11,
                imm: 7,
            },
            Inst::Store {
                mem: Mem::BaseDisp {
                    base: Reg::R10,
                    disp: 8,
                },
                src: Reg::R11,
            },
            Inst::Ret,
        ];
        let run = |engine: Engine| {
            let mut m = machine_with(&insts);
            let mut log = Log::default();
            let r = m.run_engine(&mut log, 1000, engine).unwrap();
            (r, m.output.clone(), log.0)
        };
        let (rs, out_s, log_s) = run(Engine::Step);
        assert!(log_s.iter().any(|e| matches!(e, E::M(..))), "mems present");
        for engine in [Engine::Superblock, Engine::Uop] {
            let (r, out, log) = run(engine);
            assert_eq!(rs, r, "{engine}");
            assert_eq!(out_s, out, "{engine}");
            assert_eq!(log_s, log, "{engine}: exact event sequence");
        }
    }

    /// `n` straight-line instructions cycling through load, add, store,
    /// push and pop over a 64-byte data area at `r10`.
    fn memory_run(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                let slot = Mem::base(Reg::R10, (i % 8) as i32 * 8);
                match i % 5 {
                    0 => Inst::Load {
                        dst: Reg::Rdx,
                        mem: slot,
                    },
                    1 => Inst::AluI {
                        op: AluOp::Add,
                        dst: Reg::Rdx,
                        imm: i as i32,
                    },
                    2 => Inst::Store {
                        mem: slot,
                        src: Reg::Rdx,
                    },
                    3 => Inst::Push(Reg::Rdx),
                    _ => Inst::Pop(Reg::Rcx),
                }
            })
            .collect()
    }

    /// A block's last entry is a straight-line op, not a control
    /// transfer, in exactly three cases: the block is full, it reached
    /// its region's end, or the bytes after it do not decode. Each
    /// case runs identically under every engine — same event log,
    /// registers, `rip` and result or error — and the translation
    /// engines really do cut the block there.
    #[test]
    fn blocks_ending_in_a_straight_line_op_match_step_engine() {
        let base = 0x400000u64;
        let mut insts = vec![Inst::MovRI {
            dst: Reg::R10,
            imm: 0x600000,
        }];
        insts.extend(memory_run(126));
        insts.extend([
            Inst::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rdx,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ]);
        assert_eq!(insts.len(), 130);
        let code = asm(&insts, base);
        let offset_of = |n: usize| -> usize {
            insts[..n]
                .iter()
                .map(|i| bolt_isa::encoded_len(i) as usize)
                .sum()
        };
        let elf_of = |sections: Vec<bolt_elf::Section>| {
            let mut elf = bolt_elf::Elf::new(base);
            elf.sections.extend(sections);
            elf
        };
        // Two full 64-entry blocks, then the exit's two instructions.
        let full = elf_of(vec![bolt_elf::Section::code(".text", base, code.clone())]);
        // The text section ends after instruction 100; the rest of the
        // run lies in a non-executable section right behind it, so the
        // run falls off the region's end.
        let split = offset_of(100);
        let straddling = elf_of(vec![
            bolt_elf::Section::code(".text", base, code[..split].to_vec()),
            bolt_elf::Section::data(".tail", base + split as u64, code[split..].to_vec()),
        ]);
        // Sixty-one instructions run into zero bytes.
        let end = offset_of(61);
        let mut truncated = code[..end].to_vec();
        truncated.extend([0; 16]);
        let undecodable = elf_of(vec![bolt_elf::Section::code(".text", base, truncated)]);

        let bad = EmuError::BadInstruction {
            rip: base + end as u64,
        };
        let off_end = EmuError::NotExecutable {
            rip: base + split as u64,
        };
        // (what, image, retired steps or error, (first instruction,
        // length) of the blocks the translation engines must cut).
        let cases = [
            ("full", full, Ok(130), vec![(0, 64), (64, 64), (128, 2)]),
            (
                "region end",
                straddling,
                Err(off_end),
                vec![(0, 64), (64, 36)],
            ),
            ("undecodable", undecodable, Err(bad), vec![(0, 61)]),
        ];
        for (what, elf, expect, blocks) in cases {
            let run = |engine: Engine| {
                let mut m = Machine::new();
                m.load_elf(&elf);
                let mut log = Log::default();
                let r = m.run_engine(&mut log, 10_000, engine);
                (r, m, log.0)
            };
            let (rs, ms, log_s) = run(Engine::Step);
            assert_eq!(rs.clone().map(|r| r.steps), expect, "{what}");
            for engine in [Engine::Superblock, Engine::Uop] {
                let (r, mut m, log) = run(engine);
                assert_eq!(rs, r, "{what}/{engine}: result");
                assert_eq!(ms.regs, m.regs, "{what}/{engine}: registers");
                assert_eq!(ms.rip, m.rip, "{what}/{engine}: rip");
                assert_eq!(log_s, log, "{what}/{engine}: exact event sequence");
                for &(first, len) in &blocks {
                    let rip = base + offset_of(first) as u64;
                    let idx = m.blocks.lookup(rip).expect("block translated");
                    assert_eq!(
                        m.blocks.block_info(idx).0.len(),
                        len,
                        "{what}/{engine}: block at instruction {first}"
                    );
                }
            }
        }
    }

    /// Chaining: after a superblock loop warms up, block transitions
    /// resolve through the terminator's cached links without consulting
    /// the entry index — and the run stays observationally identical.
    #[test]
    fn superblock_chaining_resolves_loop_transitions() {
        let mut m = Machine::new();
        m.load_elf(&emitting_elf(3));
        let r = m.run_engine(&mut NullSink, u64::MAX, Engine::Superblock);
        assert_eq!(r.unwrap().exit, Exit::Exited(3));
        // The single straight-line block chains nothing (it exits), but
        // a looping program installs and follows links.
        let insts = [
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 0,
            },
            // loop head (own block: jcc target)
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rax,
                imm: 4,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(Label(1)),
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::Ret,
        ];
        let mut m = machine_with(&insts);
        m.push(RETURN_SENTINEL, &mut NullSink);
        let mut sink = CountingSink::default();
        let r = m.run_engine(&mut sink, 1000, Engine::Superblock).unwrap();
        assert_eq!(r.exit, Exit::Returned);
        assert_eq!(m.reg(Reg::Rax), 4);
        // The loop block (head..jcc) links both arms: back to the head
        // and forward to the ret block.
        let len = |i: &Inst| bolt_isa::encoded_len(i) as u64;
        let head_rip = 0x400000 + len(&insts[0]);
        let fall_rip = head_rip + len(&insts[1]) + len(&insts[2]) + len(&insts[3]);
        let head = m.blocks.lookup(head_rip).expect("head translated");
        assert!(
            m.blocks.lookup(fall_rip).is_some(),
            "fall-through block translated"
        );
        assert_eq!(
            m.blocks.linked(head, head_rip),
            Some(head),
            "taken arm chained back to the head"
        );
        assert!(
            m.blocks.linked(head, fall_rip).is_some(),
            "fall-through arm chained too"
        );
    }

    #[test]
    fn traps_and_bad_code() {
        let mut m = machine_with(&[Inst::Ud2]);
        assert_eq!(m.step(&mut NullSink), Err(EmuError::Trap { rip: 0x400000 }));
        let mut m = Machine::new();
        m.rip = 0x999000;
        assert_eq!(
            m.step(&mut NullSink),
            Err(EmuError::NotExecutable { rip: 0x999000 }),
            "no executable section maps the rip"
        );
    }

    #[test]
    fn shifts() {
        let mut m = machine_with(&[
            Inst::MovRI {
                dst: Reg::Rax,
                imm: -16,
            },
            Inst::Shift {
                op: ShiftOp::Sar,
                dst: Reg::Rax,
                amount: 2,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 3,
            },
            Inst::Shift {
                op: ShiftOp::Shl,
                dst: Reg::Rcx,
                amount: 4,
            },
        ]);
        for _ in 0..4 {
            m.step(&mut NullSink).unwrap();
        }
        assert_eq!(m.reg(Reg::Rax) as i64, -4);
        assert_eq!(m.reg(Reg::Rcx), 48);
    }

    /// An ELF mixing ALU work, a store/load pair (exercising the
    /// captured-event path), a conditional branch, and output syscalls —
    /// rich enough that a degraded block changes real behavior if the
    /// fallback is wrong.
    fn tiered_elf() -> bolt_elf::Elf {
        let insts = [
            Inst::MovRI {
                dst: Reg::R10,
                imm: 0x600000,
            },
            Inst::MovRI {
                dst: Reg::Rcx,
                imm: 5,
            },
            Inst::Store {
                mem: Mem::base(Reg::R10, 0),
                src: Reg::Rcx,
            },
            Inst::Load {
                dst: Reg::Rdi,
                mem: Mem::base(Reg::R10, 0),
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rdi,
                imm: 5,
            },
            Inst::Jcc {
                cond: Cond::E,
                target: Target::Label(Label(7)),
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::Ud2,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ];
        let code = asm(&insts, 0x400000);
        let mut elf = bolt_elf::Elf::new(0x400000);
        elf.sections
            .push(bolt_elf::Section::code(".text", 0x400000, code));
        elf
    }

    /// A healthy image degrades nothing: every translated block runs at
    /// full tier under every translation engine.
    #[test]
    fn clean_run_translates_every_block_at_full_tier() {
        let elf = tiered_elf();
        for engine in [Engine::Superblock, Engine::Uop] {
            let (_, m, _) = observe(&elf, engine, None, u64::MAX);
            let t = m.tier_counts();
            assert!(t.full > 0, "{engine}: blocks were translated");
            assert_eq!(t.degraded(), 0, "{engine}: nothing degraded");
        }
    }

    /// An injected uop-structural fault degrades exactly that block to
    /// the decoded tier, with every observable identical to the step
    /// engine — translation failure must never abort a run.
    #[test]
    fn injected_uop_fault_degrades_to_decoded_tier_identically() {
        let elf = tiered_elf();
        let (rs, ms, ss) = observe(&elf, Engine::Step, None, u64::MAX);
        for nth in 0..2u64 {
            let (rb, mb, sb) = observe(
                &elf,
                Engine::Uop,
                Some((nth, InjectedFault::UopInvalid)),
                u64::MAX,
            );
            let t = mb.tier_counts();
            assert_eq!(t.decoded, 1, "block {nth} fell back to decoded");
            assert_eq!(t.step, 0);
            assert!(t.full > 0, "siblings stayed at full tier");
            assert_eq!(rs, rb, "block {nth}: exit and retired count");
            assert_eq!(ms.output, mb.output, "block {nth}");
            assert_eq!(ms.regs, mb.regs, "block {nth}");
            assert_eq!(ms.flags, mb.flags, "block {nth}");
            assert_eq!(format!("{ss:?}"), format!("{sb:?}"), "block {nth}: events");
        }
    }

    /// An injected semantic-validation fault degrades exactly that
    /// block to the step tier under every translation engine, again with
    /// observables identical to pure stepping.
    #[test]
    fn injected_sem_fault_degrades_to_step_tier_identically() {
        let elf = tiered_elf();
        let (rs, ms, ss) = observe(&elf, Engine::Step, None, u64::MAX);
        for engine in [Engine::Superblock, Engine::Uop] {
            for nth in 0..2u64 {
                let (rb, mb, sb) = observe(
                    &elf,
                    engine,
                    Some((nth, InjectedFault::SemInvalid)),
                    u64::MAX,
                );
                let t = mb.tier_counts();
                assert_eq!(t.step, 1, "{engine} block {nth}: fell back to step");
                assert_eq!(t.decoded, 0, "{engine} block {nth}");
                assert!(t.full > 0, "{engine} block {nth}: siblings full");
                assert_eq!(rs, rb, "{engine} block {nth}: exit/steps");
                assert_eq!(ms.output, mb.output, "{engine} block {nth}");
                assert_eq!(ms.regs, mb.regs, "{engine} block {nth}");
                assert_eq!(ms.flags, mb.flags, "{engine} block {nth}");
                assert_eq!(
                    format!("{ss:?}"),
                    format!("{sb:?}"),
                    "{engine} block {nth}: events"
                );
            }
        }
    }

    /// Tier counters are cumulative across cache rebuilds: an
    /// [`ensure_span`](BlockCache::ensure_span) mode switch clears the
    /// pools but neither the counters nor an armed fault.
    #[test]
    fn tier_counts_survive_cache_rebuilds() {
        let elf = tiered_elf();
        let mut m = Machine::new();
        m.load_elf(&elf);
        m.inject_translation_fault(0, InjectedFault::SemInvalid);
        m.run_engine(&mut NullSink, u64::MAX, Engine::Superblock)
            .unwrap();
        let after_first = m.tier_counts();
        assert_eq!(
            after_first.step, 1,
            "armed fault survived load_elf's span setup"
        );
        // Re-running under a different mode rebuilds the pools; the
        // counters keep accumulating on top of the first run's.
        m.rip = 0x400000;
        m.set_reg(Reg::Rsp, STACK_TOP - 64);
        m.run_engine(&mut NullSink, u64::MAX, Engine::Uop).unwrap();
        let after_second = m.tier_counts();
        assert_eq!(after_second.step, after_first.step);
        assert!(after_second.full > after_first.full);
    }

    /// A loop whose body stores and reloads through memory, runs four
    /// iterations, emits the counter and exits. With `smc` the body also
    /// rewrites eight bytes of its own text with the bytes already
    /// there: semantically a no-op, but every iteration abandons the
    /// executing block at the store and retranslates.
    fn loop_elf(smc: bool) -> bolt_elf::Elf {
        let base = 0x400000u64;
        let insts = [
            Inst::MovRI {
                dst: Reg::R10,
                imm: if smc { base as i64 } else { 0x600000 },
            },
            Inst::MovRI {
                dst: Reg::Rdi,
                imm: 0,
            },
            // loop head (label 2)
            Inst::AluI {
                op: AluOp::Add,
                dst: Reg::Rdi,
                imm: 1,
            },
            Inst::Load {
                dst: Reg::R11,
                mem: Mem::base(Reg::R10, 0),
            },
            Inst::Store {
                mem: Mem::base(Reg::R10, 0),
                src: Reg::R11,
            },
            Inst::AluI {
                op: AluOp::Cmp,
                dst: Reg::Rdi,
                imm: 4,
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: Target::Label(Label(2)),
                width: bolt_isa::JumpWidth::Near,
            },
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 1,
            },
            Inst::Syscall,
            Inst::MovRI {
                dst: Reg::Rax,
                imm: 60,
            },
            Inst::Syscall,
        ];
        let mut elf = bolt_elf::Elf::new(base);
        elf.sections
            .push(bolt_elf::Section::code(".text", base, asm(&insts, base)));
        elf
    }

    /// The paths the three retired driver copies could silently disagree
    /// on: every step budget — including ones landing inside a degraded
    /// block — under every injected fault, on a branchy program, a
    /// chained loop, and a loop that abandons its own block each
    /// iteration (so `prev` is exercised after degraded and
    /// SMC-abandoned blocks alike). Every observable must equal the
    /// step engine's.
    #[test]
    fn budget_tier_sweep_matches_step_engine() {
        for (what, elf) in [
            ("tiered", tiered_elf()),
            ("loop", loop_elf(false)),
            ("smc-loop", loop_elf(true)),
        ] {
            let total = observe(&elf, Engine::Step, None, u64::MAX).0.steps;
            let faults = [None]
                .into_iter()
                .chain((0..4).flat_map(|nth| {
                    [InjectedFault::UopInvalid, InjectedFault::SemInvalid]
                        .map(|kind| Some((nth, kind)))
                }))
                .collect::<Vec<_>>();
            for budget in 1..=total {
                let (rs, ms, ss) = observe(&elf, Engine::Step, None, budget);
                for engine in [Engine::Superblock, Engine::Uop] {
                    for &fault in &faults {
                        let (rb, mb, sb) = observe(&elf, engine, fault, budget);
                        let ctx = format!("{what}/{engine} budget {budget} fault {fault:?}");
                        assert_eq!(rs, rb, "{ctx}: exit and retired count");
                        assert_eq!(ms.rip, mb.rip, "{ctx}: rip");
                        assert_eq!(ms.regs, mb.regs, "{ctx}: regs");
                        assert_eq!(ms.flags, mb.flags, "{ctx}: flags");
                        assert_eq!(ms.output, mb.output, "{ctx}: output");
                        assert_eq!(format!("{ss:?}"), format!("{sb:?}"), "{ctx}: events");
                    }
                }
            }
        }
    }
}
