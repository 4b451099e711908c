//! Trace events: the emulator's substitute for hardware performance
//! monitoring (retired instructions, LBR-visible branches, memory
//! accesses).

/// The kind of a control-transfer event. Matches what Intel LBRs can record
/// (paper section 5.1): taken branches, including calls and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Cond,
    /// Unconditional direct branch.
    Uncond,
    /// Indirect jump (jump table dispatch, PLT stub).
    IndirectJump,
    /// Direct call.
    Call,
    /// Indirect call.
    IndirectCall,
    /// Return.
    Return,
}

impl BranchKind {
    /// Whether this kind is a call or return (used when building call
    /// graphs from LBRs, paper section 5.3).
    pub fn is_call_or_return(self) -> bool {
        matches!(
            self,
            BranchKind::Call | BranchKind::IndirectCall | BranchKind::Return
        )
    }
}

/// One control-transfer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Address of the branch instruction.
    pub from: u64,
    /// Destination address (the fall-through address when not taken).
    pub to: u64,
    /// Whether the branch was taken. Only `Cond` branches can be
    /// not-taken; LBR hardware records taken branches only.
    pub taken: bool,
    pub kind: BranchKind,
}

/// One data-memory access made by an instruction inside a batched
/// block event, with its effective address resolved at execute time.
///
/// The superblock and uop engines record these while the block
/// executes (the static shape — which instruction accesses memory,
/// read or write — is known at translation time; only the address is
/// dynamic) and deliver them interleaved with the fetch records so
/// sinks observe exactly the step engine's event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRecord {
    /// Index into [`BlockEvent::fetches`] of the accessing instruction.
    pub inst: u32,
    /// Resolved effective address.
    pub addr: u64,
    /// Access width in bytes.
    pub len: u8,
    /// `true` for stores, `false` for loads.
    pub write: bool,
}

/// A batched retirement event: `inst_count` consecutive instructions of
/// a translated basic block, covering the straight-line byte range
/// `[entry, entry + byte_len)`.
///
/// Emitted by the translation engines (`superblock` and `uop`, which
/// share translation and batching). Blocks span memory-touching
/// instructions and the event carries the executed instructions' memory
/// accesses in `mems`, interleaved with the fetches by instruction
/// index; replaying fetch `i` then its memory records reproduces the
/// step engine's order exactly (a block's terminating branch event, if
/// any, is delivered live right after the block event).
#[derive(Debug, Clone, Copy)]
pub struct BlockEvent<'a> {
    /// Address of the block's first instruction.
    pub entry: u64,
    /// Instructions retired by this event.
    pub inst_count: u32,
    /// Total bytes the block's instructions occupy.
    pub byte_len: u32,
    /// Per-instruction `(addr, len)` fetch records in retirement order —
    /// replaying `on_inst` over these (interleaved with `mems`) is
    /// exactly equivalent to this event (the default implementation
    /// does just that). The engines always emit at least one
    /// fetch; sinks treat an empty slice as "nothing retired".
    pub fetches: &'a [(u64, u8)],
    /// The 64-byte-aligned line addresses the block's bytes span,
    /// ascending — the I-side cache footprint, precomputed at
    /// translation time for sinks modeling 64-byte lines.
    pub lines64: &'a [u64],
    /// Number of fetches straddling a 64-byte line boundary (each such
    /// fetch touches two lines).
    pub crossings64: u32,
    /// Data-memory accesses of the block's instructions in program
    /// order, each tagged with the index of its fetch (empty for a
    /// block that touches no memory).
    pub mems: &'a [MemRecord],
}

impl BlockEvent<'_> {
    /// Replays this event as its equivalent per-instruction
    /// [`on_inst`](TraceSink::on_inst) / [`on_mem`](TraceSink::on_mem)
    /// sequence — fetch `i` first, then instruction `i`'s memory
    /// records — the exact-equivalence fallback shared by every sink's
    /// `on_block` slow path (and the trait's default implementation).
    #[inline]
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let mut mi = 0usize;
        for (i, &(addr, len)) in self.fetches.iter().enumerate() {
            sink.on_inst(addr, len);
            while let Some(m) = self.mems.get(mi) {
                if m.inst as usize != i {
                    break;
                }
                sink.on_mem(m.addr, m.len, m.write);
                mi += 1;
            }
        }
    }
}

/// A consumer of the emulator's event stream.
///
/// The microarchitecture simulator, the LBR sampler, and the plain IP
/// sampler all implement this; composite sinks fan events out.
pub trait TraceSink {
    /// An instruction retired at `addr`, occupying `len` bytes.
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        let _ = (addr, len);
    }

    /// A translated basic block retired (block execution engine only).
    /// The default replays [`on_inst`](Self::on_inst) per fetch record,
    /// so a sink that never overrides this behaves identically under
    /// either engine; overriding it lets a sink amortize per-instruction
    /// work across the block.
    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        ev.replay(self);
    }

    /// A control-transfer instruction executed.
    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        let _ = ev;
    }

    /// A data memory access.
    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        let _ = (addr, len, write);
    }
}

/// A sink that discards all events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    /// Discarding a batched event outright (instead of replaying it
    /// into per-instruction no-ops) keeps the translation engines' null-sink
    /// cost at the dispatch itself.
    #[inline]
    fn on_block(&mut self, _ev: BlockEvent<'_>) {}
}

/// Fans events out to two sinks (compose for more). The halves are
/// held by value: `Tee(&mut a, &mut b)` borrows two sinks for one run,
/// `Tee(a, b)` owns them (so one composite per shard can cross a batch's
/// thread boundary), and an `Option` half is skipped while `None`.
pub struct Tee<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        self.0.on_inst(addr, len);
        self.1.on_inst(addr, len);
    }

    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        self.0.on_block(ev);
        self.1.on_block(ev);
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        self.0.on_branch(ev);
        self.1.on_branch(ev);
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        self.0.on_mem(addr, len, write);
        self.1.on_mem(addr, len, write);
    }
}

/// A borrowed sink is a sink: every event forwards to the referent
/// (including `on_block`, so its batched path is kept).
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        (**self).on_inst(addr, len);
    }

    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        (**self).on_block(ev);
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        (**self).on_branch(ev);
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        (**self).on_mem(addr, len, write);
    }
}

/// An optional sink: `None` discards every event.
impl<S: TraceSink> TraceSink for Option<S> {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        if let Some(s) = self {
            s.on_inst(addr, len);
        }
    }

    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        if let Some(s) = self {
            s.on_block(ev);
        }
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        if let Some(s) = self {
            s.on_branch(ev);
        }
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        if let Some(s) = self {
            s.on_mem(addr, len, write);
        }
    }
}

/// A sink that counts events (useful in tests and quick stats).
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub insts: u64,
    pub branches: u64,
    pub taken_branches: u64,
    pub cond_branches: u64,
    pub taken_cond_branches: u64,
    pub calls: u64,
    pub returns: u64,
    pub mem_reads: u64,
    pub mem_writes: u64,
}

impl TraceSink for CountingSink {
    #[inline]
    fn on_inst(&mut self, _addr: u64, _len: u8) {
        self.insts += 1;
    }

    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        self.insts += ev.inst_count as u64;
        for m in ev.mems {
            if m.write {
                self.mem_writes += 1;
            } else {
                self.mem_reads += 1;
            }
        }
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        self.branches += 1;
        if ev.taken {
            self.taken_branches += 1;
        }
        match ev.kind {
            BranchKind::Cond => {
                self.cond_branches += 1;
                if ev.taken {
                    self.taken_cond_branches += 1;
                }
            }
            BranchKind::Call | BranchKind::IndirectCall => self.calls += 1,
            BranchKind::Return => self.returns += 1,
            _ => {}
        }
    }

    #[inline]
    fn on_mem(&mut self, _addr: u64, _len: u8, write: bool) {
        if write {
            self.mem_writes += 1;
        } else {
            self.mem_reads += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies() {
        let mut s = CountingSink::default();
        s.on_inst(0x400000, 1);
        s.on_branch(BranchEvent {
            from: 0x400000,
            to: 0x400010,
            taken: true,
            kind: BranchKind::Cond,
        });
        s.on_branch(BranchEvent {
            from: 0x400002,
            to: 0x400004,
            taken: false,
            kind: BranchKind::Cond,
        });
        s.on_mem(0x500000, 8, true);
        assert_eq!(s.insts, 1);
        assert_eq!(s.branches, 2);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.cond_branches, 2);
        assert_eq!(s.mem_writes, 1);
    }

    #[test]
    fn tee_duplicates() {
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        let mut t = Tee(&mut a, &mut b);
        t.on_inst(0, 1);
        t.on_inst(1, 1);
        assert_eq!(a.insts, 2);
        assert_eq!(b.insts, 2);

        // Owned halves; a `None` half discards.
        let mut owned = Tee(Some(CountingSink::default()), None::<CountingSink>);
        owned.on_inst(0, 1);
        let Tee(Some(kept), None) = owned else {
            panic!("halves keep their shape");
        };
        assert_eq!(kept.insts, 1);
    }

    #[test]
    fn on_block_default_replays_fetches() {
        struct PerInst(Vec<(u64, u8)>);
        impl TraceSink for PerInst {
            fn on_inst(&mut self, addr: u64, len: u8) {
                self.0.push((addr, len));
            }
        }
        let fetches = [(0x400000u64, 4u8), (0x400004, 2)];
        let ev = BlockEvent {
            entry: 0x400000,
            inst_count: 2,
            byte_len: 6,
            fetches: &fetches,
            lines64: &[0x400000],
            crossings64: 0,
            mems: &[],
        };
        let mut s = PerInst(Vec::new());
        s.on_block(ev);
        assert_eq!(s.0, fetches, "default on_block replays on_inst per fetch");
        let mut c = CountingSink::default();
        c.on_block(ev);
        assert_eq!(c.insts, 2, "counting sink batches the whole block");
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        Tee(&mut a, &mut b).on_block(ev);
        assert_eq!((a.insts, b.insts), (2, 2), "tee fans the block out");
    }

    /// The replay fallback interleaves fetch and memory records by
    /// instruction index — the exact step-engine order — and the
    /// counting sink's batched path tallies both.
    #[test]
    fn on_block_interleaves_memory_records() {
        #[derive(Debug, PartialEq)]
        enum E {
            I(u64),
            M(u64, bool),
        }
        struct Log(Vec<E>);
        impl TraceSink for Log {
            fn on_inst(&mut self, addr: u64, _len: u8) {
                self.0.push(E::I(addr));
            }
            fn on_mem(&mut self, addr: u64, _len: u8, write: bool) {
                self.0.push(E::M(addr, write));
            }
        }
        let fetches = [(0x400000u64, 4u8), (0x400004, 3), (0x400007, 1)];
        let mems = [
            MemRecord {
                inst: 1,
                addr: 0x500000,
                len: 8,
                write: false,
            },
            MemRecord {
                inst: 2,
                addr: 0x500008,
                len: 8,
                write: true,
            },
            MemRecord {
                inst: 2,
                addr: 0x500010,
                len: 8,
                write: true,
            },
        ];
        let ev = BlockEvent {
            entry: 0x400000,
            inst_count: 3,
            byte_len: 8,
            fetches: &fetches,
            lines64: &[0x400000],
            crossings64: 0,
            mems: &mems,
        };
        let mut log = Log(Vec::new());
        log.on_block(ev);
        assert_eq!(
            log.0,
            vec![
                E::I(0x400000),
                E::I(0x400004),
                E::M(0x500000, false),
                E::I(0x400007),
                E::M(0x500008, true),
                E::M(0x500010, true),
            ],
            "fetch i precedes its own memory records, follows earlier ones"
        );
        let mut c = CountingSink::default();
        c.on_block(ev);
        assert_eq!((c.insts, c.mem_reads, c.mem_writes), (3, 1, 2));
    }

    #[test]
    fn call_return_classification() {
        assert!(BranchKind::Call.is_call_or_return());
        assert!(BranchKind::Return.is_call_or_return());
        assert!(!BranchKind::Cond.is_call_or_return());
    }
}
