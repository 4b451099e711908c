//! # bolt-ir — the binary intermediate representation
//!
//! The data structures BOLT's rewriting pipeline operates on (paper
//! sections 3.3–3.4): functions reconstructed from a binary
//! ([`BinaryFunction`]), their basic blocks and weighted CFG edges
//! ([`BasicBlock`], [`SuccEdge`]), annotated machine instructions
//! ([`BinaryInst`] — the `MCInst`-with-annotations analogue, carrying
//! original addresses, source lines and landing-pad links), plus:
//!
//! * a dataflow framework ([`dataflow`]) with register liveness and
//!   dominators (paper section 4),
//! * the metadata tables BOLT must rewrite when code moves
//!   ([`LineTable`], [`ExceptionTable`]),
//! * a whole-binary context shared by passes ([`BinaryContext`]),
//! * a CFG pretty-printer in the style of paper Figure 4 ([`mod@print`]).
//!
//! ## Example
//!
//! ```
//! use bolt_ir::{BasicBlock, BinaryFunction, BlockId, SuccEdge};
//! use bolt_isa::{Inst, Reg};
//!
//! let mut f = BinaryFunction::new("hot_loop", 0x400000);
//! let b0 = f.add_block(BasicBlock::new());
//! let b1 = f.add_block(BasicBlock::new());
//! f.block_mut(b0).push(Inst::Push(Reg::Rbp));
//! f.block_mut(b0).succs = vec![SuccEdge::with_count(b1, 100)];
//! f.block_mut(b1).push(Inst::Ret);
//! f.rebuild_preds();
//! assert!(f.validate().is_ok());
//! assert_eq!(f.entry(), BlockId(0));
//! ```

mod block;
mod context;
pub mod dataflow;
pub mod emit;
mod function;
mod inst;
mod meta;
pub mod print;

pub use block::{BasicBlock, BlockId, SuccEdge};
pub use context::BinaryContext;
pub use dataflow::{
    dominators, live_before_each, solve, BlockFacts, CalleeClobbered, DataflowProblem, Direction,
    Liveness, RegSet,
};
pub use emit::{
    emit, emit_units, emit_with_threads, EmitBlock, EmitError, EmitInst, EmitReloc, EmitResult,
    EmitSource, EmitSymbol, EmitUnit, LabelAddrs,
};
pub use function::{edges, BinaryFunction, JumpTable, NonSimpleReason, OptTier};
pub use inst::{BinaryInst, LineInfo};
pub use meta::{ExceptionTable, LineRecords, LineTable, MetaError};
pub use print::{dump_function, DumpOptions};
