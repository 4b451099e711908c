//! # bolt-compiler — the compiler substrate
//!
//! A miniature optimizing compiler and linker: MIR programs (built by the
//! workload generators) are lowered to the x86-64 subset and linked into
//! ELF executables that the emulator can run and BOLT can rewrite. It
//! supports the build configurations the paper's evaluation compares
//! (section 6.2): plain `-O2`, PGO (AutoFDO-style source-level profiles),
//! LTO (cross-module inlining), PLT indirection, alignment NOPs, and
//! `repz ret` emission. It writes no relocation section: the rewriter
//! works without one, so nothing would read it.

pub mod builder;
pub mod codegen;
pub mod inline;
pub mod link;
pub mod mir;
pub mod options;
pub mod pgo;

pub use builder::FunctionBuilder;
pub use codegen::{codegen_function, GenFunction, JumpTableReq, Labels, RT_EMIT, RT_EXIT};
pub use link::{compile_and_link, compile_and_link_phases, CompileError, CompiledBinary};
pub use mir::{
    BinOp, Callee, CmpOp, Global, Interp, InterpError, LocalId, MirBlock, MirBlockId, MirFunction,
    MirProgram, Operand, Rvalue, ShiftKind, Stmt, Terminator,
};
pub use options::CompileOptions;
pub use pgo::{pgo_layout, SourceProfile};
