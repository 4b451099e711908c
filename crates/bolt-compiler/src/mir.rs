//! The mid-level IR (MIR) of the compiler substrate.
//!
//! Programs are collections of modules; each function belongs to a module
//! (cross-module inlining requires LTO, which is how the reproduction gets
//! the paper's LTO-vs-non-LTO distinction). Every statement carries a
//! source line so profile data can be mapped *back* to source the way
//! AutoFDO does — including the precision loss of paper Figure 2 when a
//! function is inlined into several callers.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// A virtual register / stack slot within a function.
pub type LocalId = u32;

/// A block index within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MirBlockId(pub u32);

impl MirBlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MirBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An operand: a local or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Local(LocalId),
    Const(i64),
}

/// Two-operand arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
}

/// Constant-amount shifts (the ISA subset has no variable shifts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    Shl,
    Shr,
    Sar,
}

/// Signed comparisons producing 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Right-hand sides of assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rvalue {
    Use(Operand),
    BinOp(BinOp, Operand, Operand),
    Shift(ShiftKind, Operand, u8),
    Cmp(CmpOp, Operand, Operand),
    /// Loads the 64-bit word `global[index]`.
    LoadGlobal {
        global: String,
        index: Operand,
    },
    /// The address of a function (for indirect calls).
    FuncAddr(String),
}

/// Call targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    Direct(String),
    /// Indirect through a function pointer value.
    Indirect(Operand),
}

/// A statement. Every statement carries its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    Assign {
        dst: LocalId,
        rv: Rvalue,
        line: u32,
    },
    StoreGlobal {
        global: String,
        index: Operand,
        value: Operand,
        line: u32,
    },
    Call {
        dst: Option<LocalId>,
        callee: Callee,
        args: Vec<Operand>,
        /// Landing-pad block if this call can throw.
        landing_pad: Option<MirBlockId>,
        line: u32,
    },
    /// Writes a value to the program's output stream (lowered to a runtime
    /// call through the PLT).
    Emit {
        value: Operand,
        line: u32,
    },
}

impl Stmt {
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Assign { line, .. }
            | Stmt::StoreGlobal { line, .. }
            | Stmt::Call { line, .. }
            | Stmt::Emit { line, .. } => *line,
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    Goto(MirBlockId),
    /// Two-way branch on a 0/1 operand.
    Branch {
        cond: Operand,
        then_bb: MirBlockId,
        else_bb: MirBlockId,
    },
    /// Multi-way dispatch: `scrut` in `0..targets.len()` selects a target,
    /// anything else goes to `default`. Lowered to a jump table.
    Switch {
        scrut: Operand,
        targets: Vec<MirBlockId>,
        default: MirBlockId,
    },
    Return(Operand),
    Unreachable,
}

impl Terminator {
    /// All successor blocks.
    pub fn successors(&self) -> Vec<MirBlockId> {
        match self {
            Terminator::Goto(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            Terminator::Return(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Remaps successor block ids.
    pub fn remap(&mut self, f: impl Fn(MirBlockId) -> MirBlockId) {
        match self {
            Terminator::Goto(b) => *b = f(*b),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Switch {
                targets, default, ..
            } => {
                for t in targets.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }
}

/// A MIR basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirBlock {
    pub stmts: Vec<Stmt>,
    pub term: Terminator,
    pub term_line: u32,
}

/// A MIR function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirFunction {
    pub name: String,
    /// Owning module: inlining across modules requires LTO.
    pub module: u32,
    /// Source file name (interned into the line table at link time).
    pub file: String,
    /// Number of parameters (occupying locals `0..params`).
    pub params: u32,
    /// Total locals, including parameters.
    pub locals: u32,
    pub blocks: Vec<MirBlock>,
    /// Block emission order (entry first). Reordered by PGO layout.
    pub layout: Vec<MirBlockId>,
    /// Small-function hint (like `inline` in C).
    pub inline_hint: bool,
}

impl MirFunction {
    pub fn block(&self, id: MirBlockId) -> &MirBlock {
        &self.blocks[id.index()]
    }

    pub fn entry(&self) -> MirBlockId {
        self.layout.first().copied().unwrap_or(MirBlockId(0))
    }

    /// Fresh local allocation.
    pub fn new_local(&mut self) -> LocalId {
        let l = self.locals;
        self.locals += 1;
        l
    }

    /// Structural validation against the program's function and global
    /// names (see [`MirProgram::validate`]).
    fn validate(
        &self,
        functions: &HashSet<&str>,
        globals: &HashMap<&str, &Global>,
    ) -> Result<(), String> {
        let err = |m: String| Err(format!("{}: {m}", self.name));
        if self.layout.is_empty() {
            return err("empty layout".into());
        }
        let mut seen = vec![false; self.blocks.len()];
        for id in &self.layout {
            if id.index() >= self.blocks.len() {
                return err(format!("layout references missing block {id}"));
            }
            if seen[id.index()] {
                return err(format!("block {id} appears twice in layout"));
            }
            seen[id.index()] = true;
        }
        let check_op = |op: &Operand| -> Result<(), String> {
            if let Operand::Local(l) = op {
                if *l >= self.locals {
                    return Err(format!("{}: local {l} out of range", self.name));
                }
            }
            Ok(())
        };
        for (bi, b) in self.blocks.iter().enumerate() {
            for s in &b.stmts {
                match s {
                    Stmt::Assign { dst, rv, .. } => {
                        if *dst >= self.locals {
                            return err(format!("local {dst} out of range"));
                        }
                        match rv {
                            Rvalue::Use(a) => check_op(a)?,
                            Rvalue::BinOp(_, a, b) | Rvalue::Cmp(_, a, b) => {
                                check_op(a)?;
                                check_op(b)?;
                            }
                            Rvalue::Shift(_, a, amt) => {
                                check_op(a)?;
                                if *amt >= 64 {
                                    return err(format!("shift amount {amt} out of range"));
                                }
                            }
                            Rvalue::LoadGlobal { global, index } => {
                                check_op(index)?;
                                if !globals.contains_key(global.as_str()) {
                                    return err(format!("unknown global {global}"));
                                }
                            }
                            Rvalue::FuncAddr(f) => {
                                if !functions.contains(f.as_str()) {
                                    return err(format!("address of unknown function {f}"));
                                }
                            }
                        }
                    }
                    Stmt::StoreGlobal {
                        global,
                        index,
                        value,
                        ..
                    } => {
                        check_op(index)?;
                        check_op(value)?;
                        match globals.get(global.as_str()) {
                            None => return err(format!("unknown global {global}")),
                            Some(g) if !g.mutable => {
                                return err(format!("store to read-only global {global}"))
                            }
                            _ => {}
                        }
                    }
                    Stmt::Call {
                        dst,
                        callee,
                        args,
                        landing_pad,
                        ..
                    } => {
                        if let Some(d) = dst {
                            if *d >= self.locals {
                                return err(format!("local {d} out of range"));
                            }
                        }
                        for a in args {
                            check_op(a)?;
                        }
                        if args.len() > 6 {
                            return err("more than six call arguments".into());
                        }
                        if let Callee::Direct(name) = callee {
                            if !functions.contains(name.as_str()) {
                                return err(format!("call to unknown function {name}"));
                            }
                        }
                        if let Callee::Indirect(p) = callee {
                            check_op(p)?;
                        }
                        if let Some(lp) = landing_pad {
                            if lp.index() >= self.blocks.len() {
                                return err(format!("landing pad {lp} out of range"));
                            }
                        }
                    }
                    Stmt::Emit { value, .. } => check_op(value)?,
                }
            }
            for succ in b.term.successors() {
                if succ.index() >= self.blocks.len() {
                    return err(format!("bb{bi} branches to missing block {succ}"));
                }
            }
            if let Terminator::Branch { cond, .. } = &b.term {
                check_op(cond)?;
            }
            if let Terminator::Switch { scrut, .. } = &b.term {
                check_op(scrut)?;
            }
            if let Terminator::Return(v) = &b.term {
                check_op(v)?;
            }
        }
        Ok(())
    }
}

/// A global array of 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    pub name: String,
    pub words: Vec<i64>,
    /// Mutable globals go to `.data`; immutable to `.rodata`.
    pub mutable: bool,
}

/// A whole MIR program.
///
/// Source lines are *globally unique* across the program (each function
/// occupies a disjoint line range of its file); `line_ranges` maps lines
/// back to files so that statements keep correct file attribution even
/// after inlining — the property that makes paper Figure 10's
/// "blocks from three different source files" reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MirProgram {
    pub functions: Vec<MirFunction>,
    pub globals: Vec<Global>,
    /// Name of the entry function (conventionally `main`).
    pub entry: String,
    /// Source file names.
    pub files: Vec<String>,
    /// Sorted `(first_line, file_index)` ranges.
    pub line_ranges: Vec<(u32, u32)>,
    /// Next free global line number.
    next_line: u32,
}

impl MirProgram {
    /// Creates an empty program with the given entry-function name.
    pub fn with_entry(entry: &str) -> MirProgram {
        MirProgram {
            entry: entry.to_string(),
            ..MirProgram::default()
        }
    }

    pub fn function(&self, name: &str) -> Option<&MirFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Interns a file name.
    pub fn intern_file(&mut self, name: &str) -> u32 {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            return i as u32;
        }
        self.files.push(name.to_string());
        (self.files.len() - 1) as u32
    }

    /// The file containing a global line number.
    pub fn file_of_line(&self, line: u32) -> u32 {
        let i = self.line_ranges.partition_point(|r| r.0 <= line);
        if i == 0 {
            0
        } else {
            self.line_ranges[i - 1].1
        }
    }

    /// Adds a function whose lines were assigned locally (starting at 1 by
    /// [`crate::builder::FunctionBuilder`]), rebasing them into the global
    /// line space and recording the line→file range.
    pub fn add_function(&mut self, mut func: MirFunction) {
        let file_id = self.intern_file(&func.file);
        let base = self.next_line;
        let mut max_line = 0u32;
        for b in &mut func.blocks {
            for s in &mut b.stmts {
                let l = match s {
                    Stmt::Assign { line, .. }
                    | Stmt::StoreGlobal { line, .. }
                    | Stmt::Call { line, .. }
                    | Stmt::Emit { line, .. } => line,
                };
                *l += base;
                max_line = max_line.max(*l);
            }
            b.term_line += base;
            max_line = max_line.max(b.term_line);
        }
        self.line_ranges.push((base, file_id));
        self.next_line = max_line.max(base) + 2;
        self.functions.push(func);
    }

    pub fn function_mut(&mut self, name: &str) -> Option<&mut MirFunction> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Validates every function, and that no two functions and no two
    /// globals share a name (the linker, `Labels` and [`Interp`] each bind
    /// a name to one of them).
    pub fn validate(&self) -> Result<(), String> {
        let mut functions = HashSet::with_capacity(self.functions.len());
        for f in &self.functions {
            if !functions.insert(f.name.as_str()) {
                return Err(format!("duplicate function {}", f.name));
            }
        }
        let mut globals = HashMap::with_capacity(self.globals.len());
        for g in &self.globals {
            if globals.insert(g.name.as_str(), g).is_some() {
                return Err(format!("duplicate global {}", g.name));
            }
        }
        if !functions.contains(self.entry.as_str()) {
            return Err(format!("entry function {} not found", self.entry));
        }
        for f in &self.functions {
            f.validate(&functions, &globals)?;
        }
        Ok(())
    }
}

/// Why MIR interpretation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    UnknownFunction(String),
    BadFunctionPointer(i64),
    StackOverflow,
    StepBudgetExhausted,
    UnreachableExecuted {
        function: String,
    },
    /// A global was indexed outside its bounds (generators must produce
    /// in-range indices so machine semantics and MIR semantics agree).
    GlobalIndexOutOfBounds {
        global: String,
        index: i64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            InterpError::BadFunctionPointer(p) => write!(f, "bad function pointer {p}"),
            InterpError::StackOverflow => write!(f, "call depth limit exceeded"),
            InterpError::StepBudgetExhausted => write!(f, "step budget exhausted"),
            InterpError::UnreachableExecuted { function } => {
                write!(f, "unreachable executed in {function}")
            }
            InterpError::GlobalIndexOutOfBounds { global, index } => {
                write!(f, "global {global} indexed out of bounds at {index}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Reference MIR interpreter.
///
/// The interpreter is the semantic oracle for the code generator: for any
/// valid program, `interpret(p, args) == emulate(compile(p), args)` (output
/// and exit code). Function pointers are modeled as `i64` handles
/// (`FUNC_HANDLE_BASE + function index`).
///
/// Cost model: [`Interp::new`] resolves every function and global name
/// once, lowering the statements to ops that hold indices, so a run costs
/// time linear in the statements it executes whatever the program's
/// function count. Nothing is allocated per statement or per call: all
/// frames share one locals stack, which like `output` only grows when it
/// outgrows its capacity. Names are still checked lazily: a
/// name that does not resolve fails only when its statement executes, so
/// programs that fail [`MirProgram::validate`] run up to that point. Where
/// a name repeats, calls and `FuncAddr` bind the first function of the
/// name and global accesses the last global of the name.
pub struct Interp<'p> {
    program: &'p MirProgram,
    funcs: Vec<Func<'p>>,
    /// Every function's ops; each block is a range of them.
    ops: Vec<Op<'p>>,
    /// Per function index, the first function of the same name (the one
    /// an indirect call through that handle runs).
    first_of_name: Vec<usize>,
    /// Mutable global state, per global index.
    globals: Vec<Vec<i64>>,
    /// The locals of every active frame, the running one last.
    stack: Vec<i64>,
    /// The suspended callers of the running frame, innermost last.
    frames: Vec<Frame>,
    pub output: Vec<i64>,
    steps: u64,
    max_steps: u64,
}

/// Base value for function-pointer handles in the interpreter.
pub const FUNC_HANDLE_BASE: i64 = 0x4_0000_0000;

/// Calls nest at most this deep below the function a run starts in.
const MAX_CALL_DEPTH: usize = 256;

/// A function name resolved by [`Interp::new`]: the function's index, or
/// the name, reported as [`InterpError::UnknownFunction`] if it executes.
type FuncRef<'p> = Result<usize, &'p str>;

struct Func<'p> {
    params: u32,
    locals: u32,
    entry: usize,
    blocks: Vec<Block<'p>>,
}

struct Block<'p> {
    /// The block's statements are `ops[start..end]`.
    start: usize,
    end: usize,
    term: &'p Terminator,
}

/// A statement with its names resolved. A global that does not resolve
/// is `None`.
#[derive(Clone, Copy)]
enum Op<'p> {
    Use {
        dst: LocalId,
        src: Operand,
    },
    Bin {
        dst: LocalId,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    Shift {
        dst: LocalId,
        kind: ShiftKind,
        a: Operand,
        amt: u8,
    },
    Cmp {
        dst: LocalId,
        op: CmpOp,
        a: Operand,
        b: Operand,
    },
    Load {
        dst: LocalId,
        global: Option<usize>,
        index: Operand,
    },
    FuncAddr {
        dst: LocalId,
        func: FuncRef<'p>,
    },
    Store {
        global: Option<usize>,
        index: Operand,
        value: Operand,
    },
    Call {
        dst: Option<LocalId>,
        callee: Target<'p>,
        args: &'p [Operand],
    },
    Emit(Operand),
}

#[derive(Clone, Copy)]
enum Target<'p> {
    Direct(FuncRef<'p>),
    Indirect(Operand),
}

/// A suspended caller: where it resumes and where the result goes.
struct Frame {
    func: usize,
    block: usize,
    /// The op after the call.
    pc: usize,
    /// Where the caller's locals start on the stack.
    base: usize,
    dst: Option<LocalId>,
}

/// A program's name tables, built once by [`Interp::new`].
struct Names<'p> {
    functions: HashMap<&'p str, usize>,
    globals: HashMap<&'p str, usize>,
}

impl<'p> Names<'p> {
    fn new(program: &'p MirProgram) -> Names<'p> {
        let mut functions = HashMap::with_capacity(program.functions.len());
        for (i, f) in program.functions.iter().enumerate() {
            functions.entry(f.name.as_str()).or_insert(i);
        }
        // A later global of a name replaces an earlier one.
        let globals = program
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.as_str(), i))
            .collect();
        Names { functions, globals }
    }

    fn function(&self, name: &'p str) -> FuncRef<'p> {
        self.functions.get(name).copied().ok_or(name)
    }

    fn lower(&self, stmt: &'p Stmt) -> Op<'p> {
        match stmt {
            Stmt::Assign { dst, rv, .. } => {
                let dst = *dst;
                match rv {
                    Rvalue::Use(src) => Op::Use { dst, src: *src },
                    Rvalue::BinOp(op, a, b) => Op::Bin {
                        dst,
                        op: *op,
                        a: *a,
                        b: *b,
                    },
                    Rvalue::Shift(kind, a, amt) => Op::Shift {
                        dst,
                        kind: *kind,
                        a: *a,
                        amt: *amt,
                    },
                    Rvalue::Cmp(op, a, b) => Op::Cmp {
                        dst,
                        op: *op,
                        a: *a,
                        b: *b,
                    },
                    Rvalue::LoadGlobal { global, index } => Op::Load {
                        dst,
                        global: self.globals.get(global.as_str()).copied(),
                        index: *index,
                    },
                    Rvalue::FuncAddr(name) => Op::FuncAddr {
                        dst,
                        func: self.function(name),
                    },
                }
            }
            Stmt::StoreGlobal {
                global,
                index,
                value,
                ..
            } => Op::Store {
                global: self.globals.get(global.as_str()).copied(),
                index: *index,
                value: *value,
            },
            Stmt::Call {
                dst, callee, args, ..
            } => Op::Call {
                dst: *dst,
                callee: match callee {
                    Callee::Direct(name) => Target::Direct(self.function(name)),
                    Callee::Indirect(p) => Target::Indirect(*p),
                },
                args,
            },
            Stmt::Emit { value, .. } => Op::Emit(*value),
        }
    }
}

fn get(frame: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Local(l) => frame[l as usize],
        Operand::Const(c) => c,
    }
}

impl<'p> Interp<'p> {
    /// Resolves `program`'s names. `max_steps` bounds the block entries of
    /// every run this interpreter makes, together.
    pub fn new(program: &'p MirProgram, max_steps: u64) -> Interp<'p> {
        let names = Names::new(program);
        let mut ops = Vec::new();
        let mut funcs = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            let mut blocks = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                let start = ops.len();
                ops.extend(b.stmts.iter().map(|s| names.lower(s)));
                blocks.push(Block {
                    start,
                    end: ops.len(),
                    term: &b.term,
                });
            }
            funcs.push(Func {
                params: f.params,
                locals: f.locals,
                entry: f.entry().index(),
                blocks,
            });
        }
        Interp {
            program,
            funcs,
            ops,
            first_of_name: program
                .functions
                .iter()
                .map(|f| names.functions[f.name.as_str()])
                .collect(),
            globals: program.globals.iter().map(|g| g.words.clone()).collect(),
            stack: Vec::new(),
            frames: Vec::new(),
            output: Vec::new(),
            steps: 0,
            max_steps,
        }
    }

    /// Runs the entry function with the given arguments; returns its return
    /// value.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(&mut self, args: &[i64]) -> Result<i64, InterpError> {
        let program = self.program;
        self.call_function(&program.entry, args)
    }

    /// Calls an arbitrary function by name (useful in tests).
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn call_function(&mut self, name: &str, args: &[i64]) -> Result<i64, InterpError> {
        let func = self
            .program
            .functions
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| InterpError::UnknownFunction(name.to_string()))?;
        self.exec(func, args)
    }

    /// Runs function `func` to its return, holding callers on `frames`
    /// instead of the host stack.
    fn exec(&mut self, func: usize, args: &[i64]) -> Result<i64, InterpError> {
        let Interp {
            program,
            funcs,
            ops,
            first_of_name,
            globals,
            stack,
            frames,
            output,
            steps,
            max_steps,
        } = self;
        // `steps` counts block entries; a return into a caller is none.
        let mut enter_block = || {
            *steps += 1;
            if *steps > *max_steps {
                Err(InterpError::StepBudgetExhausted)
            } else {
                Ok(())
            }
        };
        let out_of_bounds = |global: usize, index: i64| InterpError::GlobalIndexOutOfBounds {
            global: program.globals[global].name.clone(),
            index,
        };
        stack.clear();
        frames.clear();
        let (mut fidx, mut base) = (func, 0);
        let mut f = &funcs[fidx];
        stack.resize(f.locals as usize, 0);
        for (i, a) in args.iter().take(f.params as usize).enumerate() {
            stack[i] = *a;
        }
        let mut block = f.entry;
        enter_block()?;
        let mut pc = f.blocks[block].start;
        'run: loop {
            let current = &f.blocks[block];
            while pc < current.end {
                let op = ops[pc];
                pc += 1;
                let frame = &mut stack[base..];
                match op {
                    Op::Use { dst, src } => frame[dst as usize] = get(frame, src),
                    Op::Bin { dst, op, a, b } => {
                        let (a, b) = (get(frame, a), get(frame, b));
                        frame[dst as usize] = match op {
                            BinOp::Add => a.wrapping_add(b),
                            BinOp::Sub => a.wrapping_sub(b),
                            BinOp::Mul => a.wrapping_mul(b),
                            BinOp::And => a & b,
                            BinOp::Or => a | b,
                            BinOp::Xor => a ^ b,
                        };
                    }
                    Op::Shift { dst, kind, a, amt } => {
                        let a = get(frame, a);
                        frame[dst as usize] = match kind {
                            ShiftKind::Shl => ((a as u64) << amt) as i64,
                            ShiftKind::Shr => ((a as u64) >> amt) as i64,
                            ShiftKind::Sar => a >> amt,
                        };
                    }
                    Op::Cmp { dst, op, a, b } => {
                        let (a, b) = (get(frame, a), get(frame, b));
                        frame[dst as usize] = i64::from(match op {
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                        });
                    }
                    Op::Load { dst, global, index } => {
                        let idx = get(frame, index);
                        let g = global.expect("validated global name");
                        let words = &globals[g];
                        if idx < 0 || idx as usize >= words.len() {
                            return Err(out_of_bounds(g, idx));
                        }
                        frame[dst as usize] = words[idx as usize];
                    }
                    Op::FuncAddr { dst, func } => {
                        let func = func.map_err(|n| InterpError::UnknownFunction(n.into()))?;
                        frame[dst as usize] = FUNC_HANDLE_BASE + func as i64;
                    }
                    Op::Store {
                        global,
                        index,
                        value,
                    } => {
                        let idx = get(frame, index);
                        let val = get(frame, value);
                        let g = global.expect("validated global name");
                        let words = &mut globals[g];
                        if idx < 0 || idx as usize >= words.len() {
                            return Err(out_of_bounds(g, idx));
                        }
                        words[idx as usize] = val;
                    }
                    Op::Call { dst, callee, args } => {
                        let callee = match callee {
                            Target::Direct(func) => func,
                            Target::Indirect(p) => {
                                let h = get(frame, p);
                                let idx = h - FUNC_HANDLE_BASE;
                                if idx < 0 || idx as usize >= first_of_name.len() {
                                    return Err(InterpError::BadFunctionPointer(h));
                                }
                                Ok(first_of_name[idx as usize])
                            }
                        };
                        // The callee runs at depth `frames.len() + 1`.
                        if frames.len() >= MAX_CALL_DEPTH {
                            return Err(InterpError::StackOverflow);
                        }
                        let callee = callee.map_err(|n| InterpError::UnknownFunction(n.into()))?;
                        frames.push(Frame {
                            func: fidx,
                            block,
                            pc,
                            base,
                            dst,
                        });
                        let callee_base = stack.len();
                        fidx = callee;
                        f = &funcs[fidx];
                        stack.resize(callee_base + f.locals as usize, 0);
                        let (caller, locals) = stack.split_at_mut(callee_base);
                        for (i, a) in args.iter().take(f.params as usize).enumerate() {
                            locals[i] = get(&caller[base..], *a);
                        }
                        base = callee_base;
                        block = f.entry;
                        enter_block()?;
                        pc = f.blocks[block].start;
                        continue 'run;
                    }
                    Op::Emit(value) => output.push(get(frame, value)),
                }
            }
            let frame = &stack[base..];
            block = match current.term {
                Terminator::Goto(t) => t.index(),
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    if get(frame, *cond) != 0 {
                        then_bb.index()
                    } else {
                        else_bb.index()
                    }
                }
                Terminator::Switch {
                    scrut,
                    targets,
                    default,
                } => {
                    let v = get(frame, *scrut);
                    if v >= 0 && (v as usize) < targets.len() {
                        targets[v as usize].index()
                    } else {
                        default.index()
                    }
                }
                Terminator::Return(v) => {
                    let r = get(frame, *v);
                    let Some(caller) = frames.pop() else {
                        return Ok(r);
                    };
                    stack.truncate(base);
                    Frame {
                        func: fidx,
                        block,
                        pc,
                        base,
                        ..
                    } = caller;
                    f = &funcs[fidx];
                    if let Some(d) = caller.dst {
                        stack[base..][d as usize] = r;
                    }
                    continue;
                }
                Terminator::Unreachable => {
                    return Err(InterpError::UnreachableExecuted {
                        function: program.functions[fidx].name.clone(),
                    })
                }
            };
            enter_block()?;
            pc = f.blocks[block].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// max(a, b) as MIR via the builder.
    fn max_program() -> MirProgram {
        let mut p = MirProgram {
            entry: "max".into(),
            ..MirProgram::default()
        };
        let mut b = FunctionBuilder::new("max", 0, "max.c", 2);
        let cond = b.assign_cmp(CmpOp::Gt, Operand::Local(0), Operand::Local(1));
        let (then_bb, else_bb) = b.branch(Operand::Local(cond));
        b.switch_to(then_bb);
        b.ret(Operand::Local(0));
        b.switch_to(else_bb);
        b.ret(Operand::Local(1));
        p.functions.push(b.finish());
        p.validate().unwrap();
        p
    }

    #[test]
    fn interp_max() {
        let p = max_program();
        assert_eq!(Interp::new(&p, 1000).run(&[3, 9]).unwrap(), 9);
        assert_eq!(Interp::new(&p, 1000).run(&[12, 9]).unwrap(), 12);
        assert_eq!(Interp::new(&p, 1000).run(&[-5, -9]).unwrap(), -5);
    }

    #[test]
    fn validation_catches_bad_references() {
        let mut p = max_program();
        p.functions[0].blocks[0].stmts.push(Stmt::Call {
            dst: None,
            callee: Callee::Direct("missing".into()),
            args: vec![],
            landing_pad: None,
            line: 1,
        });
        assert!(p.validate().unwrap_err().contains("unknown function"));
    }

    #[test]
    fn validation_rejects_duplicate_function_names() {
        let mut p = max_program();
        p.functions.push(p.functions[0].clone());
        assert_eq!(p.validate().unwrap_err(), "duplicate function max");
    }

    #[test]
    fn validation_rejects_duplicate_global_names() {
        let mut p = max_program();
        for words in [vec![1], vec![2, 3]] {
            p.globals.push(Global {
                name: "tbl".into(),
                words,
                mutable: false,
            });
        }
        assert_eq!(p.validate().unwrap_err(), "duplicate global tbl");
    }

    #[test]
    fn interp_globals_and_emit() {
        let mut p = MirProgram {
            entry: "main".into(),
            ..MirProgram::default()
        };
        p.globals.push(Global {
            name: "tbl".into(),
            words: vec![10, 20, 30],
            mutable: true,
        });
        let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
        let v = b.assign(Rvalue::LoadGlobal {
            global: "tbl".into(),
            index: Operand::Const(2),
        });
        b.push_stmt(Stmt::StoreGlobal {
            global: "tbl".into(),
            index: Operand::Const(0),
            value: Operand::Local(v),
            line: 1,
        });
        let w = b.assign(Rvalue::LoadGlobal {
            global: "tbl".into(),
            index: Operand::Const(0),
        });
        b.emit(Operand::Local(w));
        b.ret(Operand::Const(0));
        p.functions.push(b.finish());
        p.validate().unwrap();
        let mut i = Interp::new(&p, 1000);
        i.run(&[]).unwrap();
        assert_eq!(i.output, vec![30]);
    }

    #[test]
    fn interp_function_pointers() {
        let mut p = MirProgram {
            entry: "main".into(),
            ..MirProgram::default()
        };
        let mut f = FunctionBuilder::new("forty_two", 0, "lib.c", 0);
        f.ret(Operand::Const(42));
        p.functions.push(f.finish());
        let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
        let ptr = b.assign(Rvalue::FuncAddr("forty_two".into()));
        let r = b.call_indirect(Operand::Local(ptr), vec![]);
        b.ret(Operand::Local(r));
        p.functions.push(b.finish());
        p.validate().unwrap();
        assert_eq!(Interp::new(&p, 1000).run(&[]).unwrap(), 42);
    }

    #[test]
    fn switch_dispatch() {
        let mut p = MirProgram {
            entry: "main".into(),
            ..MirProgram::default()
        };
        let mut b = FunctionBuilder::new("main", 0, "main.c", 1);
        let arms = b.switch(Operand::Local(0), 3);
        for (i, arm) in arms.targets.iter().enumerate() {
            b.switch_to(*arm);
            b.ret(Operand::Const(100 + i as i64));
        }
        b.switch_to(arms.default);
        b.ret(Operand::Const(-1));
        p.functions.push(b.finish());
        p.validate().unwrap();
        assert_eq!(Interp::new(&p, 100).run(&[0]).unwrap(), 100);
        assert_eq!(Interp::new(&p, 100).run(&[2]).unwrap(), 102);
        assert_eq!(Interp::new(&p, 100).run(&[7]).unwrap(), -1);
        assert_eq!(Interp::new(&p, 100).run(&[-1]).unwrap(), -1);
    }

    /// A program with entry `main` of the given functions and globals.
    /// Not validated: the interpreter must behave without that.
    fn program(functions: Vec<MirFunction>, globals: Vec<Global>) -> MirProgram {
        MirProgram {
            entry: "main".into(),
            functions,
            globals,
            ..MirProgram::default()
        }
    }

    fn global(name: &str, words: Vec<i64>) -> Global {
        Global {
            name: name.into(),
            words,
            mutable: true,
        }
    }

    /// `name() { return value; }`
    fn constant(name: &str, value: i64) -> MirFunction {
        let mut b = FunctionBuilder::new(name, 0, "lib.c", 0);
        b.ret(Operand::Const(value));
        b.finish()
    }

    /// `main(x) { if x != 0 { return callee(); } return 0; }`
    fn main_calling_if_nonzero(callee: Callee) -> MirFunction {
        let mut b = FunctionBuilder::new("main", 0, "main.c", 1);
        let (then_bb, else_bb) = b.branch(Operand::Local(0));
        b.switch_to(then_bb);
        let r = b.new_local();
        b.push_stmt(Stmt::Call {
            dst: Some(r),
            callee,
            args: vec![],
            landing_pad: None,
            line: 0,
        });
        b.ret(Operand::Local(r));
        b.switch_to(else_bb);
        b.ret(Operand::Const(0));
        b.finish()
    }

    #[test]
    fn an_unknown_direct_callee_fails_only_when_called() {
        let p = program(
            vec![main_calling_if_nonzero(Callee::Direct("missing".into()))],
            vec![],
        );
        assert!(p.validate().is_err());
        assert_eq!(Interp::new(&p, 100).run(&[0]), Ok(0));
        assert_eq!(
            Interp::new(&p, 100).run(&[1]),
            Err(InterpError::UnknownFunction("missing".into()))
        );
    }

    #[test]
    fn an_unknown_function_address_fails_only_when_taken() {
        let mut b = FunctionBuilder::new("main", 0, "main.c", 1);
        let (then_bb, else_bb) = b.branch(Operand::Local(0));
        b.switch_to(then_bb);
        let ptr = b.assign(Rvalue::FuncAddr("nowhere".into()));
        b.ret(Operand::Local(ptr));
        b.switch_to(else_bb);
        b.ret(Operand::Const(0));
        let p = program(vec![b.finish()], vec![]);
        assert!(p.validate().is_err());
        assert_eq!(Interp::new(&p, 100).run(&[0]), Ok(0));
        assert_eq!(
            Interp::new(&p, 100).run(&[1]),
            Err(InterpError::UnknownFunction("nowhere".into()))
        );
        let p = program(vec![], vec![]);
        assert_eq!(
            Interp::new(&p, 100).run(&[]),
            Err(InterpError::UnknownFunction("main".into()))
        );
    }

    #[test]
    fn a_handle_outside_the_function_table_is_a_bad_pointer() {
        for handle in [FUNC_HANDLE_BASE + 2, FUNC_HANDLE_BASE - 1, 7] {
            let p = program(
                vec![
                    main_calling_if_nonzero(Callee::Indirect(Operand::Const(handle))),
                    constant("one", 1),
                ],
                vec![],
            );
            p.validate().unwrap();
            assert_eq!(
                Interp::new(&p, 100).run(&[1]),
                Err(InterpError::BadFunctionPointer(handle))
            );
        }
        let p = program(
            vec![
                main_calling_if_nonzero(Callee::Indirect(Operand::Const(FUNC_HANDLE_BASE + 1))),
                constant("one", 1),
            ],
            vec![],
        );
        assert_eq!(Interp::new(&p, 100).run(&[1]), Ok(1));
    }

    /// `down(d) { emit d; if d < limit { return down(d + 1); } return last(); }`
    fn descent(limit: i64, last: &str) -> MirProgram {
        let mut b = FunctionBuilder::new("down", 0, "down.c", 1);
        b.emit(Operand::Local(0));
        let more = b.assign_cmp(CmpOp::Lt, Operand::Local(0), Operand::Const(limit));
        let (then_bb, else_bb) = b.branch(Operand::Local(more));
        b.switch_to(then_bb);
        let next = b.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(0),
            Operand::Const(1),
        ));
        let r = b.call("down", vec![Operand::Local(next)]);
        b.ret(Operand::Local(r));
        b.switch_to(else_bb);
        let r = b.call(last, vec![]);
        b.ret(Operand::Local(r));
        program(vec![b.finish(), constant("leaf", -1)], vec![])
    }

    #[test]
    fn the_call_depth_limit_is_256_and_checked_before_the_lookup() {
        // `down(0)` runs at depth 0, so `down(d)` at depth `d`.
        let p = descent(255, "leaf");
        let mut i = Interp::new(&p, 10_000);
        assert_eq!(i.call_function("down", &[0]), Ok(-1));
        assert_eq!(i.output, (0..=255).collect::<Vec<i64>>());
        let p = descent(256, "leaf");
        let mut i = Interp::new(&p, 10_000);
        assert_eq!(
            i.call_function("down", &[0]),
            Err(InterpError::StackOverflow)
        );
        assert_eq!(i.output, (0..=256).collect::<Vec<i64>>());
        // A missing callee at depth 256 is unknown; at 257 the depth
        // check fires first.
        let p = descent(255, "missing");
        assert_eq!(
            Interp::new(&p, 10_000).call_function("down", &[0]),
            Err(InterpError::UnknownFunction("missing".into()))
        );
        let p = descent(256, "missing");
        assert_eq!(
            Interp::new(&p, 10_000).call_function("down", &[0]),
            Err(InterpError::StackOverflow)
        );
        // Unbounded recursion: the 257th nested call overflows.
        let p = descent(i64::MAX, "leaf");
        let mut i = Interp::new(&p, 10_000);
        assert_eq!(
            i.call_function("down", &[0]),
            Err(InterpError::StackOverflow)
        );
        assert_eq!(i.output.len(), 257);
    }

    #[test]
    fn the_step_budget_counts_block_entries() {
        // `main`'s entry, its `then` block, then `one`'s entry: the
        // return into `main` mid-block is no entry.
        let p = program(
            vec![
                main_calling_if_nonzero(Callee::Direct("one".into())),
                constant("one", 1),
            ],
            vec![],
        );
        assert_eq!(Interp::new(&p, 3).run(&[1]), Ok(1));
        assert_eq!(
            Interp::new(&p, 2).run(&[1]),
            Err(InterpError::StepBudgetExhausted)
        );
        assert_eq!(Interp::new(&p, 2).run(&[0]), Ok(0));
        assert_eq!(
            Interp::new(&p, 1).run(&[0]),
            Err(InterpError::StepBudgetExhausted)
        );
        // The budget is the interpreter's, not the run's.
        let mut i = Interp::new(&p, 5);
        assert_eq!(i.run(&[0]), Ok(0));
        assert_eq!(i.run(&[0]), Ok(0));
        assert_eq!(i.run(&[0]), Err(InterpError::StepBudgetExhausted));
    }

    #[test]
    fn unreachable_names_the_function_it_ran_in() {
        let mut b = FunctionBuilder::new("dead", 0, "dead.c", 0);
        b.unreachable();
        let p = program(
            vec![
                main_calling_if_nonzero(Callee::Direct("dead".into())),
                b.finish(),
            ],
            vec![],
        );
        p.validate().unwrap();
        assert_eq!(
            Interp::new(&p, 100).run(&[1]),
            Err(InterpError::UnreachableExecuted {
                function: "dead".into()
            })
        );
    }

    #[test]
    fn global_indexes_are_bounds_checked_on_load_and_store() {
        for index in [-1, 3] {
            let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
            let v = b.assign(Rvalue::LoadGlobal {
                global: "tbl".into(),
                index: Operand::Const(index),
            });
            b.ret(Operand::Local(v));
            let p = program(vec![b.finish()], vec![global("tbl", vec![1, 2, 3])]);
            p.validate().unwrap();
            assert_eq!(
                Interp::new(&p, 100).run(&[]),
                Err(InterpError::GlobalIndexOutOfBounds {
                    global: "tbl".into(),
                    index
                })
            );

            let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
            b.emit(Operand::Const(5));
            b.push_stmt(Stmt::StoreGlobal {
                global: "tbl".into(),
                index: Operand::Const(index),
                value: Operand::Const(9),
                line: 0,
            });
            b.ret(Operand::Const(0));
            let p = program(vec![b.finish()], vec![global("tbl", vec![1, 2, 3])]);
            p.validate().unwrap();
            let mut i = Interp::new(&p, 100);
            assert_eq!(
                i.run(&[]),
                Err(InterpError::GlobalIndexOutOfBounds {
                    global: "tbl".into(),
                    index
                })
            );
            assert_eq!(i.output, vec![5], "output up to the error is kept");
        }
    }

    #[test]
    fn call_function_runs_any_function_and_keeps_globals_between_calls() {
        // `bump(n) { tbl[0] = tbl[0] + n; return tbl[0]; }`
        let mut b = FunctionBuilder::new("bump", 0, "bump.c", 1);
        let old = b.assign(Rvalue::LoadGlobal {
            global: "tbl".into(),
            index: Operand::Const(0),
        });
        let new = b.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(old),
            Operand::Local(0),
        ));
        b.push_stmt(Stmt::StoreGlobal {
            global: "tbl".into(),
            index: Operand::Const(0),
            value: Operand::Local(new),
            line: 0,
        });
        b.ret(Operand::Local(new));
        let p = program(
            vec![constant("main", 0), b.finish()],
            vec![global("tbl", vec![100])],
        );
        p.validate().unwrap();
        let mut i = Interp::new(&p, 100);
        assert_eq!(i.call_function("bump", &[5]), Ok(105));
        assert_eq!(i.call_function("bump", &[-7]), Ok(98));
        assert_eq!(i.run(&[]), Ok(0));
        assert_eq!(
            i.call_function("nobody", &[]),
            Err(InterpError::UnknownFunction("nobody".into()))
        );
    }

    #[test]
    fn locals_start_at_zero_on_every_call() {
        // `dirty() { emit x; x = 99; emit x; return x; }` with `x` never
        // initialised: each call must see 0, whatever the previous
        // frame left behind.
        let mut b = FunctionBuilder::new("dirty", 0, "dirty.c", 0);
        let x = b.new_local();
        b.emit(Operand::Local(x));
        b.assign_to(x, Rvalue::Use(Operand::Const(99)));
        b.emit(Operand::Local(x));
        b.ret(Operand::Local(x));
        let dirty = b.finish();
        let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
        let a = b.call("dirty", vec![]);
        let c = b.call("dirty", vec![]);
        let s = b.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(a),
            Operand::Local(c),
        ));
        b.ret(Operand::Local(s));
        let p = program(vec![b.finish(), dirty], vec![]);
        p.validate().unwrap();
        let mut i = Interp::new(&p, 100);
        assert_eq!(i.run(&[]), Ok(198));
        assert_eq!(i.output, vec![0, 99, 0, 99]);
    }

    #[test]
    fn arguments_past_the_parameters_are_dropped() {
        // `first(a) { return a + y; }` with `y` a plain local.
        let mut b = FunctionBuilder::new("first", 0, "first.c", 1);
        let y = b.new_local();
        let s = b.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(0),
            Operand::Local(y),
        ));
        b.ret(Operand::Local(s));
        let first = b.finish();
        let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
        let r = b.call(
            "first",
            vec![Operand::Const(5), Operand::Const(6), Operand::Const(7)],
        );
        b.ret(Operand::Local(r));
        let p = program(vec![b.finish(), first], vec![]);
        p.validate().unwrap();
        assert_eq!(Interp::new(&p, 100).run(&[]), Ok(5));
        let mut i = Interp::new(&p, 100);
        assert_eq!(i.call_function("first", &[5, 6, 7]), Ok(5));
        assert_eq!(i.call_function("first", &[]), Ok(0), "missing ones are 0");
    }

    #[test]
    fn the_first_function_and_the_last_global_of_a_name_win() {
        let read = |name: &str| {
            let mut b = FunctionBuilder::new(name, 0, "g.c", 0);
            let v = b.assign(Rvalue::LoadGlobal {
                global: "g".into(),
                index: Operand::Const(0),
            });
            b.ret(Operand::Local(v));
            b.finish()
        };
        let mut b = FunctionBuilder::new("main", 0, "main.c", 0);
        let direct = b.call("f", vec![]);
        b.emit(Operand::Local(direct));
        let ptr = b.assign(Rvalue::FuncAddr("f".into()));
        b.emit(Operand::Local(ptr));
        // A forged handle to the second `f` still runs the first.
        let forged = b.call_indirect(Operand::Const(FUNC_HANDLE_BASE + 2), vec![]);
        b.emit(Operand::Local(forged));
        let g = b.call("read", vec![]);
        b.ret(Operand::Local(g));
        let p = program(
            vec![b.finish(), constant("f", 1), constant("f", 2), read("read")],
            vec![global("g", vec![10]), global("g", vec![20])],
        );
        let mut i = Interp::new(&p, 100);
        assert_eq!(i.run(&[]), Ok(20));
        assert_eq!(i.output, vec![1, FUNC_HANDLE_BASE + 1, 1]);
    }
}
