//! Annotated machine instructions (the `MCInst`-plus-annotations analogue).

use bolt_isa::Inst;
use std::fmt;

/// A source-location annotation carried through compilation and rewriting
/// (the role DWARF line info plays for real BOLT; see paper section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineInfo {
    /// Index into the program's file table.
    pub file: u32,
    /// 1-based line number.
    pub line: u32,
}

impl fmt::Display for LineInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}:{}", self.file, self.line)
    }
}

/// A machine instruction plus the annotations the rewriter tracks:
/// original address, source line, and an optional landing-pad annotation
/// for calls that may throw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryInst {
    /// The underlying machine instruction.
    pub inst: Inst,
    /// Address in the input binary (0 for synthesized instructions).
    pub addr: u64,
    /// Source location, if known.
    pub line: Option<LineInfo>,
    /// Landing-pad block (within the same function) if this call can
    /// throw, mirroring BOLT's `handler:` annotation.
    pub landing_pad: Option<super::BlockId>,
}

impl BinaryInst {
    /// Wraps a bare machine instruction with no annotations.
    pub fn new(inst: Inst) -> BinaryInst {
        BinaryInst {
            inst,
            addr: 0,
            line: None,
            landing_pad: None,
        }
    }

    /// Builder-style setter for the original address.
    pub fn at(mut self, addr: u64) -> BinaryInst {
        self.addr = addr;
        self
    }

    /// Builder-style setter for the source line.
    pub fn with_line(mut self, line: LineInfo) -> BinaryInst {
        self.line = Some(line);
        self
    }
}

impl From<Inst> for BinaryInst {
    fn from(inst: Inst) -> BinaryInst {
        BinaryInst::new(inst)
    }
}

impl fmt::Display for BinaryInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.inst)?;
        if let Some(lp) = self.landing_pad {
            write!(f, " # handler: {lp}")?;
        }
        if let Some(line) = self.line {
            write!(f, " # {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_isa::{Inst, Reg};

    #[test]
    fn builder_and_display() {
        let i = BinaryInst::new(Inst::Push(Reg::Rbp))
            .at(0x400000)
            .with_line(LineInfo { file: 1, line: 22 });
        assert_eq!(i.addr, 0x400000);
        assert_eq!(i.to_string(), "pushq %rbp # file1:22");
    }
}
