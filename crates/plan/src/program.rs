//! The flat decision program: what [`crate::compile()`] produces and [`crate::vm`] runs.
//!
//! A program is a straight-line sequence of bitset ops over element types, specialised
//! at compile time to one `(canonical query, DtdArtifacts)` pair.  Registers are
//! single-assignment (op `i` writes register `i`), masks are precomputed bitsets over
//! element types — notably the joint content-model cover masks that encode qualifier
//! demands — so replaying a program is a handful of word-parallel bitset operations
//! with no AST walking and no allocation.

use xpsat_automata::BitSet;
use xpsat_dtd::Sym;
use xpsat_xpath::Path;

/// Register index (single-assignment: op `i` writes register `i`).
pub type Reg = u16;

/// Index into [`DecisionProgram::masks`].
pub type MaskId = u16;

/// Index into [`DecisionProgram::tables`].
pub type TableId = u16;

/// One bitset instruction over element-type sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = {root type}`.
    Root { dst: Reg },
    /// `dst = ∅` (an undeclared label or an unsatisfiable qualifier was met).
    Empty { dst: Reg },
    /// Child step to label `sym`: `dst = {sym}` if `src ∩ masks[ok] ≠ ∅` else `∅`.
    /// `ok` holds the types whose content model jointly covers `sym` plus every
    /// qualifier demand pending at this step.
    Child {
        src: Reg,
        dst: Reg,
        sym: Sym,
        ok: MaskId,
    },
    /// Wildcard step: `dst = ⋃ {succ(t) : t ∈ src}`.
    AnyChild { src: Reg, dst: Reg },
    /// Descendant-or-self step: `dst = src ∪ ⋃ {reach(t) : t ∈ src}`.
    DescOrSelf { src: Reg, dst: Reg },
    /// `dst = src ∩ masks[mask]` (label tests and trailing-demand resolution).
    Intersect { src: Reg, dst: Reg, mask: MaskId },
    /// `dst = a ∪ b` (join of union branches).
    Union { a: Reg, b: Reg, dst: Reg },
    /// Table-driven step: `dst = ⋃ {tables[table][t] : t ∈ src}`.  Used for fused
    /// sibling chains: row `t` holds the element types reachable at the chain's end
    /// inside the content model of parent type `t`.
    Table { src: Reg, dst: Reg, table: TableId },
}

/// A compiled decision program for one `(canonical query, DTD artifacts)` pair.
#[derive(Debug, Clone)]
pub struct DecisionProgram {
    /// Straight-line instruction sequence; op `i` writes register `i`.
    pub ops: Vec<Op>,
    /// Precomputed element-type masks referenced by [`Op::Child`] / [`Op::Intersect`].
    pub masks: Vec<BitSet>,
    /// Per-parent-type target rows referenced by [`Op::Table`] (one row per element
    /// type; empty for programs without sibling chains).
    pub tables: Vec<Vec<BitSet>>,
    /// Number of element types in the compiled DTD (bitset capacity).
    pub num_elements: usize,
    /// Register holding the final image; the instance is satisfiable iff it is
    /// nonempty.
    pub out: Reg,
    /// `true` when the DTD's root type is non-terminating: no document conforms, so
    /// the program is the constant `Unsatisfiable` and `ops` is empty.
    pub const_unsat: bool,
    /// The canonical query the program was compiled from (drives witness realisation).
    pub canon: Path,
    /// [`xpsat_dtd::DtdArtifacts::uid`] of the compile target; replaying against other
    /// artifacts is refused.
    pub dtd_uid: u64,
}

impl DecisionProgram {
    /// Number of instructions (the "compiled program size" reported by `classify`).
    pub fn size(&self) -> usize {
        self.ops.len()
    }

    /// Number of registers a [`crate::vm::Scratch`] needs to replay this program.
    pub fn num_regs(&self) -> usize {
        self.ops.len()
    }
}
