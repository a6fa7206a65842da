//! XPath satisfiability in the presence of DTDs.
//!
//! This crate is the paper's contribution made executable.  Given a DTD `D` and a query
//! `p` from one of the studied XPath fragments, it decides whether some document
//! conforms to `D` and satisfies `p`, returning a concrete witness document whenever the
//! answer is *yes*.
//!
//! # Layout
//!
//! * [`sat`] — the result types shared by all engines;
//! * [`engines`] — one decision procedure per upper bound proved in the paper:
//!   * [`engines::downward`] — the `O(|p|·|D|²)` reachability algorithm of Theorem 4.1
//!     for `X(↓, ↓*, ∪)`;
//!   * [`engines::sibling`] — the PTIME algorithm of Theorem 7.1 for `X(→, ←)`;
//!   * [`engines::djfree`] — the PTIME algorithm of Theorem 6.8 for `X(↓, ↓*, ∪, [])`
//!     under disjunction-free DTDs;
//!   * [`engines::nodtd`] — the PTIME algorithms of Theorem 6.11 in the absence of DTDs;
//!   * [`engines::positive`] — the NP witness-search procedure of Theorem 4.4 for
//!     positive queries with qualifiers and data values;
//!   * [`engines::negation`] — an EXPTIME subtree-type fixpoint covering the upper
//!     bounds of Theorems 5.2/5.3 for downward fragments with negation;
//!   * [`engines::enumeration`] — the instance-enumeration procedure behind
//!     Proposition 6.4, doubling as the bounded-model oracle of the test suite;
//! * [`solver`] — a façade that inspects the query's operators and the DTD's class and
//!   dispatches to the cheapest complete engine (falling back to bounded search when the
//!   instance lies in an undecidable or not-implemented corner, and saying so);
//! * [`transform`] — the reductions *between problems* of Section 3 and Proposition 6.1;
//! * [`containment`] — the containment analysis obtained through Proposition 3.2;
//! * [`reductions`] — the lower-bound encodings (3SAT, Q3SAT, corridor tiling,
//!   two-register machines) as generators of `(Dtd, Path)` instances.

pub mod budget;
pub mod containment;
pub mod corpus;
pub mod engines;
pub mod reductions;
pub mod sat;
pub mod solver;
pub mod transform;
pub mod witness;

pub use budget::{Budget, BudgetMeter, Exhausted};
pub use sat::{SatError, Satisfiability};
pub use solver::{Decision, EngineKind, RoutePrediction, Solver, DECIDE_STACK_BYTES};
