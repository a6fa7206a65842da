//! The decision procedures, one per upper bound proved in the paper.
//!
//! Each engine's fragment is stated once, as the [`Fragment`] in the gate column:
//! the solver's route table and the engine's own input check both ask it.
//!
//! | module | fragment | gate | DTD class | paper result | complexity |
//! |---|---|---|---|---|---|
//! | [`downward`] | `X(↓, ↓*, ∪)` | [`Fragment::downward_no_qualifiers`] | any | Theorem 4.1 | PTIME |
//! | [`sibling`] | `X(→, ←)` (label steps + sibling hops) | [`Fragment::sibling_no_qualifiers`] | any | Theorem 7.1 | PTIME |
//! | [`djfree`] | `X(↓, ↓*, ∪, [])` | [`Fragment::downward_positive`] | disjunction-free | Theorem 6.8 | PTIME |
//! | [`nodtd`] | `X(↓, ↓*, ∪, [])` | [`Fragment::downward_positive`] | none (absent DTD) | Theorem 6.11(1) | PTIME |
//! | [`positive`] | `X(↓, ↓*, ∪, [], =)` (+ label tests) | [`Fragment::downward_positive_with_data`] | any | Theorem 4.4 | NP |
//! | [`negation`] | `X(↓, ↓*, ∪, [], ¬)` (+ label tests) | [`Fragment::downward_negation`] | any | Theorems 5.2/5.3 | EXPTIME |
//! | [`enumeration`] | the full class incl. `↑`, data values, siblings | none | bounded / nonrecursive | Proposition 6.4, Theorem 5.5 | exponential |
//!
//! Upward axes are handled by the solver façade through the rewritings of
//! Proposition 6.1 and Theorems 6.6(3)/6.8(2) whenever those apply, and by
//! [`enumeration`] otherwise.

#[cfg(doc)]
use xpsat_xpath::Fragment;

pub mod djfree;
pub mod downward;
pub mod enumeration;
pub mod negation;
pub mod nodtd;
pub mod positive;
pub mod sibling;
