//! Finite-automata substrate for DTD content models.
//!
//! A DTD production `A -> P(A)` constrains the *sequence of children labels* of an `A`
//! element to lie in the regular language `L(P(A))`.  Every satisfiability algorithm in
//! the paper therefore needs, at minimum, the ability to answer questions about regular
//! languages over the element-type alphabet:
//!
//! * membership — used by DTD validation of candidate witness trees;
//! * emptiness and shortest-word extraction — used when expanding a partial witness into
//!   a complete tree that conforms to the DTD;
//! * *coverage* search ("is there a word of the language that contains at least `k_B`
//!   occurrences of symbol `B`, for every `B` in a demand multiset, using only allowed
//!   symbols?") — the workhorse of the positive NP engine (Theorem 4.4) and the
//!   EXPTIME subtree-type fixpoint for fragments with negation (Theorems 5.2/5.3);
//! * position-graph reachability over Glushkov automata — the PTIME sibling-axis
//!   algorithm of Theorem 7.1.
//!
//! The crate is generic over the symbol type; the DTD crate instantiates it with
//! interned element-type identifiers.

pub mod bitset;
pub mod cover;
pub mod dfa;
pub mod nfa;
pub mod regex;

pub use bitset::BitSet;
pub use cover::{
    shortest_covering_word, shortest_word, sib_pattern_symbols, sib_pattern_word,
    word_with_multiplicities, CoverDemand, SibPattern, SibRole,
};
pub use dfa::Dfa;
pub use nfa::{Nfa, StateId};
pub use regex::Regex;

/// The bound placed on symbol types used throughout the crate.
///
/// `Ord` is required so that deterministic data structures (`BTreeMap`, sorted vectors)
/// can be used, which keeps every algorithm in the workspace reproducible run-to-run.
pub trait Symbol: Clone + Eq + std::hash::Hash + Ord + std::fmt::Debug {}

impl<T: Clone + Eq + std::hash::Hash + Ord + std::fmt::Debug> Symbol for T {}
