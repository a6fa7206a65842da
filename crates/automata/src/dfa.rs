//! Deterministic finite automata obtained by the subset construction.
//!
//! DFAs are used where complementation or product constructions are needed: checking
//! that two content models are equivalent in tests, and validating that a rewritten DTD
//! (for instance the normalisation `N(D)` of Proposition 3.3) accepts the intended
//! children sequences.

use crate::bitset::BitSet;
use crate::nfa::Nfa;
use crate::Symbol;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A deterministic finite automaton over symbols of type `S`.
///
/// The transition function is partial: a missing entry denotes the (implicit) dead
/// state.  `complete` materialises the dead state when a total automaton is needed
/// (complementation).  Accepting states and the NFA state sets of the subset
/// construction are kept as [`BitSet`]s, so determinisation works word-at-a-time
/// instead of element-at-a-time.
#[derive(Debug, Clone)]
pub struct Dfa<S> {
    transitions: Vec<BTreeMap<S, usize>>,
    accepting: BitSet,
    alphabet: BTreeSet<S>,
}

impl<S: Symbol> Dfa<S> {
    /// Determinise an NFA by the subset construction.
    pub fn from_nfa(nfa: &Nfa<S>) -> Dfa<S> {
        let alphabet = nfa.alphabet();
        // Successor sets as bitset rows, so each subset-construction step is a
        // word-level union over blocks instead of per-element inserts.
        let succ_rows: Vec<BTreeMap<&S, BitSet>> = (0..nfa.num_states())
            .map(|q| {
                nfa.transitions_from(q)
                    .map(|(sym, succs)| (sym, succs.iter().copied().collect()))
                    .collect()
            })
            .collect();
        let mut states: BTreeMap<BitSet, usize> = BTreeMap::new();
        let mut transitions: Vec<BTreeMap<S, usize>> = Vec::new();
        let mut accepting = BitSet::new();
        let nfa_accepting: BitSet = nfa.accepting_states().collect();
        let start: BitSet = [nfa.start()].into_iter().collect();
        states.insert(start.clone(), 0);
        transitions.push(BTreeMap::new());
        if start.intersects(&nfa_accepting) {
            accepting.insert(0);
        }
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(set) = queue.pop_front() {
            let id = states[&set];
            for sym in &alphabet {
                let mut next = BitSet::with_capacity(nfa.num_states());
                for q in set.iter() {
                    if let Some(row) = succ_rows[q].get(sym) {
                        next.union_with(row);
                    }
                }
                if next.is_empty() {
                    continue;
                }
                let next_id = match states.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = transitions.len();
                        states.insert(next.clone(), i);
                        transitions.push(BTreeMap::new());
                        if next.intersects(&nfa_accepting) {
                            accepting.insert(i);
                        }
                        queue.push_back(next.clone());
                        i
                    }
                };
                transitions[id].insert(sym.clone(), next_id);
            }
        }
        Dfa {
            transitions,
            accepting,
            alphabet,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Does the automaton accept `word`?  Symbols outside the alphabet lead to rejection.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut q = 0usize;
        for sym in word {
            match self.transitions[q].get(sym) {
                Some(&next) => q = next,
                None => return false,
            }
        }
        self.accepting.contains(q)
    }

    /// Complement with respect to `alphabet` (which must contain the DFA's own alphabet).
    pub fn complement(&self, alphabet: &BTreeSet<S>) -> Dfa<S> {
        // Complete the automaton with an explicit dead state, then flip acceptance.
        let dead = self.transitions.len();
        let mut transitions = self.transitions.clone();
        transitions.push(BTreeMap::new());
        for row in transitions.iter_mut() {
            for sym in alphabet {
                row.entry(sym.clone()).or_insert(dead);
            }
        }
        let accepting: BitSet = (0..transitions.len())
            .filter(|q| !self.accepting.contains(*q))
            .collect();
        Dfa {
            transitions,
            accepting,
            alphabet: alphabet.clone(),
        }
    }

    /// Product automaton accepting the intersection of the two languages.
    pub fn intersect(&self, other: &Dfa<S>) -> Dfa<S> {
        let alphabet: BTreeSet<S> = self.alphabet.union(&other.alphabet).cloned().collect();
        let mut states: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut transitions: Vec<BTreeMap<S, usize>> = Vec::new();
        let mut accepting = BitSet::new();
        states.insert((0, 0), 0);
        transitions.push(BTreeMap::new());
        if self.accepting.contains(0) && other.accepting.contains(0) {
            accepting.insert(0);
        }
        let mut queue = VecDeque::new();
        queue.push_back((0usize, 0usize));
        while let Some((a, b)) = queue.pop_front() {
            let id = states[&(a, b)];
            for sym in &alphabet {
                let (Some(&na), Some(&nb)) =
                    (self.transitions[a].get(sym), other.transitions[b].get(sym))
                else {
                    continue;
                };
                let key = (na, nb);
                let next_id = match states.get(&key) {
                    Some(&i) => i,
                    None => {
                        let i = transitions.len();
                        states.insert(key, i);
                        transitions.push(BTreeMap::new());
                        if self.accepting.contains(na) && other.accepting.contains(nb) {
                            accepting.insert(i);
                        }
                        queue.push_back(key);
                        i
                    }
                };
                transitions[id].insert(sym.clone(), next_id);
            }
        }
        Dfa {
            transitions,
            accepting,
            alphabet,
        }
    }

    /// Is the accepted language empty?
    pub fn is_empty(&self) -> bool {
        // BFS from the start state looking for an accepting state.
        let mut seen = vec![false; self.transitions.len()];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(0);
        while let Some(q) = queue.pop_front() {
            if self.accepting.contains(q) {
                return false;
            }
            for &next in self.transitions[q].values() {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        true
    }

    /// Are the two automata language-equivalent (over the union of their alphabets)?
    /// Each side's intersection with the other's complement must be empty.
    pub fn equivalent(&self, other: &Dfa<S>) -> bool {
        let alphabet: BTreeSet<S> = self.alphabet.union(&other.alphabet).cloned().collect();
        self.intersect(&other.complement(&alphabet)).is_empty()
            && other.intersect(&self.complement(&alphabet)).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn c(ch: char) -> Regex<char> {
        Regex::sym(ch)
    }

    fn dfa(re: &Regex<char>) -> Dfa<char> {
        Dfa::from_nfa(&Nfa::glushkov(re))
    }

    #[test]
    fn subset_construction_preserves_language() {
        let re = Regex::concat(vec![Regex::star(Regex::alt(vec![c('a'), c('b')])), c('c')]);
        let d = dfa(&re);
        for w in [
            vec![],
            vec!['c'],
            vec!['a', 'c'],
            vec!['a', 'b', 'c'],
            vec!['c', 'c'],
        ] {
            assert_eq!(d.accepts(&w), re.matches(&w), "word {w:?}");
        }
    }

    #[test]
    fn complement_flips_membership() {
        let re = Regex::star(c('a'));
        let d = dfa(&re);
        let alphabet: BTreeSet<char> = ['a', 'b'].into_iter().collect();
        let comp = d.complement(&alphabet);
        assert!(!comp.accepts(&['a', 'a']));
        assert!(comp.accepts(&['a', 'b']));
        assert!(comp.accepts(&['b']));
        assert!(!comp.accepts(&[]));
    }

    #[test]
    fn intersection_and_equivalence() {
        // (a,b)* vs a,(b,a)*,b  — the second is the subset of the first with length >= 2.
        let r1 = Regex::star(Regex::concat(vec![c('a'), c('b')]));
        let r2 = Regex::concat(vec![
            c('a'),
            Regex::star(Regex::concat(vec![c('b'), c('a')])),
            c('b'),
        ]);
        let d1 = dfa(&r1);
        let d2 = dfa(&r2);
        let inter = d1.intersect(&d2);
        assert!(inter.accepts(&['a', 'b']));
        assert!(inter.accepts(&['a', 'b', 'a', 'b']));
        assert!(!inter.accepts(&[]));
        assert!(!d1.equivalent(&d2));
        assert!(d1.equivalent(&dfa(&r1.clone())));
    }

    #[test]
    fn emptiness() {
        let d = dfa(&Regex::Concat(vec![c('a'), Regex::Empty]));
        assert!(d.is_empty());
        let d2 = dfa(&c('a'));
        assert!(!d2.is_empty());
    }
}
