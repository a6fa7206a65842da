//! Nondeterministic finite automata and the Glushkov (position) construction.
//!
//! The Glushkov automaton of a regular expression has one state per symbol *occurrence*
//! (plus a distinguished initial state) and no epsilon transitions.  Two properties make
//! it the right representation here:
//!
//! * its size is linear in the size of the content model, so DTD validation and witness
//!   construction stay polynomial, and
//! * its states *are* the positions of the content model, which is exactly the structure
//!   the sibling-axis satisfiability algorithm of Theorem 7.1 walks over (a `→` move is
//!   a forward transition between positions, a `←` move a backward one).
//!
//! Transitions are stored flat, in compressed-row form: state `q`'s edges are the
//! range `row_start[q]..row_start[q + 1]` of one symbol-sorted edge array, and edge
//! `e`'s successors the range `edge_start[e]..edge_start[e + 1]` of one successor
//! array.  An automaton is therefore a constant number of allocations whatever its
//! edge count, so cloning or dropping one costs a handful of allocations, and a row is
//! still a binary-searchable slice.  The automaton is immutable after construction;
//! the satisfiability engines walk it in their innermost loops.
//!
//! [`Nfa::glushkov`] computes the position sets in one recursive pass over the
//! expression: every node leaves its `first` and `last` sets on two shared stacks, as
//! lists of the positions they hold, and returns its nullability; concatenations and
//! iterations append successors to per-position `follow` lists.  Successors are
//! recorded by positions ranked by symbol, so sorting a row by rank groups and orders
//! it by symbol.  The pass does work in proportion to the pairs it finds, never to
//! the number of positions per pair: a flat sequence of `n` positions builds in
//! `O(n)` space.

use crate::bitset::BitSet;
use crate::regex::Regex;
use crate::Symbol;
use std::collections::{BTreeSet, VecDeque};

/// Index of an NFA state.  State `0` is always the unique initial state.
pub type StateId = usize;

/// A nondeterministic finite automaton without epsilon transitions.
#[derive(Debug, Clone)]
pub struct Nfa<S> {
    /// `row_start[q]..row_start[q + 1]` are the edges leaving `q`; `num_states + 1`
    /// entries.
    row_start: Vec<usize>,
    /// The symbol of every edge, sorted and distinct within each row.
    edge_symbol: Vec<S>,
    /// `edge_start[e]..edge_start[e + 1]` are edge `e`'s successors in `successors`;
    /// `edges + 1` entries.
    edge_start: Vec<usize>,
    /// Successor states of all edges, sorted and deduplicated within each edge.
    successors: Vec<StateId>,
    /// Accepting states.
    accepting: BitSet,
    /// For Glushkov automata: the symbol whose occurrence a state represents
    /// (`None` for the initial state).
    state_symbol: Vec<Option<S>>,
}

/// The state of the one-pass Glushkov construction.
///
/// Every visit leaves the first and last sets of the expression it visited on top of
/// two shared stacks, as lists of the positions they hold; distinct subexpressions
/// hold distinct positions, so a union of sets is two adjacent segments.  Successors
/// are recorded by *rank*: ranking the positions by (symbol, position) once makes a
/// row sorted by rank the row a transition table needs, grouped and ordered by symbol.
struct Glushkov {
    /// `rank[p]` for every position, `rank[0] = 0` for the initial state.
    rank: Vec<usize>,
    /// The positions visited so far.
    visited: usize,
    /// First sets, as ranks.
    first: Vec<usize>,
    /// Last sets, as positions.
    last: Vec<StateId>,
    /// `follow[p]`: the ranks of the positions that may follow position `p`, in no
    /// order and possibly more than once.
    follow: Vec<Vec<usize>>,
}

impl Glushkov {
    /// Visit `re`: push its first and last sets and return whether it is nullable.
    fn visit<S>(&mut self, re: &Regex<S>) -> bool {
        match re {
            Regex::Epsilon => true,
            Regex::Empty => false,
            Regex::Sym(_) => {
                self.visited += 1;
                self.first.push(self.rank[self.visited]);
                self.last.push(self.visited);
                false
            }
            Regex::Concat(parts) => {
                let last_begin = self.last.len();
                let mut nullable = true;
                for part in parts {
                    let (part_first, part_last) = (self.first.len(), self.last.len());
                    let part_nullable = self.visit(part);
                    self.link(last_begin..part_last, part_first);
                    // `part`'s first set joins the first set so far only while the
                    // parts before it are nullable; its last set replaces the last set
                    // so far unless `part` is nullable.
                    if !nullable {
                        self.first.truncate(part_first);
                    }
                    if !part_nullable {
                        self.last.drain(last_begin..part_last);
                    }
                    nullable &= part_nullable;
                }
                nullable
            }
            Regex::Alt(parts) => {
                let mut nullable = false;
                for part in parts {
                    nullable |= self.visit(part);
                }
                nullable
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => {
                let (first_begin, last_begin) = (self.first.len(), self.last.len());
                let nullable = self.visit(inner);
                // Under `?`s, an inner `*` or `+` has already linked these sets; linking
                // them again would only repeat its pairs (`(a | b)++…+` would cost one
                // round of pairs per `+`).
                let mut core = &**inner;
                while let Regex::Opt(opt) = core {
                    core = opt;
                }
                let repeated = matches!(core, Regex::Star(_) | Regex::Plus(_));
                if !matches!(re, Regex::Opt(_)) && !repeated {
                    self.link(last_begin..self.last.len(), first_begin);
                }
                nullable || !matches!(re, Regex::Plus(_))
            }
        }
    }

    /// Every position of `self.last[from]` may be followed by every position of
    /// `self.first[to..]`.
    fn link(&mut self, from: std::ops::Range<usize>, to: usize) {
        for &p in &self.last[from] {
            self.follow[p].extend_from_slice(&self.first[to..]);
        }
    }
}

impl<S: Symbol> Nfa<S> {
    /// Build the Glushkov automaton of `re`.
    ///
    /// The automaton accepts exactly `L(re)`, has `1 + (number of symbol occurrences)`
    /// states and carries, for every non-initial state, the symbol it reads.  State `p`
    /// is the `p`-th symbol occurrence from the left.
    pub fn glushkov(re: &Regex<S>) -> Nfa<S> {
        let mut state_symbol = vec![None];
        occurrences(re, &mut state_symbol);
        let n = state_symbol.len();
        // `by_rank[r]` is the position of rank `r`: the initial state, then the
        // positions ordered by symbol (a stable sort keeps ties in position order).
        let mut by_rank: Vec<StateId> = (0..n).collect();
        by_rank[1..].sort_by(|&a, &b| state_symbol[a].cmp(&state_symbol[b]));
        let mut rank = vec![0; n];
        for (r, &p) in by_rank.iter().enumerate() {
            rank[p] = r;
        }
        let mut pass = Glushkov {
            rank,
            visited: 0,
            first: Vec::new(),
            last: Vec::new(),
            follow: vec![Vec::new(); n],
        };
        let nullable = pass.visit(re);
        let mut follow = pass.follow;
        follow[0].extend_from_slice(&pass.first);
        let mut accepting = BitSet::with_capacity(n);
        for &p in &pass.last {
            accepting.insert(p);
        }
        if nullable {
            accepting.insert(0);
        }

        let mut nfa = Nfa {
            row_start: Vec::with_capacity(n + 1),
            edge_symbol: Vec::new(),
            edge_start: Vec::new(),
            successors: Vec::with_capacity(follow.iter().map(Vec::len).sum()),
            accepting,
            state_symbol,
        };
        // A sorted row iterates in (symbol, position) order: start an edge at every
        // change of symbol.
        for row in &mut follow {
            nfa.row_start.push(nfa.edge_symbol.len());
            row.sort_unstable();
            row.dedup();
            let mut current: Option<&S> = None;
            for &r in row.iter() {
                let q = by_rank[r];
                let sym = nfa.state_symbol[q].as_ref();
                if sym != current {
                    current = sym;
                    nfa.edge_symbol
                        .push(sym.expect("positions carry a symbol").clone());
                    nfa.edge_start.push(nfa.successors.len());
                }
                nfa.successors.push(q);
            }
        }
        nfa.row_start.push(nfa.edge_symbol.len());
        nfa.edge_start.push(nfa.successors.len());
        nfa
    }

    /// Number of states (including the initial state).
    pub fn num_states(&self) -> usize {
        self.state_symbol.len()
    }

    /// The unique initial state.
    pub fn start(&self) -> StateId {
        0
    }

    /// Is `q` an accepting state?
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q)
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting.iter()
    }

    /// The symbol read to enter state `q` (None for the initial state).
    pub fn symbol_of(&self, q: StateId) -> Option<&S> {
        self.state_symbol[q].as_ref()
    }

    /// Outgoing transitions of `q`, sorted by symbol.
    pub fn transitions_from(&self, q: StateId) -> impl Iterator<Item = (&S, &[StateId])> {
        let (first, end) = (self.row_start[q], self.row_start[q + 1]);
        self.edge_symbol[first..end]
            .iter()
            .zip(self.edge_start[first..=end].windows(2))
            .map(|(sym, bounds)| (sym, &self.successors[bounds[0]..bounds[1]]))
    }

    /// The successors of edge `e`.
    fn edge(&self, e: usize) -> &[StateId] {
        &self.successors[self.edge_start[e]..self.edge_start[e + 1]]
    }

    /// The successors of every edge leaving `q`, in row order (not deduplicated).
    fn row_successors(&self, q: StateId) -> &[StateId] {
        &self.successors[self.edge_start[self.row_start[q]]..self.edge_start[self.row_start[q + 1]]]
    }

    /// Successor states of `q` on `sym` (binary search over the sorted row).
    pub fn step(&self, q: StateId, sym: &S) -> impl Iterator<Item = StateId> + '_ {
        let first = self.row_start[q];
        let row = &self.edge_symbol[first..self.row_start[q + 1]];
        row.binary_search(sym)
            .map_or(&[][..], |i| self.edge(first + i))
            .iter()
            .copied()
    }

    /// All symbols appearing on some transition.
    pub fn alphabet(&self) -> BTreeSet<S> {
        self.edge_symbol.iter().cloned().collect()
    }

    /// Does the automaton accept `word`?
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = BitSet::with_capacity(self.num_states());
        current.insert(0);
        for sym in word {
            let mut next = BitSet::with_capacity(self.num_states());
            for q in current.iter() {
                for t in self.step(q, sym) {
                    next.insert(t);
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.intersects(&self.accepting)
    }

    /// Is the accepted language empty?
    pub fn is_empty(&self) -> bool {
        self.shortest_word().is_none()
    }

    /// A shortest accepted word, if the language is nonempty (BFS over states).
    pub fn shortest_word(&self) -> Option<Vec<S>> {
        self.shortest_word_over(|_| true)
    }

    /// A shortest accepted word using only symbols for which `allowed` holds, if there
    /// is one (BFS over states, skipping the other edges).
    pub fn shortest_word_over(&self, allowed: impl Fn(&S) -> bool) -> Option<Vec<S>> {
        let n = self.num_states();
        let mut pred: Vec<Option<(StateId, S)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[0] = true;
        queue.push_back(0);
        let mut goal = if self.accepting.contains(0) {
            Some(0)
        } else {
            None
        };
        while goal.is_none() {
            let Some(q) = queue.pop_front() else { break };
            for (sym, succ) in self.transitions_from(q) {
                if !allowed(sym) {
                    continue;
                }
                for &t in succ {
                    if !visited[t] {
                        visited[t] = true;
                        pred[t] = Some((q, sym.clone()));
                        if self.accepting.contains(t) {
                            goal = Some(t);
                        }
                        queue.push_back(t);
                    }
                }
                if goal.is_some() {
                    break;
                }
            }
        }
        let mut cur = goal?;
        let mut word = Vec::new();
        while let Some((prev, sym)) = pred[cur].clone() {
            word.push(sym);
            cur = prev;
        }
        word.reverse();
        Some(word)
    }

    /// States from which an accepting state is reachable (co-accessible states).
    pub fn coaccessible(&self) -> BitSet {
        // Reverse reachability from the accepting states, over the reversed edges laid
        // out in the same compressed-row form: `pred[pred_start[t]..pred_start[t + 1]]`
        // are the states with an edge into `t`.
        let n = self.num_states();
        let mut pred_start = vec![0usize; n + 1];
        for &t in &self.successors {
            pred_start[t + 1] += 1;
        }
        for t in 0..n {
            pred_start[t + 1] += pred_start[t];
        }
        let mut fill = pred_start.clone();
        let mut pred = vec![0; self.successors.len()];
        for q in 0..n {
            for &t in self.row_successors(q) {
                pred[fill[t]] = q;
                fill[t] += 1;
            }
        }
        let mut seen = self.accepting.clone();
        let mut queue: Vec<StateId> = self.accepting.iter().collect();
        while let Some(t) = queue.pop() {
            for &q in &pred[pred_start[t]..pred_start[t + 1]] {
                if seen.insert(q) {
                    queue.push(q);
                }
            }
        }
        seen
    }

    /// States reachable from the initial state.
    pub fn accessible(&self) -> BitSet {
        let mut seen = BitSet::with_capacity(self.num_states());
        seen.insert(0);
        let mut queue = vec![0];
        while let Some(q) = queue.pop() {
            for &t in self.row_successors(q) {
                if seen.insert(t) {
                    queue.push(t);
                }
            }
        }
        seen
    }

    /// States that lie on some accepting run (accessible and co-accessible).
    pub fn useful_states(&self) -> BitSet {
        let mut out = self.accessible();
        out.intersect_with(&self.coaccessible());
        out
    }
}

/// Append the symbol of every occurrence in `re`, left to right.
fn occurrences<S: Symbol>(re: &Regex<S>, out: &mut Vec<Option<S>>) {
    match re {
        Regex::Epsilon | Regex::Empty => {}
        Regex::Sym(s) => out.push(Some(s.clone())),
        Regex::Concat(parts) | Regex::Alt(parts) => {
            for part in parts {
                occurrences(part, out);
            }
        }
        Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => occurrences(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(ch: char) -> Regex<char> {
        Regex::sym(ch)
    }

    /// Every word over `alphabet` of length at most `max_len`.
    fn words_up_to(alphabet: &[char], max_len: usize) -> Vec<Vec<char>> {
        let mut out = vec![Vec::new()];
        let mut layer = vec![Vec::new()];
        for _ in 0..max_len {
            layer = layer
                .iter()
                .flat_map(|w: &Vec<char>| {
                    alphabet.iter().map(move |&ch| {
                        let mut longer = w.clone();
                        longer.push(ch);
                        longer
                    })
                })
                .collect();
            out.extend(layer.iter().cloned());
        }
        out
    }

    /// The symbol occurrences of `re`, left to right.
    fn occurrences(re: &Regex<char>, out: &mut Vec<char>) {
        match re {
            Regex::Epsilon | Regex::Empty => {}
            Regex::Sym(ch) => out.push(*ch),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                parts.iter().for_each(|p| occurrences(p, out));
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => {
                occurrences(inner, out);
            }
        }
    }

    /// The four properties every Glushkov automaton must have: the language of `re`
    /// on every word up to length 5, one state per occurrence, each position labelled
    /// by its occurrence, and normalised rows.
    fn assert_glushkov(re: &Regex<char>) {
        let nfa = Nfa::glushkov(re);
        for w in words_up_to(&['a', 'b', 'c'], 5) {
            assert_eq!(nfa.accepts(&w), re.matches(&w), "regex {re:?} word {w:?}");
        }
        let mut positions = Vec::new();
        occurrences(re, &mut positions);
        assert_eq!(nfa.num_states(), 1 + positions.len(), "{re:?}");
        assert_eq!(nfa.symbol_of(0), None);
        for (i, ch) in positions.iter().enumerate() {
            assert_eq!(nfa.symbol_of(i + 1), Some(ch), "{re:?} position {}", i + 1);
        }
        for q in 0..nfa.num_states() {
            let row: Vec<(char, &[StateId])> =
                nfa.transitions_from(q).map(|(s, t)| (*s, t)).collect();
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{re:?} row {q}");
            for (sym, succs) in row {
                assert!(!succs.is_empty(), "{re:?} row {q}");
                assert!(succs.windows(2).all(|w| w[0] < w[1]), "{re:?} row {q}");
                assert!(succs.iter().all(|&t| nfa.symbol_of(t) == Some(&sym)));
            }
        }
    }

    /// A random expression over `a`, `b`, `c` built from the raw variants, so `Empty`
    /// and `Epsilon` survive under every operator and symbols repeat.
    fn random_regex(seed: &mut u64, depth: usize) -> Regex<char> {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let pick = (*seed >> 32) as usize;
        let sym = Regex::Sym(['a', 'b', 'c'][pick % 3]);
        if depth == 0 {
            return match pick % 8 {
                0 => Regex::Epsilon,
                1 => Regex::Empty,
                _ => sym,
            };
        }
        let mut parts = || -> Vec<Regex<char>> {
            (0..2 + pick / 8 % 2)
                .map(|_| random_regex(seed, depth - 1))
                .collect()
        };
        match pick % 7 {
            0 => sym,
            1 | 2 => Regex::Concat(parts()),
            3 => Regex::Alt(parts()),
            4 => Regex::Star(Box::new(random_regex(seed, depth - 1))),
            5 => Regex::Plus(Box::new(random_regex(seed, depth - 1))),
            _ => Regex::Opt(Box::new(random_regex(seed, depth - 1))),
        }
    }

    #[test]
    fn random_regexes_with_repeated_symbols() {
        let mut seed = 0x9e37_79b9_7f4a_7c15;
        let mut multi_successor_rows = 0;
        for _ in 0..150 {
            let re = random_regex(&mut seed, 3);
            assert_glushkov(&re);
            let nfa = Nfa::glushkov(&re);
            multi_successor_rows += (0..nfa.num_states())
                .flat_map(|q| nfa.transitions_from(q))
                .filter(|(_, succs)| succs.len() > 1)
                .count();
        }
        // Repeated symbols must exercise rows with several successors per symbol.
        assert!(multi_successor_rows > 0);
    }

    #[test]
    fn empty_and_epsilon_under_concat_plus_and_opt() {
        let eps = || Regex::Epsilon;
        let empty = || Regex::Empty;
        let cases = vec![
            Regex::Concat(vec![c('a'), eps(), c('b')]),
            Regex::Concat(vec![eps(), eps()]),
            Regex::Concat(vec![c('a'), empty(), c('b')]),
            Regex::Concat(vec![empty(), c('a')]),
            Regex::Plus(Box::new(eps())),
            Regex::Plus(Box::new(empty())),
            Regex::Plus(Box::new(Regex::Concat(vec![c('a'), eps()]))),
            Regex::Plus(Box::new(Regex::Alt(vec![c('a'), empty()]))),
            Regex::Opt(Box::new(eps())),
            Regex::Opt(Box::new(empty())),
            Regex::Opt(Box::new(Regex::Concat(vec![c('a'), empty()]))),
            Regex::Concat(vec![Regex::Opt(Box::new(empty())), c('c')]),
            Regex::Alt(vec![empty(), eps()]),
            Regex::Star(Box::new(empty())),
        ];
        for re in &cases {
            assert_glushkov(re);
        }
    }

    #[test]
    fn nested_nullable_sequences() {
        let opt = |re| Regex::Opt(Box::new(re));
        let star = |re| Regex::Star(Box::new(re));
        let cases = vec![
            // (a?, (b?, c?)?, a?)
            Regex::Concat(vec![
                opt(c('a')),
                opt(Regex::Concat(vec![opt(c('b')), opt(c('c'))])),
                opt(c('a')),
            ]),
            // ((a?, b*)*, c?)+
            Regex::Plus(Box::new(Regex::Concat(vec![
                star(Regex::Concat(vec![opt(c('a')), star(c('b'))])),
                opt(c('c')),
            ]))),
            // (a, (b?, (c?, a?)), b)
            Regex::Concat(vec![
                c('a'),
                Regex::Concat(vec![
                    opt(c('b')),
                    Regex::Concat(vec![opt(c('c')), opt(c('a'))]),
                ]),
                c('b'),
            ]),
            // ((a?)?, (b*, (c?)*))*
            star(Regex::Concat(vec![
                opt(opt(c('a'))),
                Regex::Concat(vec![star(c('b')), star(opt(c('c')))]),
            ])),
        ];
        for re in &cases {
            assert_glushkov(re);
        }
    }

    #[test]
    fn glushkov_accepts_same_language_as_derivatives() {
        // ((a|b)*,c) and (a+,b?)
        let cases = vec![
            Regex::concat(vec![Regex::star(Regex::alt(vec![c('a'), c('b')])), c('c')]),
            Regex::concat(vec![Regex::plus(c('a')), Regex::opt(c('b'))]),
            Regex::alt(vec![Regex::Epsilon, Regex::concat(vec![c('a'), c('b')])]),
            Regex::star(Regex::concat(vec![c('a'), Regex::opt(c('b'))])),
        ];
        let words: Vec<Vec<char>> = vec![
            vec![],
            vec!['a'],
            vec!['b'],
            vec!['c'],
            vec!['a', 'b'],
            vec!['a', 'c'],
            vec!['b', 'c'],
            vec!['a', 'b', 'c'],
            vec!['a', 'a', 'b'],
            vec!['a', 'b', 'a', 'b'],
            vec!['c', 'a'],
        ];
        for re in &cases {
            let nfa = Nfa::glushkov(re);
            for w in &words {
                assert_eq!(nfa.accepts(w), re.matches(w), "regex {re:?} word {w:?}");
            }
        }
    }

    #[test]
    fn shortest_word_of_nonempty_language() {
        let re = Regex::concat(vec![Regex::star(c('a')), c('b'), Regex::opt(c('c'))]);
        let nfa = Nfa::glushkov(&re);
        let w = nfa.shortest_word().unwrap();
        assert_eq!(w, vec!['b']);
        assert!(re.matches(&w));
    }

    #[test]
    fn empty_language_has_no_word() {
        let re: Regex<char> = Regex::Empty;
        let nfa = Nfa::glushkov(&re);
        assert!(nfa.is_empty());
        assert!(nfa.shortest_word().is_none());
    }

    #[test]
    fn epsilon_language_accepts_empty_word_only() {
        let re: Regex<char> = Regex::Epsilon;
        let nfa = Nfa::glushkov(&re);
        assert!(nfa.accepts(&[]));
        assert!(!nfa.accepts(&['a']));
        assert_eq!(nfa.shortest_word().unwrap(), Vec::<char>::new());
    }

    #[test]
    fn state_symbols_track_positions() {
        let re = Regex::concat(vec![c('a'), Regex::star(c('b'))]);
        let nfa = Nfa::glushkov(&re);
        assert_eq!(nfa.num_states(), 3);
        assert_eq!(nfa.symbol_of(0), None);
        assert_eq!(nfa.symbol_of(1), Some(&'a'));
        assert_eq!(nfa.symbol_of(2), Some(&'b'));
    }

    #[test]
    fn useful_states_excludes_dead_branches() {
        // a,! : the whole language is empty, nothing except maybe state 0 is useful.
        let re = Regex::Concat(vec![c('a'), Regex::Empty]);
        let nfa = Nfa::glushkov(&re);
        assert!(nfa.useful_states().is_empty());
    }

    #[test]
    fn step_uses_sorted_rows() {
        let re = Regex::star(Regex::alt(vec![c('a'), c('b'), c('c')]));
        let nfa = Nfa::glushkov(&re);
        for q in 0..nfa.num_states() {
            let row: Vec<char> = nfa.transitions_from(q).map(|(s, _)| *s).collect();
            let mut sorted = row.clone();
            sorted.sort();
            assert_eq!(row, sorted);
        }
        assert_eq!(nfa.step(0, &'b').collect::<Vec<_>>(), vec![2]);
        assert_eq!(nfa.step(0, &'z').count(), 0);
    }
}
