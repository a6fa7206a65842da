//! The DTD graph and the structural analyses built on it.
//!
//! The DTD graph `G_D` has the element types as vertices and an edge `(A, B)` whenever
//! `B` occurs in `P(A)` (Section 2.1 / proof of Theorem 4.1).  On top of it we compute:
//!
//! * recursion (cycle) detection — a DTD is *recursive* iff `G_D` has a cycle;
//! * reachability between element types — the `reach(↓*, A)` sets of Theorem 4.1;
//! * *terminating* types — types that derive at least one finite tree; the paper assumes
//!   all types terminating and notes the check reduces to CFG emptiness;
//! * minimal derivation heights and, for nonrecursive DTDs, the depth bound `|D|` used
//!   by Proposition 6.1.
//!
//! The graph is stored densely: vertices are interned [`Sym`] ids, adjacency is a
//! `Vec<Vec<Sym>>` and the full reachability closure is precomputed as one [`BitSet`]
//! row per vertex at construction time.  Recursion and the depth bound are likewise
//! computed once, so every per-query question ("does `A` reach `B`?", "is the DTD
//! recursive?") is an O(1) bit test instead of a fresh BFS.  The `&str`-based methods
//! are kept as a compatibility veneer over the dense core.

use crate::dtd::Dtd;
use crate::symbols::{Sym, SymbolTable};
use std::collections::{BTreeSet, VecDeque};
use xpsat_automata::BitSet;

/// The dependency graph of a DTD together with cached analyses.
#[derive(Debug, Clone)]
pub struct DtdGraph {
    symbols: SymbolTable,
    root: Sym,
    /// `succ[v]` lists the direct successors of `v`, sorted and deduplicated.
    succ: Vec<Vec<Sym>>,
    /// `succ_bits[v]` is the same set as a bitset row.
    succ_bits: Vec<BitSet>,
    /// `reach[v]` is the set of vertices reachable from `v` via one or more edges.
    reach: Vec<BitSet>,
    recursive: bool,
    depth_bound: Option<usize>,
}

impl DtdGraph {
    /// Build the graph of a DTD, including its reachability closure.
    pub fn new(dtd: &Dtd) -> DtdGraph {
        // Vertices: every declared type plus every name referenced in a content model,
        // interned in sorted order so ids are deterministic.
        let mut names: BTreeSet<String> = dtd.element_names().into_iter().collect();
        for (_, decl) in dtd.elements() {
            names.extend(decl.content.symbols());
        }
        let mut symbols = SymbolTable::new();
        for name in &names {
            symbols.intern(name);
        }
        let root = symbols
            .lookup(dtd.root())
            .expect("the root type is always declared");

        let n = symbols.len();
        let mut succ: Vec<Vec<Sym>> = vec![Vec::new(); n];
        for (name, decl) in dtd.elements() {
            let v = symbols.lookup(name).expect("declared types are interned");
            let targets: BTreeSet<String> = decl.content.symbols().into_iter().collect();
            succ[v.index()] = targets
                .iter()
                .map(|t| symbols.lookup(t).expect("referenced types are interned"))
                .collect();
        }
        let succ_bits: Vec<BitSet> = succ
            .iter()
            .map(|row| row.iter().map(|s| s.index()).collect())
            .collect();

        // Reachability closure: one BFS per vertex over the dense adjacency.
        let mut reach: Vec<BitSet> = Vec::with_capacity(n);
        for v in 0..n {
            let mut seen = BitSet::with_capacity(n);
            let mut queue: VecDeque<usize> = succ[v].iter().map(|s| s.index()).collect();
            for s in &succ[v] {
                seen.insert(s.index());
            }
            while let Some(t) = queue.pop_front() {
                for s in &succ[t] {
                    if seen.insert(s.index()) {
                        queue.push_back(s.index());
                    }
                }
            }
            reach.push(seen);
        }
        let recursive = (0..n).any(|v| reach[v].contains(v));
        let depth_bound = if recursive {
            None
        } else {
            // Longest path from the root in a DAG by memoised DFS.
            fn longest(succ: &[Vec<Sym>], v: usize, memo: &mut [Option<usize>]) -> usize {
                if let Some(d) = memo[v] {
                    return d;
                }
                let best = succ[v]
                    .iter()
                    .map(|s| 1 + longest(succ, s.index(), memo))
                    .max()
                    .unwrap_or(0);
                memo[v] = Some(best);
                best
            }
            let mut memo = vec![None; n];
            Some(longest(&succ, root.index(), &mut memo))
        };

        DtdGraph {
            symbols,
            root,
            succ,
            succ_bits,
            reach,
            recursive,
            depth_bound,
        }
    }

    // ---- dense (Sym) interface --------------------------------------------------

    /// The interner mapping element-type names to graph vertices.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The vertex of the root type.
    pub fn root_sym(&self) -> Sym {
        self.root
    }

    /// The vertex of a name, if the graph knows it.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.symbols.lookup(name)
    }

    /// The name of a vertex.
    pub fn name(&self, sym: Sym) -> &str {
        self.symbols.name(sym)
    }

    /// Direct successors of `v`, sorted.
    pub fn succ_syms(&self, v: Sym) -> &[Sym] {
        &self.succ[v.index()]
    }

    /// Direct successors of `v` as a bitset row.
    pub fn succ_bits(&self, v: Sym) -> &BitSet {
        &self.succ_bits[v.index()]
    }

    /// Is there an edge `a → b` (does `b` occur in `P(a)`)?
    pub fn has_edge(&self, a: Sym, b: Sym) -> bool {
        self.succ_bits[a.index()].contains(b.index())
    }

    /// The precomputed closure row of `v`: everything reachable via one or more edges.
    pub fn reach_bits(&self, v: Sym) -> &BitSet {
        &self.reach[v.index()]
    }

    /// Does `a` reach `b` via one or more edges?
    pub fn reaches(&self, a: Sym, b: Sym) -> bool {
        self.reach[a.index()].contains(b.index())
    }

    // ---- string compatibility veneer --------------------------------------------

    /// The element types `B` with an edge `A → B` (i.e. `B` occurs in `P(A)`).
    pub fn successors(&self, name: &str) -> BTreeSet<String> {
        match self.symbols.lookup(name) {
            Some(v) => self
                .succ_syms(v)
                .iter()
                .map(|s| self.symbols.name(*s).to_string())
                .collect(),
            None => BTreeSet::new(),
        }
    }

    /// All element types reachable from `from` by one or more edges (proper descendants
    /// in the type graph).
    pub fn reachable_from(&self, from: &str) -> BTreeSet<String> {
        match self.symbols.lookup(from) {
            Some(v) => self
                .reach_bits(v)
                .iter()
                .map(|i| self.symbols.name(Sym::from_index(i)).to_string())
                .collect(),
            None => BTreeSet::new(),
        }
    }

    /// All element types reachable from the root (including the root itself).
    pub fn reachable_from_root(&self) -> BTreeSet<String> {
        let mut out = self.reachable_from(self.symbols.name(self.root));
        out.insert(self.symbols.name(self.root).to_string());
        out
    }

    /// Is the DTD recursive, i.e. does the graph contain a cycle?  Precomputed.
    pub fn is_recursive(&self) -> bool {
        self.recursive
    }

    /// The length of the longest simple path from the root, for nonrecursive DTDs.
    ///
    /// Documents of a nonrecursive DTD have depth at most this bound; `None` when the
    /// DTD is recursive (no bound exists).  Precomputed.
    pub fn depth_bound(&self) -> Option<usize> {
        self.depth_bound
    }
}

/// The set of *terminating* element types of a DTD: types `A` for which some finite tree
/// rooted at an `A` element conforms to the DTD.
///
/// Computed as a least fixpoint: `A` is terminating as soon as `L(P(A))` contains a word
/// all of whose symbols are already known to be terminating.  This is the reduction to
/// context-free-grammar emptiness mentioned in Section 2.1.
pub fn terminating_types(dtd: &Dtd) -> BTreeSet<String> {
    let mut terminating: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (name, decl) in dtd.elements() {
            if terminating.contains(name) {
                continue;
            }
            let restricted = decl.content.restrict(&|s| terminating.contains(s));
            if !restricted.is_empty_language() {
                terminating.insert(name.clone());
                changed = true;
            }
        }
        if !changed {
            return terminating;
        }
    }
}

/// Remove non-terminating element types from a DTD: their occurrences are erased from
/// every content model (replaced by the empty language), and the types are dropped.
///
/// The paper assumes all element types are terminating "to simplify the discussion";
/// this function enforces that assumption.  Returns `None` when the root itself is
/// non-terminating (the DTD then has no conforming document at all).
pub fn prune_nonterminating(dtd: &Dtd) -> Option<Dtd> {
    let terminating = terminating_types(dtd);
    if !terminating.contains(dtd.root()) {
        return None;
    }
    let mut pruned = Dtd::new(dtd.root().to_string());
    for (name, decl) in dtd.elements() {
        if !terminating.contains(name) {
            continue;
        }
        let content = decl.content.restrict(&|s| terminating.contains(s));
        pruned.define(name.clone(), content);
        pruned.add_attributes(name.clone(), decl.attributes.iter().cloned());
    }
    Some(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dtd;

    #[test]
    fn recursion_detection() {
        let recursive = parse_dtd("r -> c; c -> (c, x)?; x -> #;").unwrap();
        assert!(DtdGraph::new(&recursive).is_recursive());
        let flat = parse_dtd("r -> a, b; a -> c; b -> #; c -> #;").unwrap();
        let graph = DtdGraph::new(&flat);
        assert!(!graph.is_recursive());
        assert_eq!(graph.depth_bound(), Some(2));
    }

    #[test]
    fn reachability() {
        let dtd = parse_dtd("r -> a; a -> b*; b -> #; z -> a;").unwrap();
        let graph = DtdGraph::new(&dtd);
        let from_root = graph.reachable_from_root();
        assert!(from_root.contains("a") && from_root.contains("b"));
        assert!(!from_root.contains("z"));
        assert_eq!(
            graph.successors("a").into_iter().collect::<Vec<_>>(),
            vec!["b"]
        );
    }

    #[test]
    fn dense_interface_agrees_with_string_interface() {
        let dtd = parse_dtd("r -> a, b; a -> c*; b -> a?; c -> #; z -> a;").unwrap();
        let graph = DtdGraph::new(&dtd);
        for name in dtd.element_names() {
            let v = graph.sym(&name).unwrap();
            assert_eq!(graph.name(v), name);
            let dense_succ: BTreeSet<String> = graph
                .succ_syms(v)
                .iter()
                .map(|s| graph.name(*s).to_string())
                .collect();
            assert_eq!(dense_succ, graph.successors(&name));
            let dense_reach: BTreeSet<String> = graph
                .reach_bits(v)
                .iter()
                .map(|i| graph.name(Sym::from_index(i)).to_string())
                .collect();
            assert_eq!(dense_reach, graph.reachable_from(&name));
            for other in dtd.element_names() {
                let w = graph.sym(&other).unwrap();
                assert_eq!(
                    graph.has_edge(v, w),
                    graph.successors(&name).contains(&other)
                );
                assert_eq!(
                    graph.reaches(v, w),
                    graph.reachable_from(&name).contains(&other)
                );
            }
        }
        assert_eq!(graph.name(graph.root_sym()), "r");
        assert!(graph.sym("nonexistent").is_none());
        assert!(graph.successors("nonexistent").is_empty());
        assert!(graph.reachable_from("nonexistent").is_empty());
    }

    #[test]
    fn terminating_analysis() {
        // b is non-terminating: it always requires another b.
        let dtd = parse_dtd("r -> a | b; a -> #; b -> b;").unwrap();
        let term = terminating_types(&dtd);
        assert!(term.contains("r") && term.contains("a"));
        assert!(!term.contains("b"));

        let pruned = prune_nonterminating(&dtd).unwrap();
        assert!(!pruned.contains("b"));
        // r's content is now effectively just `a`.
        assert!(pruned.content("r").unwrap().matches(&["a".into()]));
        assert!(!pruned.content("r").unwrap().matches(&["b".into()]));
    }

    #[test]
    fn nonterminating_root_yields_none() {
        let dtd = parse_dtd("r -> r;").unwrap();
        assert!(prune_nonterminating(&dtd).is_none());
    }

    /// The height (a leaf is 1) of the generator's minimal tree for every named type.
    fn minimal_heights(dtd: &Dtd, names: &[&str]) -> Vec<usize> {
        let generator = crate::TreeGenerator::new(dtd);
        names
            .iter()
            .map(|name| generator.minimal_tree(name).unwrap().height() + 1)
            .collect()
    }

    #[test]
    fn minimal_heights_reflect_structure() {
        let dtd = parse_dtd("r -> a; a -> b; b -> #;").unwrap();
        assert_eq!(minimal_heights(&dtd, &["b", "a", "r"]), [1, 2, 3]);
        // `a` reaches a leaf through `c, c` (height 2) in fewer levels than through
        // the shorter word `y` (height 3), although `y` is ranked first in symbol order.
        let text = "r -> a; a -> y | (c, c); c -> d; d -> #; w -> #; x -> w; y -> x;";
        let dtd = parse_dtd(text).unwrap();
        assert_eq!(
            minimal_heights(&dtd, &["d", "w", "c", "x", "y", "a", "r"]),
            [1, 1, 2, 2, 3, 3, 4]
        );
    }

    #[test]
    fn recursive_dtd_with_escape_has_finite_heights() {
        let dtd = parse_dtd("r -> c; c -> (c, x) | #; x -> #;").unwrap();
        assert_eq!(minimal_heights(&dtd, &["c", "r"]), [1, 2]);
        assert!(DtdGraph::new(&dtd).is_recursive());
        assert_eq!(DtdGraph::new(&dtd).depth_bound(), None);
    }
}
