//! Generation of conforming documents: minimal expansions and random sampling.
//!
//! The satisfiability engines build *partial* witness trees (a spine of nodes the query
//! needs) and then expand every node into a full conforming document; the constructions
//! in the proofs of Theorems 4.1 and 4.4 do exactly this ("by using productions of the
//! DTD, we expand the tree into a finite XML tree conforming to D").  [`TreeGenerator`]
//! performs those expansions:
//!
//! * [`TreeGenerator::minimal_tree`] — a smallest-height conforming tree for a type;
//! * [`TreeGenerator::attach_minimal`] — graft such a tree below an existing node;
//! * [`TreeGenerator::random_tree`] — a random conforming document, used by the property
//!   tests and benchmark workloads (depth- and width-bounded so recursion terminates).
//!
//! A generator works over the *pruned* DTD (every type terminating, see
//! [`prune_nonterminating`]) and over interned [`Sym`] ids: it shares the Glushkov
//! automata and useful-state masks of a [`CompiledDtd`] instead of copying them, and —
//! crucially for the witness-expansion hot path — the minimal children word of every
//! type is precomputed once at construction, so `expand_minimal` is a table lookup
//! plus node insertion instead of a per-node covering-word BFS over `String` labels.

use crate::artifacts::{CompiledDtd, SymNfa};
use crate::dtd::Dtd;
use crate::graph::prune_nonterminating;
use crate::symbols::{Sym, SymbolTable};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xpsat_automata::{BitSet, CoverDemand, Regex};
use xpsat_xmltree::{Document, NodeId};

/// A generator of conforming documents for one DTD.
///
/// It holds the content-model automata of the pruned DTD (shared with the compile they
/// came from), their useful-state masks and the minimal children word of every type,
/// so repeated expansions are cheap.
#[derive(Debug, Clone)]
pub struct TreeGenerator {
    /// The DTD expansions fill attributes from: the pruned DTD, or the DTD given to
    /// [`TreeGenerator::new`].
    dtd: Dtd,
    /// Element types in the dense prefix `0..automata.len()`; any later symbols
    /// (attribute names) resolve to no element.
    symbols: SymbolTable,
    /// Content-model automaton per element symbol.  Every type is terminating, so
    /// every symbol on a transition can be expanded.
    automata: Arc<[SymNfa]>,
    /// Per element symbol: the useful states of its automaton.  The sampler walks
    /// forward from the initial state, so these are the states from which acceptance
    /// stays reachable.
    useful: Arc<[BitSet]>,
    /// Precomputed minimal children word per element symbol.
    minimal_words: Vec<Vec<Sym>>,
}

impl TreeGenerator {
    /// Build a generator for a DTD: the generator of its compile (so this also builds
    /// the DTD's graph closure and properties).  Non-terminating types are pruned away
    /// and resolve to no element; when the root itself is non-terminating no document
    /// conforms, and the generator resolves no type at all.  [`TreeGenerator::dtd`]
    /// and attribute filling still see `dtd` as given.
    pub fn new(dtd: &Dtd) -> TreeGenerator {
        match prune_nonterminating(dtd) {
            Some(pruned) => TreeGenerator {
                dtd: dtd.clone(),
                ..CompiledDtd::new(pruned).generator().clone()
            },
            None => TreeGenerator {
                dtd: dtd.clone(),
                symbols: SymbolTable::new(),
                automata: Arc::from(Vec::new()),
                useful: Arc::from(Vec::new()),
                minimal_words: Vec::new(),
            },
        }
    }

    /// Build a generator over a pruned DTD from its compiled parts, sharing them.
    /// `symbols` must intern the element types as its dense prefix, in the order of
    /// `automata`, with `automata[A]` the Glushkov automaton of `P(A)` and `useful[A]`
    /// its useful states.
    pub(crate) fn from_parts(
        pruned: &Dtd,
        symbols: SymbolTable,
        automata: Arc<[SymNfa]>,
        useful: Arc<[BitSet]>,
    ) -> TreeGenerator {
        let heights = minimal_heights(pruned, &symbols, automata.len());
        // Minimal children word per type: the shortest word of the content model over
        // types of strictly smaller minimal height (such a word exists by the
        // definition of minimal heights).  Computed once; every expansion reuses it.
        let minimal_words: Vec<Vec<Sym>> = automata
            .iter()
            .zip(&heights)
            .map(|(nfa, &height)| {
                let my_height = height.unwrap_or(1);
                nfa.shortest_word_over(|s| heights[s.index()].is_some_and(|h| h < my_height))
                    .or_else(|| nfa.shortest_word())
                    .unwrap_or_default()
            })
            .collect();

        TreeGenerator {
            dtd: pruned.clone(),
            symbols,
            automata,
            useful,
            minimal_words,
        }
    }

    /// The DTD this generator expands against.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Is this element type terminating (does it derive any finite tree)?
    pub fn is_terminating(&self, name: &str) -> bool {
        self.elem(name).is_some()
    }

    /// The element symbol of `name`: every type of the pruned DTD, so exactly the
    /// terminating types of the original one.
    fn elem(&self, name: &str) -> Option<Sym> {
        self.symbols
            .lookup(name)
            .filter(|sym| sym.index() < self.automata.len())
    }

    /// A minimal-height conforming tree rooted at an element of type `label`.
    /// Returns `None` when the type is not terminating (or not declared).
    pub fn minimal_tree(&self, label: &str) -> Option<Document> {
        let sym = self.elem(label)?;
        let mut doc = Document::new(label);
        let root = doc.root();
        self.expand_minimal_sym(&mut doc, root, sym);
        Some(doc)
    }

    /// Graft a minimal conforming subtree of type `label` as the last child of `parent`.
    /// Returns the new child's id, or `None` for non-terminating types.
    pub fn attach_minimal(
        &self,
        doc: &mut Document,
        parent: NodeId,
        label: &str,
    ) -> Option<NodeId> {
        let sym = self.elem(label)?;
        let child = doc.add_child(parent, label);
        self.expand_minimal_sym(doc, child, sym);
        Some(child)
    }

    /// Expand `node` (assumed childless) into a minimal conforming subtree, filling
    /// declared attributes with the placeholder value `"0"`.
    pub fn expand_minimal(&self, doc: &mut Document, node: NodeId) {
        match self.elem(doc.label(node)) {
            Some(sym) => self.expand_minimal_sym(doc, node, sym),
            None => {
                let label = doc.label(node).to_string();
                self.fill_attributes(doc, node, &label);
            }
        }
    }

    /// [`TreeGenerator::expand_minimal`] with the label already resolved: a walk over
    /// the precomputed minimal-word table.
    fn expand_minimal_sym(&self, doc: &mut Document, node: NodeId, sym: Sym) {
        let label = self.symbols.name(sym).to_string();
        self.fill_attributes(doc, node, &label);
        // Minimal words only mention types of strictly smaller minimal height, so the
        // recursion terminates even on recursive DTDs.
        for &child_sym in &self.minimal_words[sym.index()] {
            let child = doc.add_child(node, self.symbols.name(child_sym));
            self.expand_minimal_sym(doc, child, child_sym);
        }
    }

    /// Expand `node` (assumed childless) with a children word satisfying `demand`, then
    /// minimally expand every child.  Returns the ids of the children, or `None` when
    /// the content model cannot satisfy the demand.
    pub fn expand_with_demand(
        &self,
        doc: &mut Document,
        node: NodeId,
        demand: &CoverDemand<String>,
    ) -> Option<Vec<NodeId>> {
        let label = doc.label(node).to_string();
        self.fill_attributes(doc, node, &label);
        let sym = self.elem(&label)?;
        let nfa = &self.automata[sym.index()];
        // Lower the demand to interned form.  A required name the interner has never
        // seen cannot occur in any children word, so the demand is unsatisfiable.
        let mut sym_demand: CoverDemand<Sym> = CoverDemand::none();
        for (name, &count) in &demand.required {
            match self.symbols.lookup(name) {
                Some(s) => {
                    sym_demand = sym_demand.require(s, count);
                }
                None if count > 0 => return None,
                None => {}
            }
        }
        if let Some(allowed) = &demand.allowed {
            let allowed_syms: BTreeSet<Sym> = allowed
                .iter()
                .filter_map(|name| self.symbols.lookup(name))
                .collect();
            sym_demand = sym_demand.restrict_to(allowed_syms);
        }
        let word = xpsat_automata::shortest_covering_word(nfa, &sym_demand)?;
        let mut children = Vec::with_capacity(word.len());
        for &child_sym in &word {
            let child = doc.add_child(node, self.symbols.name(child_sym));
            children.push(child);
        }
        for (child, &child_sym) in children.iter().zip(&word) {
            self.expand_minimal_sym(doc, *child, child_sym);
        }
        Some(children)
    }

    /// A random conforming document.  Depth is limited by `max_depth` (beyond it the
    /// expansion switches to minimal words); child-word sampling is bounded by
    /// `max_word_len` repetitions through starred positions.
    pub fn random_tree<R: Rng>(
        &self,
        rng: &mut R,
        max_depth: usize,
        max_word_len: usize,
    ) -> Document {
        let mut doc = Document::new(self.dtd.root());
        let root = doc.root();
        self.expand_random(&mut doc, root, rng, max_depth, max_word_len);
        doc
    }

    fn expand_random<R: Rng>(
        &self,
        doc: &mut Document,
        node: NodeId,
        rng: &mut R,
        depth_budget: usize,
        max_word_len: usize,
    ) {
        let label = doc.label(node).to_string();
        let Some(sym) = self.elem(&label) else {
            return;
        };
        if depth_budget == 0 {
            self.expand_minimal_sym(doc, node, sym);
            return;
        }
        self.fill_attributes(doc, node, &label);
        let nfa = &self.automata[sym.index()];
        let word = sample_word(nfa, &self.useful[sym.index()], rng, max_word_len);
        for child_sym in word {
            let child = doc.add_child(node, self.symbols.name(child_sym));
            self.expand_random(doc, child, rng, depth_budget - 1, max_word_len);
        }
        // Randomise attribute values a little so data-value queries see variety.
        let attrs: Vec<String> = self.dtd.attributes(&label).into_iter().collect();
        for attr in attrs {
            let value = format!("v{}", rng.gen_range(0..4));
            doc.set_attr(node, attr, value);
        }
    }

    fn fill_attributes(&self, doc: &mut Document, node: NodeId, label: &str) {
        for attr in self.dtd.attributes(label) {
            if doc.attr(node, &attr).is_none() {
                doc.set_attr(node, attr, "0");
            }
        }
    }
}

/// Random walk over the Glushkov automaton, biased towards stopping once an accepting
/// state is reached.  The walk only ever visits useful states, so the returned word is
/// always in the language.
fn sample_word<R: Rng>(nfa: &SymNfa, useful: &BitSet, rng: &mut R, max_len: usize) -> Vec<Sym> {
    if !useful.contains(nfa.start()) {
        return Vec::new();
    }
    let mut word = Vec::new();
    let mut state = nfa.start();
    let mut options: Vec<(Sym, usize)> = Vec::new();
    while word.len() < max_len {
        if nfa.is_accepting(state) && rng.gen_bool(0.4) {
            return word;
        }
        options.clear();
        for (sym, succs) in nfa.transitions_from(state) {
            options.extend(
                succs
                    .iter()
                    .filter(|s| useful.contains(**s))
                    .map(|&s| (*sym, s)),
            );
        }
        if options.is_empty() {
            break;
        }
        let (sym, next) = options[rng.gen_range(0..options.len())];
        word.push(sym);
        state = next;
    }
    // Completion phase: append a shortest accepted suffix from the current state.
    word.extend(shortest_suffix(nfa, state, useful));
    word
}

/// A shortest word leading from `state` to acceptance through useful states.
fn shortest_suffix(nfa: &SymNfa, state: usize, useful: &BitSet) -> Vec<Sym> {
    use std::collections::VecDeque;
    if nfa.is_accepting(state) {
        return Vec::new();
    }
    let mut pred: BTreeMap<usize, (usize, Sym)> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(state);
    let mut goal = None;
    'search: while let Some(q) = queue.pop_front() {
        for (sym, succs) in nfa.transitions_from(q) {
            for &next in succs {
                if next != state && !pred.contains_key(&next) && useful.contains(next) {
                    pred.insert(next, (q, *sym));
                    if nfa.is_accepting(next) {
                        goal = Some(next);
                        break 'search;
                    }
                    queue.push_back(next);
                }
            }
        }
    }
    let Some(mut cur) = goal else {
        return Vec::new();
    };
    let mut suffix = Vec::new();
    while cur != state {
        let (prev, sym) = pred[&cur];
        suffix.push(sym);
        cur = prev;
    }
    suffix.reverse();
    suffix
}

/// Minimal achievable subtree height per element type of a pruned DTD (a leaf-only
/// expansion has height 1), indexed by the element symbols `0..num_elements` of
/// `symbols`.  A type becomes rankable once its content model has a word over ranked
/// types; its height is then 1 + the least bound `h` such that the model has a word
/// over types of height at most `h` (0 when it is nullable).  Types are visited in
/// symbol order and ranked as soon as they are visited, as
/// [`crate::graph::minimal_heights`] does over `String`-keyed content models; each
/// visit is one pass over the interned content model.
fn minimal_heights(pruned: &Dtd, symbols: &SymbolTable, num_elements: usize) -> Vec<Option<usize>> {
    let contents: Vec<Regex<Sym>> = (0..num_elements)
        .map(|index| {
            let name = symbols.name(Sym::from_index(index));
            let decl = pruned.element(name).expect("element symbols are declared");
            decl.content.map_symbols(&|s| {
                symbols
                    .lookup(s)
                    .expect("pruned content references declared types")
            })
        })
        .collect();
    let mut heights: Vec<Option<usize>> = vec![None; num_elements];
    loop {
        let mut changed = false;
        for (index, content) in contents.iter().enumerate() {
            if heights[index].is_some() {
                continue;
            }
            if let Some(bound) = bottleneck(content, &heights) {
                heights[index] = Some(1 + bound);
                changed = true;
            }
        }
        if !changed {
            return heights;
        }
    }
}

/// The least `h` such that `re` has a word over ranked symbols of height at most `h`
/// (0 for the empty word), or `None` when it has no word over ranked symbols.
fn bottleneck(re: &Regex<Sym>, heights: &[Option<usize>]) -> Option<usize> {
    match re {
        Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => Some(0),
        Regex::Empty => None,
        Regex::Sym(s) => heights[s.index()],
        Regex::Concat(parts) => parts
            .iter()
            .try_fold(0, |bound, part| Some(bound.max(bottleneck(part, heights)?))),
        Regex::Alt(parts) => parts
            .iter()
            .filter_map(|part| bottleneck(part, heights))
            .min(),
        Regex::Plus(inner) => bottleneck(inner, heights),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dtd;
    use crate::validate::validate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bookstore() -> Dtd {
        parse_dtd(
            "root store; store -> book*; book -> title, author+, price?;\n\
             title -> #; author -> #; price -> #; @book: isbn;",
        )
        .unwrap()
    }

    /// A chain `b000 -> b001 -> … -> #` that runs against symbol order, so the fixpoint
    /// ranks one type per sweep, beside a type `s` whose content model, a starred
    /// alternation over the whole chain followed by the chain's head, stays unranked
    /// until the last sweep.
    fn chain_against_symbol_order(len: usize) -> String {
        let mut text = String::from("r -> s, b000; ");
        for i in 0..len - 1 {
            text.push_str(&format!("b{i:03} -> b{:03}; ", i + 1));
        }
        text.push_str(&format!("b{:03} -> #; s -> (", len - 1));
        let names: Vec<String> = (0..len).map(|i| format!("b{i:03}")).collect();
        text.push_str(&names.join(" | "));
        text.push_str(")*, b000;");
        text
    }

    #[test]
    fn heights_over_interned_models_agree_with_heights_over_content_models() {
        // In the fourth DTD, `a` is visited after `y` (height 3) is ranked but before
        // `c` (height 2) is, so it is ranked 4, not 3: both computations must keep
        // that dependence on the visiting order.
        let chain = chain_against_symbol_order(150);
        for text in [
            "r -> a; a -> b; b -> #;",
            "r -> c; c -> (c, x) | #; x -> #;",
            "r -> (a, b?)+ | c*; a -> b | c; b -> c; c -> #;",
            "r -> a; a -> y | c; c -> d; d -> #; w -> #; x -> w; y -> x;",
            &chain,
        ] {
            let pruned = prune_nonterminating(&parse_dtd(text).unwrap()).unwrap();
            let compiled = CompiledDtd::new(pruned.clone());
            let by_name = crate::graph::minimal_heights(&pruned);
            let heights: BTreeMap<String, usize> =
                minimal_heights(&pruned, compiled.symbols(), compiled.num_elements())
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| (compiled.name(Sym::from_index(i)).to_string(), h.unwrap()))
                    .collect();
            assert_eq!(heights, by_name, "{text}");
        }
        let pruned = prune_nonterminating(&parse_dtd(&chain).unwrap()).unwrap();
        let heights = crate::graph::minimal_heights(&pruned);
        assert_eq!(heights["b000"], 150);
        assert_eq!(heights["s"], 151);
    }

    #[test]
    fn generator_of_a_dtd_keeps_its_declarations() {
        // `x` and `y` do not terminate; the generator resolves neither, but `dtd()` is
        // the DTD it was built from and attribute filling sees every declaration.
        let dtd = parse_dtd("r -> a, x?; a -> #; x -> y; y -> x; @a: id; @x: ref;").unwrap();
        let gen = TreeGenerator::new(&dtd);
        assert_eq!(gen.dtd(), &dtd);
        assert!(gen.is_terminating("a"));
        assert!(!gen.is_terminating("x"));
        let mut doc = Document::new("x");
        let root = doc.root();
        gen.expand_minimal(&mut doc, root);
        assert_eq!(doc.len(), 1);
        assert_eq!(doc.attr(root, "ref"), Some("0"));
        let tree = gen.minimal_tree("r").unwrap();
        assert!(validate(&tree, &dtd).is_ok());
    }

    #[test]
    fn nonterminating_root_generator_resolves_no_type() {
        let dtd = parse_dtd("r -> r, a; a -> #;").unwrap();
        let gen = TreeGenerator::new(&dtd);
        assert_eq!(gen.dtd(), &dtd);
        assert!(gen.minimal_tree("r").is_none());
        assert!(gen.minimal_tree("a").is_none());
        assert!(!gen.is_terminating("a"));
        let doc = gen.random_tree(&mut StdRng::seed_from_u64(3), 3, 3);
        assert_eq!(doc.len(), 1);
    }

    #[test]
    fn minimal_tree_conforms() {
        let dtd = bookstore();
        let gen = TreeGenerator::new(&dtd);
        let doc = gen.minimal_tree("store").unwrap();
        assert_eq!(validate(&doc, &dtd), Ok(()));
        // store -> book* : the minimal tree is just the root.
        assert_eq!(doc.len(), 1);

        let book_tree = gen.minimal_tree("book").unwrap();
        // book needs title and at least one author.
        assert_eq!(book_tree.len(), 3);
    }

    #[test]
    fn recursive_dtd_minimal_trees_terminate() {
        let dtd = parse_dtd("r -> c; c -> (c, x) | #; x -> #;").unwrap();
        let gen = TreeGenerator::new(&dtd);
        let doc = gen.minimal_tree("r").unwrap();
        assert_eq!(validate(&doc, &dtd), Ok(()));
        assert!(doc.len() <= 3);
    }

    #[test]
    fn nonterminating_types_are_rejected() {
        let dtd = parse_dtd("r -> a | b; a -> #; b -> b;").unwrap();
        let gen = TreeGenerator::new(&dtd);
        assert!(gen.minimal_tree("b").is_none());
        assert!(gen.minimal_tree("r").is_some());
        assert!(!gen.is_terminating("b"));
    }

    #[test]
    fn expansion_with_demand_covers_required_children() {
        let dtd = bookstore();
        let gen = TreeGenerator::new(&dtd);
        let mut doc = Document::new("store");
        let root = doc.root();
        let demand = CoverDemand::none().require("book".to_string(), 3);
        let children = gen.expand_with_demand(&mut doc, root, &demand).unwrap();
        assert_eq!(children.len(), 3);
        assert_eq!(validate(&doc, &dtd), Ok(()));
    }

    #[test]
    fn expansion_with_unknown_required_name_fails() {
        let dtd = bookstore();
        let gen = TreeGenerator::new(&dtd);
        let mut doc = Document::new("store");
        let root = doc.root();
        let demand = CoverDemand::none().require("ghost".to_string(), 1);
        assert!(gen.expand_with_demand(&mut doc, root, &demand).is_none());
    }

    #[test]
    fn random_trees_conform() {
        let dtd = bookstore();
        let gen = TreeGenerator::new(&dtd);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let doc = gen.random_tree(&mut rng, 4, 5);
            assert_eq!(validate(&doc, &dtd), Ok(()), "doc: {doc}");
        }
    }

    #[test]
    fn random_trees_conform_for_recursive_dtds() {
        let dtd = parse_dtd(
            "r -> c; c -> (c, r1, r2) | #; r1 -> x | #; r2 -> y | #; x -> x | #; y -> y | #;",
        )
        .unwrap();
        let gen = TreeGenerator::new(&dtd);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let doc = gen.random_tree(&mut rng, 5, 4);
            assert_eq!(validate(&doc, &dtd), Ok(()), "doc: {doc}");
        }
    }
}
