//! The shared per-DTD artifact pipeline: everything the satisfiability engines need,
//! compiled exactly once per DTD.
//!
//! Every algorithm in the paper runs per-query over structures that depend only on the
//! DTD: the pruned (all-types-terminating) DTD of Section 2.1, the DTD graph with its
//! reachability closure (Theorem 4.1), the Glushkov automata of the content models
//! (Theorems 4.4, 5.2/5.3, 7.1) and the structural classification of Section 6 that
//! drives engine dispatch.  [`DtdArtifacts::build`] derives all of them in one pass and
//! interns every element-type and attribute name into a [`SymbolTable`], so the engines
//! index dense `Vec`s and bitsets by [`Sym`] instead of hashing `String`s.
//!
//! A service front-end builds the artifacts once per registered DTD and hands the same
//! `&DtdArtifacts` to every `decide` call — the one-compile-many-queries flow that makes
//! batched traffic pay DTD preprocessing exactly once.

use crate::classify::{classify, DtdClass};
use crate::dtd::Dtd;
use crate::generate::TreeGenerator;
use crate::graph::{prune_nonterminating, DtdGraph};
use crate::props::DtdProperties;
use crate::symbols::{Sym, SymbolTable};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xpsat_automata::{BitSet, Nfa};

/// A content-model automaton over interned element-type symbols.
pub type SymNfa = Nfa<Sym>;

/// Process-global source of artifact identities (see [`DtdArtifacts::uid`]).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// All precomputed artifacts of one DTD.
#[derive(Debug, Clone)]
pub struct DtdArtifacts {
    uid: u64,
    dtd: Dtd,
    class: DtdClass,
    compiled: Option<CompiledDtd>,
}

impl DtdArtifacts {
    /// Compile a DTD into its artifacts.  This is the only place in the workspace where
    /// per-DTD preprocessing happens; everything downstream borrows the result.
    pub fn build(dtd: &Dtd) -> DtdArtifacts {
        let class = classify(dtd);
        let compiled = prune_nonterminating(dtd).map(CompiledDtd::new);
        DtdArtifacts {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            dtd: dtd.clone(),
            class,
            compiled,
        }
    }

    /// Assemble artifacts from parts rehydrated out of a persistent store, skipping the
    /// classification and compilation passes.  The caller vouches that `class` and
    /// `compiled` were produced by [`DtdArtifacts::build`] (or an equivalent pipeline)
    /// for this exact `dtd`.
    pub fn from_cached_parts(
        dtd: Dtd,
        class: DtdClass,
        compiled: Option<CompiledDtd>,
    ) -> DtdArtifacts {
        DtdArtifacts {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            dtd,
            class,
            compiled,
        }
    }

    /// A process-unique identity for this compile, stable for the artifact's lifetime.
    /// Clones share the uid (they are the same compile), so per-artifact memo tables
    /// keyed by it stay valid across cheap handle copies.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The DTD exactly as registered (before pruning).
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The structural classification of the (unpruned) DTD.
    pub fn class(&self) -> &DtdClass {
        &self.class
    }

    /// The compiled form of the pruned DTD, or `None` when the root type is
    /// non-terminating — in which case no document conforms and every query is
    /// unsatisfiable.
    pub fn compiled(&self) -> Option<&CompiledDtd> {
        self.compiled.as_ref()
    }

    /// Number of content-model automata a full compile yields (one per terminating
    /// element type).  Does not force the lazy automata.
    pub fn automata_count(&self) -> usize {
        self.compiled.as_ref().map_or(0, |c| c.num_elements())
    }

    /// The structural properties of the pruned DTD (None when no document conforms).
    pub fn properties(&self) -> Option<&DtdProperties> {
        self.compiled.as_ref().map(|c| c.properties())
    }

    /// Force every lazily-initialised artifact: the Glushkov automata, their
    /// useful-state masks and the tree generator, which shares both.  Long-lived
    /// holders — the service workspace registering a DTD it will serve many queries
    /// against — warm eagerly so no decision ever pays first-touch latency; one-shot
    /// `Solver::decide` callers skip this and only build what their engine actually
    /// walks.
    pub fn warm(&self) {
        if let Some(compiled) = &self.compiled {
            compiled.warm();
        }
    }
}

/// The dense, symbol-interned compilation of a pruned DTD.
///
/// The cheap, always-needed structures (interner, dense graph with reachability
/// closure, attribute sets) are built eagerly; the rest — the per-element Glushkov
/// automata, their useful-state masks and the [`TreeGenerator`] — live behind
/// [`OnceLock`]s and are built on first touch.  A one-shot `Solver::decide` whose query
/// dispatches to the downward or disjunction-free engine (pure graph reachability)
/// never constructs an automaton at all; the service workspace calls
/// [`CompiledDtd::warm`] once at registration instead.
///
/// The automata and masks sit behind [`Arc`]s: the generator shares them, and a clone
/// of the compile copies two pointers rather than every automaton.
#[derive(Debug, Clone)]
pub struct CompiledDtd {
    dtd: Dtd,
    size: usize,
    symbols: SymbolTable,
    num_elements: usize,
    root: Sym,
    graph: DtdGraph,
    /// Structural properties (duplicate-free, capsuled, covering, …) of the pruned DTD.
    props: DtdProperties,
    /// Declared attribute names per element symbol.
    attrs: Vec<BTreeSet<String>>,
    /// Glushkov automaton of `P(A)` indexed by the element symbol of `A` (lazy).
    automata: OnceLock<Arc<[SymNfa]>>,
    /// Useful (accessible and co-accessible) states of each automaton (lazy).
    useful: OnceLock<Arc<[BitSet]>>,
    /// The tree generator (lazy; shares the automata and masks above).
    generator: OnceLock<TreeGenerator>,
}

impl CompiledDtd {
    pub(crate) fn new(pruned: Dtd) -> CompiledDtd {
        let graph = DtdGraph::new(&pruned);
        let props = DtdProperties::analyze(&pruned, &graph);
        // Pruned DTDs reference declared types only, so the graph's vertices are
        // exactly the element types; extend its table with the attribute names so one
        // interner covers both namespaces (elements occupy the dense prefix).
        let mut symbols = graph.symbols().clone();
        let num_elements = symbols.len();
        debug_assert_eq!(num_elements, pruned.element_names().len());
        for attr in pruned.all_attributes() {
            symbols.intern(&attr);
        }
        let root = graph.root_sym();

        let mut attrs = Vec::with_capacity(num_elements);
        for index in 0..num_elements {
            let name = symbols.name(Sym::from_index(index)).to_string();
            let decl = pruned
                .element(&name)
                .expect("graph vertices of a pruned DTD are declared");
            attrs.push(decl.attributes.clone());
        }
        CompiledDtd {
            size: pruned.size(),
            dtd: pruned,
            symbols,
            num_elements,
            root,
            graph,
            props,
            attrs,
            automata: OnceLock::new(),
            useful: OnceLock::new(),
            generator: OnceLock::new(),
        }
    }

    /// Rebuild a compile from a pruned DTD plus automata and useful-state masks that
    /// were serialised out of an earlier compile, skipping the Glushkov construction
    /// and the useful-state analysis.
    ///
    /// The eager structures (interner, graph, attribute sets) are re-derived from the
    /// pruned DTD — [`DtdGraph::new`] interns element names in sorted order, so symbol
    /// ids are deterministic and the stored `Sym`-indexed automata remain valid.
    /// Callers must verify that `element names in id order` match the serialised
    /// compile before trusting the indices (the persistent store does).
    ///
    /// # Panics
    /// Panics when `automata` or `useful` do not have one entry per element type.
    pub fn from_cached_automata(
        pruned: Dtd,
        automata: Vec<SymNfa>,
        useful: Vec<BitSet>,
    ) -> CompiledDtd {
        let compiled = CompiledDtd::new(pruned);
        assert_eq!(
            automata.len(),
            compiled.num_elements,
            "from_cached_automata: one automaton per element type"
        );
        assert_eq!(
            useful.len(),
            compiled.num_elements,
            "from_cached_automata: one useful-state mask per element type"
        );
        compiled
            .automata
            .set(automata.into())
            .expect("fresh compile has no automata yet");
        compiled
            .useful
            .set(useful.into())
            .expect("fresh compile has no useful masks yet");
        compiled
    }

    /// The automata, built on first touch.
    fn automata(&self) -> &Arc<[SymNfa]> {
        self.automata.get_or_init(|| {
            (0..self.num_elements)
                .map(|index| {
                    let name = self.symbols.name(Sym::from_index(index));
                    let decl = self
                        .dtd
                        .element(name)
                        .expect("graph vertices of a pruned DTD are declared");
                    let content = decl.content.map_symbols(&|s| {
                        self.graph
                            .sym(s)
                            .expect("pruned content references declared types")
                    });
                    Nfa::glushkov(&content)
                })
                .collect()
        })
    }

    /// The useful-state masks, built on first touch (forces the automata).
    fn useful_vec(&self) -> &Arc<[BitSet]> {
        self.useful
            .get_or_init(|| self.automata().iter().map(Nfa::useful_states).collect())
    }

    /// Force every lazy artifact now (see [`DtdArtifacts::warm`]).
    pub fn warm(&self) {
        let _ = self.useful_vec();
        let _ = self.generator();
    }

    /// The pruned DTD (all element types terminating).
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// `|D|` of the pruned DTD (used by the small-model bounds).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The interner covering element types (dense prefix) and attribute names.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of element types.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The root element symbol.
    pub fn root(&self) -> Sym {
        self.root
    }

    /// The DTD graph with its precomputed reachability closure.
    pub fn graph(&self) -> &DtdGraph {
        &self.graph
    }

    /// The structural properties of the pruned DTD (computed eagerly at compile:
    /// every construction path — fresh build or store rehydration — goes through
    /// `CompiledDtd::new`, so no store format change is needed).
    pub fn properties(&self) -> &DtdProperties {
        &self.props
    }

    /// The tree generator (minimal expansions, random sampling), built on first touch
    /// (forces the automata and useful-state masks).  It shares this compile's
    /// automata and masks, so forcing it never runs the Glushkov construction twice
    /// and copies no automaton.
    pub fn generator(&self) -> &TreeGenerator {
        self.generator.get_or_init(|| {
            TreeGenerator::from_parts(
                &self.dtd,
                self.symbols.clone(),
                Arc::clone(self.automata()),
                Arc::clone(self.useful_vec()),
            )
        })
    }

    /// The element symbol of `name`, if it is a declared element type.
    pub fn elem_sym(&self, name: &str) -> Option<Sym> {
        self.symbols
            .lookup(name)
            .filter(|s| s.index() < self.num_elements)
    }

    /// The name behind any interned symbol.
    pub fn name(&self, sym: Sym) -> &str {
        self.symbols.name(sym)
    }

    /// All element symbols in id order.
    pub fn elements(&self) -> impl Iterator<Item = Sym> {
        (0..self.num_elements).map(Sym::from_index)
    }

    /// The Glushkov automaton of `P(A)` for element symbol `A` (forces the lazy build
    /// on first touch).
    pub fn automaton(&self, elem: Sym) -> &SymNfa {
        &self.automata()[elem.index()]
    }

    /// The useful (on-some-accepting-run) states of `A`'s automaton (forces the lazy
    /// build on first touch).
    pub fn useful_states(&self, elem: Sym) -> &BitSet {
        &self.useful_vec()[elem.index()]
    }

    /// The declared attribute set `R(A)`.
    pub fn attributes(&self, elem: Sym) -> &BTreeSet<String> {
        &self.attrs[elem.index()]
    }

    /// Does element type `A` declare attribute `attr`?
    pub fn has_attribute(&self, elem: Sym, attr: &str) -> bool {
        self.attrs[elem.index()].contains(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dtd;

    #[test]
    fn artifacts_cover_all_terminating_types() {
        let dtd = parse_dtd(
            "r -> a*, b; a -> c | d; b -> #; c -> #; d -> #; dead -> dead; @a: id, name;",
        )
        .unwrap();
        let art = DtdArtifacts::build(&dtd);
        assert_eq!(art.dtd(), &dtd);
        assert!(!art.class().recursive || art.class().recursive); // classification present
        let compiled = art.compiled().unwrap();
        // `dead` is non-terminating and pruned away.
        assert_eq!(compiled.num_elements(), 5);
        assert!(compiled.elem_sym("dead").is_none());
        assert_eq!(art.automata_count(), 5);
        let a = compiled.elem_sym("a").unwrap();
        assert!(compiled.has_attribute(a, "id"));
        assert!(!compiled.has_attribute(a, "missing"));
        assert_eq!(compiled.name(compiled.root()), "r");
        // The automaton of `r` accepts `b` alone and `a a b`, in interned form.
        let b = compiled.elem_sym("b").unwrap();
        let nfa = compiled.automaton(compiled.root());
        assert!(nfa.accepts(&[b]));
        assert!(nfa.accepts(&[a, a, b]));
        assert!(!nfa.accepts(&[a]));
    }

    #[test]
    fn nonterminating_root_compiles_to_none() {
        let dtd = parse_dtd("r -> r;").unwrap();
        let art = DtdArtifacts::build(&dtd);
        assert!(art.compiled().is_none());
        assert_eq!(art.automata_count(), 0);
    }

    #[test]
    fn cached_automata_rebuild_matches_fresh_compile() {
        let dtd = parse_dtd("r -> a*, b; a -> c | d; b -> #; c -> #; d -> #; @a: id;").unwrap();
        let fresh = DtdArtifacts::build(&dtd);
        let compiled = fresh.compiled().unwrap();
        compiled.warm();
        let automata: Vec<SymNfa> = compiled
            .elements()
            .map(|e| compiled.automaton(e).clone())
            .collect();
        let useful: Vec<BitSet> = compiled
            .elements()
            .map(|e| compiled.useful_states(e).clone())
            .collect();
        let rebuilt = CompiledDtd::from_cached_automata(compiled.dtd().clone(), automata, useful);
        assert_eq!(rebuilt.num_elements(), compiled.num_elements());
        assert_eq!(rebuilt.root(), compiled.root());
        for sym in compiled.elements() {
            assert_eq!(rebuilt.name(sym), compiled.name(sym));
            let word = compiled.automaton(sym).shortest_word();
            assert_eq!(rebuilt.automaton(sym).shortest_word(), word);
            assert_eq!(
                rebuilt.useful_states(sym).iter().collect::<Vec<_>>(),
                compiled.useful_states(sym).iter().collect::<Vec<_>>()
            );
        }
        let cached = DtdArtifacts::from_cached_parts(dtd.clone(), fresh.class().clone(), None);
        assert_ne!(cached.uid(), fresh.uid());
        assert_eq!(fresh.clone().uid(), fresh.uid());
    }

    #[test]
    fn element_ids_agree_with_graph_ids() {
        let dtd = parse_dtd("r -> x, y; x -> #; y -> x?;").unwrap();
        let art = DtdArtifacts::build(&dtd);
        let compiled = art.compiled().unwrap();
        for sym in compiled.elements() {
            let name = compiled.name(sym).to_string();
            assert_eq!(compiled.graph().sym(&name), Some(sym));
            assert_eq!(compiled.elem_sym(&name), Some(sym));
        }
    }
}
