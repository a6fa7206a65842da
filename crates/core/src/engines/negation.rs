//! An EXPTIME decision procedure for downward fragments with negation, covering the
//! upper bounds of Theorems 5.2 and 5.3 restricted to `X(↓, ↓*, ∪, [], ¬)` (with label
//! tests, without data values, upward or sibling axes).
//!
//! The paper obtains its EXPTIME upper bound by translation to propositional dynamic
//! logic (Marx 2004); we use a self-contained *subtree-type fixpoint* in the same
//! complexity class.  For a downward query the truth of every relevant sub-path at a
//! node depends only on the node's label and on which (label, sub-path-truth) facts its
//! children provide.  The engine therefore:
//!
//! 1. computes the *suffix closure* `CL` of the query (every path whose truth at a node
//!    must be tracked) and the set `D` of *child demands* `(child-step, tail)` that the
//!    closure's head-normal forms mention;
//! 2. computes, per element type, the set of achievable *profiles* (subsets of `CL` true
//!    at the root of some conforming subtree) as a least fixpoint: a profile is
//!    achievable at `A` if some children word of `P(A)` can be assembled from children
//!    with already-achieved profiles, where the word's existence is decided by a product
//!    of the Glushkov automaton with the accumulated demand-union (this is where the
//!    exponential lives);
//! 3. declares the instance satisfiable iff some achievable profile of the root type
//!    makes the query true, and rebuilds a witness document from the recipes recorded
//!    during the fixpoint.
//!
//! Negation is handled exactly — profiles record both what holds and (by absence) what
//! does not — which is what distinguishes this engine from the positive one.
//!
//! Element types are interned [`Sym`]s throughout: the achieved-profile sets and recipe
//! words are indexed/keyed by symbol, label constraints on head-normal forms are
//! resolved against the symbol table once at analysis time, and every `Step` alternative
//! carries its precompiled demand index so the per-profile evaluation is a bitset-style
//! membership test instead of a linear scan over string-labelled demands.

use crate::budget::{BudgetMeter, Exhausted};
use crate::sat::{SatError, Satisfiability};
use crate::witness::fill_missing_attributes;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use xpsat_automata::BitSet;
use xpsat_dtd::{CompiledDtd, DtdArtifacts, Sym};
use xpsat_xmltree::{Document, NodeId};
use xpsat_xpath::{Fragment, Path, Qualifier};

const ENGINE: &str = "negation fixpoint (Theorems 5.2/5.3)";

/// The fragment-rejection error of this engine, unless [`Fragment::downward_negation`]
/// permits the query.
fn check_fragment(query: &Path) -> Result<(), SatError> {
    if Fragment::downward_negation().permits_path(query) {
        return Ok(());
    }
    Err(SatError::UnsupportedFragment {
        engine: ENGINE,
        detail: format!("query {query} uses data values, upward or sibling axes"),
    })
}

/// A profile: the set of closure paths (by index) true at a node, as a bitset — profile
/// and demand-union manipulation inside the fixpoint is word-level block arithmetic.
type Profile = BitSet;

/// A child demand: "some child with this label constraint satisfies this closure path".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Demand {
    /// `None` = any label.
    label: Option<Sym>,
    tail: usize,
}

/// The label constraint of a compiled child step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LabelCk {
    /// Wildcard step.
    Any,
    /// A label step naming a declared element type.
    Is(Sym),
    /// A label step naming an undeclared type: never satisfiable.
    Never,
}

/// One alternative of a head-normal form.
#[derive(Debug, Clone)]
enum HeadAlt {
    /// The path may end at the current node provided the qualifiers hold there.
    Done(Vec<Qualifier>),
    /// After the qualifiers hold at the current node, the demand with the given index
    /// must be supplied by some child.  `usize::MAX` marks a dead step (undeclared
    /// label) that can never be supplied.
    Step(Vec<Qualifier>, usize),
    /// Construction-time only: the tail path is known but its closure index is not yet;
    /// patched into `Step` once the closure is saturated.
    StepPending(Vec<Qualifier>, LabelCk, Path, usize),
}

/// Decide `(query, dtd)` against precompiled artifacts (unmetered); complete for
/// [`Fragment::downward_negation`].  Budgeted callers [`prepare`] the query and run
/// [`decide_prepared_budgeted`].
pub fn decide_with(artifacts: &DtdArtifacts, query: &Path) -> Result<Satisfiability, SatError> {
    let Some(compiled) = artifacts.compiled() else {
        check_fragment(query)?;
        return Ok(Satisfiability::Unsatisfiable);
    };
    let prepared = prepare(compiled, query)?;
    Ok(
        decide_prepared_budgeted(compiled, &prepared, &BudgetMeter::unlimited())
            .expect("unlimited meter never exhausts"),
    )
}

/// Build the reusable static analysis of `query` against `compiled`: the suffix
/// closure, the head-normal forms with precompiled demand indices and the per-element
/// applicable-demand index.  The result is owned (no borrow of the compile), so callers
/// serving repeated negation-heavy traffic can memoise it per `(artifact, query)` and
/// amortise the closure computation — which dominates when the same query is re-decided
/// after a decision-cache miss.
///
/// A [`PreparedQuery`] resolves element labels to this compile's [`Sym`]s; it must only
/// ever be replayed against the same compile (or a byte-identical one).
pub fn prepare(compiled: &CompiledDtd, query: &Path) -> Result<PreparedQuery, SatError> {
    check_fragment(query)?;
    PreparedQuery::build(compiled, query)
}

/// Run the fixpoint of a previously [`prepare`]d query against the same compile,
/// under a step/deadline budget.  The EXPTIME lives in the product of
/// the Glushkov automata with the demand-bit unions; the meter is charged per product
/// state expanded, so exhaustion surfaces within a bounded amount of extra work.
pub fn decide_prepared_budgeted(
    compiled: &CompiledDtd,
    prepared: &PreparedQuery,
    meter: &BudgetMeter,
) -> Result<Satisfiability, Exhausted> {
    let query_index = prepared.query_index;
    let fixpoint = prepared.fixpoint(compiled, query_index, meter)?;
    let root = compiled.root();
    let winning = fixpoint.achieved[root.index()]
        .iter()
        .find(|profile| profile.contains(query_index));
    Ok(match winning {
        Some(profile) => {
            let mut doc = Document::new(compiled.name(root));
            let doc_root = doc.root();
            fixpoint.build_witness(compiled, &mut doc, doc_root, root, profile);
            fill_missing_attributes(&mut doc, compiled.dtd());
            Satisfiability::Satisfiable(doc)
        }
        None => Satisfiability::Unsatisfiable,
    })
}

/// The static analysis of the query against the DTD: the closure, the demands and the
/// head-normal forms.  Owned — see [`prepare`] for the memoisation contract.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Closure index of the (right-associated) query itself.
    query_index: usize,
    closure: Vec<Path>,
    /// Closure indices sorted by structural size: evaluation order for `profile_of`.
    eval_order: Vec<usize>,
    hnf: Vec<Vec<HeadAlt>>,
    demands: Vec<Demand>,
    /// Per element symbol: the demands a child with that label can supply, as
    /// `(demand index, tail closure index)` pairs — the precompiled demand index that
    /// turns `bits` into a short indexed scan instead of a full-demand-list filter.
    applicable: Vec<Vec<(usize, usize)>>,
}

impl PreparedQuery {
    fn build(compiled: &CompiledDtd, query: &Path) -> Result<PreparedQuery, SatError> {
        let query = query.right_assoc();
        let mut analysis = PreparedQuery {
            query_index: 0,
            closure: Vec::new(),
            eval_order: Vec::new(),
            hnf: Vec::new(),
            demands: Vec::new(),
            applicable: Vec::new(),
        };
        let resolve = |label: Option<String>| -> LabelCk {
            match label {
                None => LabelCk::Any,
                Some(l) => match compiled.elem_sym(&l) {
                    Some(sym) => LabelCk::Is(sym),
                    None => LabelCk::Never,
                },
            }
        };
        // Seed the closure with the query and every qualifier path, then saturate with
        // head-normal-form tails.
        let mut worklist: VecDeque<Path> = VecDeque::new();
        worklist.push_back(query.clone());
        for q in xpsat_xpath::closure::sub_qualifiers_ascending(&query) {
            if let Qualifier::Path(p) = q {
                worklist.push_back(p.right_assoc());
            }
        }
        while let Some(path) = worklist.pop_front() {
            if analysis.closure.contains(&path) {
                continue;
            }
            if analysis.closure.len() > 4_000 {
                return Err(SatError::BudgetExceeded { engine: ENGINE });
            }
            let index = analysis.closure.len();
            analysis.closure.push(path.clone());
            analysis.hnf.push(Vec::new()); // placeholder, filled below
            let alts = head_normal_form(&path);
            let mut compiled_alts = Vec::new();
            for alt in alts {
                match alt {
                    RawAlt::Done(quals) => {
                        for q in &quals {
                            for p in qualifier_paths(q) {
                                if !analysis.closure.contains(&p) && !worklist.contains(&p) {
                                    worklist.push_back(p);
                                }
                            }
                        }
                        compiled_alts.push(HeadAlt::Done(quals));
                    }
                    RawAlt::Step(quals, label, tail) => {
                        for q in &quals {
                            for p in qualifier_paths(q) {
                                if !analysis.closure.contains(&p) && !worklist.contains(&p) {
                                    worklist.push_back(p);
                                }
                            }
                        }
                        let tail_index = match analysis.closure.iter().position(|p| *p == tail) {
                            Some(i) => i,
                            None => {
                                // The tail will be processed later; reserve its slot by
                                // pushing it to the worklist and remembering the path.
                                if !worklist.contains(&tail) {
                                    worklist.push_back(tail.clone());
                                }
                                usize::MAX // patched below once every path has an index
                            }
                        };
                        compiled_alts.push(HeadAlt::StepPending(
                            quals,
                            resolve(label),
                            tail,
                            tail_index,
                        ));
                    }
                }
            }
            analysis.hnf[index] = compiled_alts;
        }
        // Resolve pending tail indices, collect the demand set and rewrite every Step
        // to carry its demand index directly.
        let closure = analysis.closure.clone();
        let mut demands: BTreeSet<Demand> = BTreeSet::new();
        let mut resolved_steps: Vec<(LabelCk, usize)> = Vec::new();
        for alts in &analysis.hnf {
            for alt in alts {
                if let HeadAlt::StepPending(_, label, tail, idx) = alt {
                    let resolved = if *idx != usize::MAX {
                        *idx
                    } else {
                        closure
                            .iter()
                            .position(|p| p == tail)
                            .expect("tail was pushed to the worklist")
                    };
                    resolved_steps.push((*label, resolved));
                    match label {
                        LabelCk::Any => {
                            demands.insert(Demand {
                                label: None,
                                tail: resolved,
                            });
                        }
                        LabelCk::Is(sym) => {
                            demands.insert(Demand {
                                label: Some(*sym),
                                tail: resolved,
                            });
                        }
                        LabelCk::Never => {}
                    }
                }
            }
        }
        analysis.demands = demands.into_iter().collect();
        let mut step_cursor = 0;
        for alts in &mut analysis.hnf {
            for alt in alts.iter_mut() {
                if let HeadAlt::StepPending(quals, label, _, _) = alt {
                    let (_, tail) = resolved_steps[step_cursor];
                    step_cursor += 1;
                    let demand_index = match label {
                        LabelCk::Never => usize::MAX,
                        LabelCk::Any => analysis
                            .demands
                            .binary_search(&Demand { label: None, tail })
                            .expect("demand was collected"),
                        LabelCk::Is(sym) => analysis
                            .demands
                            .binary_search(&Demand {
                                label: Some(*sym),
                                tail,
                            })
                            .expect("demand was collected"),
                    };
                    *alt = HeadAlt::Step(std::mem::take(quals), demand_index);
                }
            }
        }
        // Evaluation order: increasing structural size, so that qualifier paths
        // (proper sub-expressions) are available when needed.
        let mut order: Vec<usize> = (0..analysis.closure.len()).collect();
        order.sort_by_key(|&i| analysis.closure[i].size());
        analysis.eval_order = order;
        // Per-element applicable-demand index: wildcard demands apply to every label,
        // labelled demands to their own symbol only.
        analysis.applicable = (0..compiled.num_elements())
            .map(|elem_index| {
                let sym = Sym::from_index(elem_index);
                analysis
                    .demands
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.label.is_none_or(|l| l == sym))
                    .map(|(i, d)| (i, d.tail))
                    .collect()
            })
            .collect();
        analysis.query_index = analysis
            .closure
            .iter()
            .position(|p| *p == query)
            .expect("the query is seeded into the closure");
        Ok(analysis)
    }

    /// The demand bits provided by a child with the given label and profile: an
    /// indexed scan over the label's precompiled applicable demands.
    fn bits(&self, label: Sym, profile: &Profile) -> BitSet {
        let mut out = BitSet::new();
        for &(demand_index, tail) in &self.applicable[label.index()] {
            if profile.contains(tail) {
                out.insert(demand_index);
            }
        }
        out
    }

    /// Evaluate the profile of a node with the given label whose children provide the
    /// demand-bit union `supplied`.
    fn profile_of(&self, compiled: &CompiledDtd, label: Sym, supplied: &BitSet) -> Profile {
        let mut truth = vec![false; self.closure.len()];
        for &index in &self.eval_order {
            let value = self.hnf[index].iter().any(|alt| match alt {
                HeadAlt::Done(quals) => quals
                    .iter()
                    .all(|q| self.eval_qualifier(compiled, q, label, &truth)),
                HeadAlt::Step(quals, demand_index) => {
                    *demand_index != usize::MAX
                        && supplied.contains(*demand_index)
                        && quals
                            .iter()
                            .all(|q| self.eval_qualifier(compiled, q, label, &truth))
                }
                HeadAlt::StepPending(..) => unreachable!("patched during construction"),
            });
            truth[index] = value;
        }
        truth
            .into_iter()
            .enumerate()
            .filter_map(|(i, v)| v.then_some(i))
            .collect()
    }

    fn eval_qualifier(
        &self,
        compiled: &CompiledDtd,
        q: &Qualifier,
        label: Sym,
        truth: &[bool],
    ) -> bool {
        match q {
            Qualifier::Path(p) => {
                let normalized = p.right_assoc();
                let index = self
                    .closure
                    .iter()
                    .position(|c| *c == normalized)
                    .expect("qualifier paths are seeded into the closure");
                truth[index]
            }
            Qualifier::LabelIs(l) => compiled.elem_sym(l) == Some(label),
            Qualifier::And(a, b) => {
                self.eval_qualifier(compiled, a, label, truth)
                    && self.eval_qualifier(compiled, b, label, truth)
            }
            Qualifier::Or(a, b) => {
                self.eval_qualifier(compiled, a, label, truth)
                    || self.eval_qualifier(compiled, b, label, truth)
            }
            Qualifier::Not(inner) => !self.eval_qualifier(compiled, inner, label, truth),
            // Data values are outside the fragment.
            _ => false,
        }
    }

    /// Run the least fixpoint over achievable profiles, driven by a dirty worklist.
    ///
    /// An element type's achievable-profile set can only grow when a type mentioned in
    /// its content model gains a profile, so instead of re-scanning every element per
    /// round the worklist re-visits exactly the dirtied dependents (read off the
    /// precomputed DTD graph).  Each visit runs one forward product of the Glushkov
    /// automaton with the accumulated demand-bit union over a frozen view of the
    /// achieved sets; distinct demand-bit contributions per child symbol are computed
    /// once per visit (they are key-independent) and memoised across visits.
    ///
    /// Stops early as soon as the root type achieves a profile containing
    /// `query_index`: recipes are recorded the moment a profile is first achieved, so
    /// the witness for that profile is already fully expandable.
    fn fixpoint(
        &self,
        compiled: &CompiledDtd,
        query_index: usize,
        meter: &BudgetMeter,
    ) -> Result<Fixpoint, Exhausted> {
        let n = compiled.num_elements();
        let root = compiled.root();
        let mut achieved: Vec<BTreeSet<Profile>> = vec![BTreeSet::new(); n];
        let mut recipes: BTreeMap<(Sym, Profile), Recipe> = BTreeMap::new();
        // Reverse dependency index: `dependents[s]` lists the element types whose
        // content model mentions `s`.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for elem_index in 0..n {
            for s in compiled.graph().succ_syms(Sym::from_index(elem_index)) {
                dependents[s.index()].push(elem_index);
            }
        }
        // Demand bits per (child label, child profile), memoised across visits.
        let mut bits_cache: HashMap<(Sym, Profile), BitSet> = HashMap::new();

        let mut queued = vec![true; n];
        let mut worklist: VecDeque<usize> = (0..n).collect();
        while let Some(elem_index) = worklist.pop_front() {
            meter.spend(1)?;
            queued[elem_index] = false;
            let elem = Sym::from_index(elem_index);
            let nfa = compiled.automaton(elem);

            // Distinct demand-bit contributions per child symbol, over the achieved
            // sets as of this visit (the BFS below never consults them again).
            let mut contributions: HashMap<Sym, Vec<(BitSet, Profile)>> = HashMap::new();
            for &sym in compiled.graph().succ_syms(elem) {
                let child_options = &achieved[sym.index()];
                if child_options.is_empty() {
                    continue;
                }
                let mut distinct: BTreeMap<BitSet, Profile> = BTreeMap::new();
                for child_profile in child_options {
                    let bits = bits_cache
                        .entry((sym, child_profile.clone()))
                        .or_insert_with(|| self.bits(sym, child_profile));
                    if !distinct.contains_key(bits) {
                        distinct.insert(bits.clone(), child_profile.clone());
                    }
                }
                contributions.insert(sym, distinct.into_iter().collect());
            }

            // Forward product of the Glushkov automaton with the accumulated
            // demand-bit union; every accepting (state, union) yields a profile.
            type Key = (usize, BitSet);
            let mut seen: HashSet<Key> = HashSet::new();
            let mut back: HashMap<Key, (Key, Sym, Profile)> = HashMap::new();
            let start: Key = (nfa.start(), BitSet::new());
            seen.insert(start.clone());
            let mut queue = VecDeque::new();
            queue.push_back(start);
            let mut gained = false;
            while let Some(key) = queue.pop_front() {
                // One product state of the Glushkov automaton with the demand-bit
                // union: the unit the EXPTIME blow-up is made of.
                meter.spend(1)?;
                if nfa.is_accepting(key.0) {
                    let profile = self.profile_of(compiled, elem, &key.1);
                    let entry = &mut achieved[elem_index];
                    if !entry.contains(&profile) {
                        entry.insert(profile.clone());
                        gained = true;
                        // Record the recipe: trace the word and child profiles back.
                        let mut word = Vec::new();
                        let mut child_profiles = Vec::new();
                        let mut cursor = key.clone();
                        while let Some((prev, sym, child_profile)) = back.get(&cursor) {
                            word.push(*sym);
                            child_profiles.push(child_profile.clone());
                            cursor = prev.clone();
                        }
                        word.reverse();
                        child_profiles.reverse();
                        let winning = elem == root && profile.contains(query_index);
                        recipes.entry((elem, profile)).or_insert(Recipe {
                            word,
                            child_profiles,
                        });
                        if winning {
                            return Ok(Fixpoint { achieved, recipes });
                        }
                    }
                }
                for (sym, succs) in nfa.transitions_from(key.0) {
                    let Some(options) = contributions.get(sym) else {
                        continue;
                    };
                    for (bits, representative) in options {
                        let union = key.1.union(bits);
                        for &succ in succs {
                            let next: Key = (succ, union.clone());
                            if seen.insert(next.clone()) {
                                back.insert(
                                    next.clone(),
                                    (key.clone(), *sym, representative.clone()),
                                );
                                queue.push_back(next);
                            }
                        }
                    }
                }
            }
            if gained {
                for &parent in &dependents[elem_index] {
                    if !queued[parent] {
                        queued[parent] = true;
                        worklist.push_back(parent);
                    }
                }
            }
        }
        Ok(Fixpoint { achieved, recipes })
    }
}

/// How an achieved (type, profile) pair can be realised: a children word and the profile
/// each child must itself realise.
#[derive(Debug, Clone)]
struct Recipe {
    word: Vec<Sym>,
    child_profiles: Vec<Profile>,
}

struct Fixpoint {
    /// Achievable profiles indexed by element symbol.
    achieved: Vec<BTreeSet<Profile>>,
    recipes: BTreeMap<(Sym, Profile), Recipe>,
}

impl Fixpoint {
    /// Rebuild a witness subtree realising `profile` at a node of type `label`.
    fn build_witness(
        &self,
        compiled: &CompiledDtd,
        doc: &mut Document,
        node: NodeId,
        label: Sym,
        profile: &Profile,
    ) {
        let Some(recipe) = self.recipes.get(&(label, profile.clone())) else {
            return;
        };
        for (&sym, child_profile) in recipe.word.iter().zip(&recipe.child_profiles) {
            let child = doc.add_child(node, compiled.name(sym));
            self.build_witness(compiled, doc, child, sym, child_profile);
        }
    }
}

/// Raw head-normal-form alternatives (before tails are interned into the closure).
enum RawAlt {
    Done(Vec<Qualifier>),
    Step(Vec<Qualifier>, Option<String>, Path),
}

fn head_normal_form(path: &Path) -> Vec<RawAlt> {
    match path {
        Path::Empty => vec![RawAlt::Done(vec![])],
        Path::Label(l) => vec![RawAlt::Step(vec![], Some(l.clone()), Path::Empty)],
        Path::Wildcard => vec![RawAlt::Step(vec![], None, Path::Empty)],
        Path::DescendantOrSelf => vec![
            RawAlt::Done(vec![]),
            RawAlt::Step(vec![], None, Path::DescendantOrSelf),
        ],
        Path::Seq(a, b) => {
            let mut out = Vec::new();
            for alt in head_normal_form(a) {
                match alt {
                    RawAlt::Done(quals) => {
                        for alt_b in head_normal_form(b) {
                            out.push(match alt_b {
                                RawAlt::Done(mut qs) => {
                                    let mut combined = quals.clone();
                                    combined.append(&mut qs);
                                    RawAlt::Done(combined)
                                }
                                RawAlt::Step(mut qs, label, tail) => {
                                    let mut combined = quals.clone();
                                    combined.append(&mut qs);
                                    RawAlt::Step(combined, label, tail)
                                }
                            });
                        }
                    }
                    RawAlt::Step(quals, label, tail) => {
                        out.push(RawAlt::Step(
                            quals,
                            label,
                            Path::seq(tail, (**b).clone()).right_assoc(),
                        ));
                    }
                }
            }
            out
        }
        Path::Union(a, b) => {
            let mut out = head_normal_form(a);
            out.extend(head_normal_form(b));
            out
        }
        Path::Filter(a, q) => head_normal_form(a)
            .into_iter()
            .map(|alt| match alt {
                RawAlt::Done(mut quals) => {
                    quals.push((**q).clone());
                    RawAlt::Done(quals)
                }
                RawAlt::Step(quals, label, tail) => RawAlt::Step(
                    quals,
                    label,
                    Path::Filter(Box::new(tail), q.clone()).right_assoc(),
                ),
            })
            .collect(),
        // Upward and sibling axes are outside the fragment.
        _ => vec![],
    }
}

/// The paths occurring (positively or negatively) inside a qualifier.
fn qualifier_paths(q: &Qualifier) -> Vec<Path> {
    match q {
        Qualifier::Path(p) => vec![p.right_assoc()],
        Qualifier::And(a, b) | Qualifier::Or(a, b) => {
            let mut out = qualifier_paths(a);
            out.extend(qualifier_paths(b));
            out
        }
        Qualifier::Not(inner) => qualifier_paths(inner),
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::verify_witness;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    fn check(dtd_text: &str, query_text: &str, expected: bool) {
        let dtd = parse_dtd(dtd_text).unwrap();
        let query = parse_path(query_text).unwrap();
        match decide_with(&DtdArtifacts::build(&dtd), &query).unwrap() {
            Satisfiability::Satisfiable(doc) => {
                assert!(
                    expected,
                    "{query_text} should be unsatisfiable under `{dtd_text}`\nwitness: {doc}"
                );
                verify_witness(&doc, &dtd, &query).unwrap();
            }
            Satisfiability::Unsatisfiable => assert!(
                !expected,
                "{query_text} should be satisfiable under `{dtd_text}`"
            ),
            Satisfiability::Unknown => panic!("negation engine must be definite"),
        }
    }

    #[test]
    fn plain_negation_at_the_root() {
        let dtd = "r -> a?, b?; a -> #; b -> #;";
        check(dtd, ".[not(a)]", true);
        check(dtd, ".[a and not(a)]", false);
        check(dtd, ".[not(a) and not(b)]", true);
        check(dtd, ".[not(a) and b]", true);
    }

    #[test]
    fn forced_children_cannot_be_negated_away() {
        let dtd = "r -> a, b?; a -> #; b -> #;";
        check(dtd, ".[not(a)]", false);
        check(dtd, ".[not(b)]", true);
    }

    #[test]
    fn negation_below_descendants() {
        let dtd = "r -> c; c -> (c | x); x -> #;";
        // some descendant c has an x child
        check(dtd, "**[lab() = c and x]", true);
        // some descendant c has no c child and no x child: impossible (content is c|x)
        check(dtd, "**[lab() = c and not(c) and not(x)]", false);
        // every branch eventually ends with x: a c node without x child exists iff the
        // chain continues with c, so this is satisfiable.
        check(dtd, "**[lab() = c and not(x)]", true);
    }

    #[test]
    fn universal_style_properties() {
        // Example in the spirit of Proposition 5.1: "no x1 branch chooses t" is
        // satisfiable because x1 can choose f.
        let dtd = "r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;";
        check(dtd, ".[not(x1/t)]", true);
        check(dtd, ".[not(x1/t) and not(x1/f)]", false);
        check(dtd, ".[not(x1/t) and x1/t]", false);
        check(dtd, ".[not(x1/t) and x2/t]", true);
    }

    #[test]
    fn disjunction_elimination_shape() {
        // Under a starred production negation can force the absence of a whole branch.
        let dtd = "r -> a*; a -> b | c; b -> #; c -> #;";
        check(dtd, ".[not(a)]", true);
        check(dtd, ".[a and not(a[b])]", true);
        check(dtd, ".[a[b] and not(a[b])]", false);
        check(dtd, ".[a and not(a[b]) and not(a[c])]", false);
    }

    #[test]
    fn undeclared_labels_interact_correctly_with_negation() {
        let dtd = "r -> a?; a -> #;";
        check(dtd, "ghost", false);
        check(dtd, ".[not(ghost)]", true);
        check(dtd, ".[a and not(ghost)]", true);
    }

    #[test]
    fn unsupported_fragments_are_rejected() {
        let artifacts = DtdArtifacts::build(&parse_dtd("r -> a;").unwrap());
        assert!(decide_with(&artifacts, &parse_path("a/..").unwrap()).is_err());
        assert!(decide_with(&artifacts, &parse_path("a[@x = \"1\"]").unwrap()).is_err());
    }
}
