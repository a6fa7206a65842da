//! Theorem 4.4: `SAT(X(↓, ↓*, ∪, [], =))` (positive downward queries with qualifiers,
//! label tests and data values) is in NP.
//!
//! The engine is a backtracking witness search that mirrors the proof's skeleton/witness
//! machinery:
//!
//! * a query is decomposed into *obligations* that must hold at the node currently being
//!   expanded (`At(path, …)` — some node reachable via `path` satisfies the nested
//!   obligations; `BindSlot` — this node's attribute value is referred to by a slot
//!   variable; `Qual` — a qualifier holds here);
//! * obligations whose first step moves to a child become child requirements; the engine
//!   assigns every requirement either to a fresh child occurrence or to one created for
//!   an earlier requirement (this routing choice is the nondeterministic part — the
//!   source of the NP-hardness of Proposition 4.2) and asks the content model for a
//!   children word realising the chosen multiset of child types through the coverage
//!   search of `xpsat-automata`;
//! * data-value comparisons are collected as constraints over slot variables and checked
//!   by a union-find over slots and constants (equalities merge classes, disequalities
//!   and distinct constants must separate them) — the role played by the `op`-labelled
//!   skeleton edges in the paper's proof;
//! * `↓*` obligations either resolve locally or push themselves one level down; the
//!   recursion depth is capped by the small-model bound `(3|p| − 1)·|D|` of Lemma 4.5,
//!   which preserves completeness;
//! * a cheap DTD-graph reachability over-approximation prunes routing choices that can
//!   never succeed, which keeps satisfiable instances fast in practice without affecting
//!   completeness.
//!
//! The hot path is fully interned: routing works over [`Sym`] ids, the reachability
//! over-approximation is bitset arithmetic against the precomputed closure of the
//! [`DtdArtifacts`], the content-model automata come precompiled (they used to be
//! rebuilt for *every* `decide` call), and the constraint union-find runs over integer
//! ids instead of formatted `String` keys.
//!
//! The search constructs the witness document as it goes (using `Document::truncate` to
//! backtrack), so a `Satisfiable` verdict always carries a verified witness.

use crate::budget::{BudgetMeter, Exhausted};
use crate::sat::{SatError, Satisfiability};
use crate::witness::fill_missing_attributes;
use std::collections::{BTreeMap, HashMap};
use xpsat_automata::{BitSet, CoverDemand};
use xpsat_dtd::{CompiledDtd, DtdArtifacts, Sym};
use xpsat_xmltree::{Document, NodeId};
use xpsat_xpath::{CmpOp, Fragment, Path, Qualifier};

const ENGINE: &str = "positive (Theorem 4.4)";

/// Decide `(query, dtd)` against precompiled artifacts under a budget meter,
/// returning a witness on success.  Complete for
/// [`Fragment::downward_positive_with_data`].
///
/// The backtracking routing search is NP in the worst case, so without a meter a
/// single hostile instance can pin a thread indefinitely; every alternative the
/// search pops and every requirement assignment spends one step.  `Err(cause)`
/// reports meter exhaustion mid-search; fragment rejection and the vacuous-DTD
/// verdict come back inside `Ok`.
pub fn decide_with_budget(
    artifacts: &DtdArtifacts,
    query: &Path,
    meter: &BudgetMeter,
) -> Result<Result<Satisfiability, SatError>, Exhausted> {
    if !Fragment::downward_positive_with_data().permits_path(query) {
        return Ok(Err(SatError::UnsupportedFragment {
            engine: ENGINE,
            detail: format!("query {query} uses negation, upward or sibling axes"),
        }));
    }
    let Some(compiled) = artifacts.compiled() else {
        return Ok(Ok(Satisfiability::Unsatisfiable));
    };
    let query = query.right_assoc();
    let depth_limit = (3 * query.size()).saturating_sub(1) * compiled.size().max(1) + 2;
    let mut search = Search {
        compiled,
        next_slot: 0,
        depth_limit,
        cover_memo: HashMap::new(),
        word_memo: HashMap::new(),
        meter,
        exhausted: None,
    };
    let mut doc = Document::new(compiled.name(compiled.root()));
    let root = doc.root();
    let obligations = vec![Ob::At(query.clone(), vec![])];
    // Root-level reachability prune: if even the over-approximation fails, skip the
    // backtracking search entirely.
    if !search.feasible(compiled.root(), &obligations) {
        return Ok(Ok(Satisfiability::Unsatisfiable));
    }
    let outcome = search.satisfy(
        &mut doc,
        root,
        compiled.root(),
        obligations,
        Bindings::default(),
        0,
    );
    if let Some(cause) = search.exhausted {
        return Err(cause);
    }
    Ok(Ok(match outcome {
        Some(bindings) => {
            assign_values(&mut doc, &bindings);
            fill_missing_attributes(&mut doc, compiled.dtd());
            Satisfiability::Satisfiable(doc)
        }
        None => Satisfiability::Unsatisfiable,
    }))
}

/// A slot variable standing for "the value of attribute `a` of the witness node chosen
/// for this obligation endpoint".
type SlotId = usize;

/// An obligation imposed on the node currently being expanded.
#[derive(Debug, Clone)]
enum Ob {
    /// Some node reachable via the path satisfies the nested obligations.
    At(Path, Vec<Ob>),
    /// The qualifier holds at this node.
    Qual(Qualifier),
    /// This node's attribute `attr` carries the value of slot `slot`.
    BindSlot(String, SlotId),
}

/// A requirement that some child of the current node (with the given label constraint)
/// satisfies a list of obligations.
#[derive(Debug, Clone)]
struct ChildReq {
    label: Option<Sym>,
    obligations: Vec<Ob>,
}

/// Value constraints collected along the search.
#[derive(Debug, Clone, Default)]
struct Bindings {
    /// Slot → concrete (node, attribute) location in the witness document.
    locations: BTreeMap<SlotId, (NodeId, String)>,
    /// Constraints between a slot and a constant.
    const_constraints: Vec<(SlotId, CmpOp, String)>,
    /// Constraints between two slots.
    join_constraints: Vec<(SlotId, CmpOp, SlotId)>,
}

struct Search<'a> {
    compiled: &'a CompiledDtd,
    next_slot: usize,
    depth_limit: usize,
    /// Memo for "does `P(label)` have a word covering this multiset?" — the routing
    /// search re-asks the same `(label, multiset)` question many times while
    /// backtracking, and the answer depends only on the content model.
    cover_memo: HashMap<(Sym, Vec<Sym>), bool>,
    /// Memo for the materialised shortest covering word per `(label, multiset)`.
    word_memo: HashMap<(Sym, Vec<Sym>), Option<Vec<Sym>>>,
    /// Step meter bounding the backtracking search.
    meter: &'a BudgetMeter,
    /// Set when the meter runs dry; the search then unwinds through its ordinary
    /// `None` failure paths and the caller reports exhaustion instead of UNSAT.
    exhausted: Option<Exhausted>,
}

/// One branch of a decomposition choice point.
#[derive(Debug, Clone, Default)]
struct Branch {
    new_obligations: Vec<Ob>,
    child_requirements: Vec<ChildReq>,
    const_constraint: Option<(SlotId, CmpOp, String)>,
    join_constraint: Option<(SlotId, CmpOp, SlotId)>,
}

impl Branch {
    fn obligations(obs: Vec<Ob>) -> Branch {
        Branch {
            new_obligations: obs,
            ..Branch::default()
        }
    }

    fn child(label: Option<Sym>, obligations: Vec<Ob>) -> Branch {
        Branch {
            child_requirements: vec![ChildReq { label, obligations }],
            ..Branch::default()
        }
    }
}

impl<'a> Search<'a> {
    /// Spend one meter step.  On exhaustion the cause is recorded and `false` is
    /// returned, unwinding the search through its normal failure paths.
    fn step(&mut self) -> bool {
        self.charge(1)
    }

    fn charge(&mut self, n: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        match self.meter.spend(n) {
            Ok(()) => true,
            Err(cause) => {
                self.exhausted = Some(cause);
                false
            }
        }
    }

    /// Charge for one covering-word search: the BFS behind
    /// [`xpsat_automata::word_with_multiplicities`] visits up to
    /// `states × ∏(multiplicityᵢ + 1)` keys, which on realistic content models
    /// dwarfs the flat per-alternative step, so budgets stay roughly proportional
    /// to wall clock only if cover computations are charged at that size.
    fn charge_cover(&mut self, label: Sym, multiset: &[Sym]) -> bool {
        let mut cost: u64 = self.compiled.automaton(label).num_states() as u64;
        let mut i = 0;
        while i < multiset.len() {
            let mut j = i;
            while j < multiset.len() && multiset[j] == multiset[i] {
                j += 1;
            }
            cost = cost.saturating_mul((j - i + 1) as u64);
            i = j;
        }
        self.charge(cost)
    }

    /// Try to satisfy all obligations at `node` (whose subtree is not yet expanded and
    /// whose element type is `label`).  Returns the extended bindings on success; on
    /// failure the document is restored to its state at entry.
    fn satisfy(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: Sym,
        obligations: Vec<Ob>,
        bindings: Bindings,
        depth: usize,
    ) -> Option<Bindings> {
        if depth > self.depth_limit {
            return None;
        }
        let doc_snapshot = doc.snapshot();
        // DFS over decomposition alternatives; each alternative carries its own pending
        // obligations, accumulated child requirements and value bindings.
        let mut alternatives = vec![(obligations, Vec::<ChildReq>::new(), bindings)];
        while let Some((mut pending, mut reqs, mut alt_bindings)) = alternatives.pop() {
            if !self.step() {
                doc.truncate(doc_snapshot);
                return None;
            }
            let Some(ob) = pending.pop() else {
                if let Some(result) =
                    self.route_children(doc, node, label, reqs, alt_bindings, depth)
                {
                    return Some(result);
                }
                doc.truncate(doc_snapshot);
                continue;
            };
            match self.decompose(node, label, ob, &mut alt_bindings) {
                None => continue,
                Some(branches) => {
                    // Reverse so the first branch ends up on top of the stack; that
                    // last push *moves* the current state instead of cloning it, which
                    // makes the (very common) single-branch decomposition clone-free.
                    let mut iter = branches.into_iter().rev().peekable();
                    while let Some(branch) = iter.next() {
                        let (mut next_pending, mut next_reqs, mut next_bindings) =
                            if iter.peek().is_none() {
                                (
                                    std::mem::take(&mut pending),
                                    std::mem::take(&mut reqs),
                                    std::mem::take(&mut alt_bindings),
                                )
                            } else {
                                (pending.clone(), reqs.clone(), alt_bindings.clone())
                            };
                        next_pending.extend(branch.new_obligations);
                        next_reqs.extend(branch.child_requirements);
                        if let Some(c) = branch.const_constraint {
                            next_bindings.const_constraints.push(c);
                        }
                        if let Some(j) = branch.join_constraint {
                            next_bindings.join_constraints.push(j);
                        }
                        alternatives.push((next_pending, next_reqs, next_bindings));
                    }
                }
            }
        }
        doc.truncate(doc_snapshot);
        None
    }

    /// Decompose one obligation at a node into simpler obligations and child
    /// requirements.  Choice points (unions, disjunctions, `↓*`) return several
    /// branches; `None` means the obligation cannot hold here.
    fn decompose(
        &mut self,
        node: NodeId,
        label: Sym,
        ob: Ob,
        bindings: &mut Bindings,
    ) -> Option<Vec<Branch>> {
        match ob {
            Ob::BindSlot(attr, slot) => {
                if self.compiled.has_attribute(label, &attr) {
                    bindings.locations.insert(slot, (node, attr));
                    Some(vec![Branch::obligations(vec![])])
                } else {
                    None
                }
            }
            Ob::Qual(q) => self.decompose_qualifier(q, label),
            Ob::At(path, obs) => match path {
                Path::Empty => Some(vec![Branch::obligations(obs)]),
                Path::Label(l) => self
                    .compiled
                    .elem_sym(&l)
                    .map(|sym| vec![Branch::child(Some(sym), obs)]),
                Path::Wildcard => Some(vec![Branch::child(None, obs)]),
                Path::DescendantOrSelf => Some(vec![
                    Branch::obligations(obs.clone()),
                    Branch::child(None, vec![Ob::At(Path::DescendantOrSelf, obs)]),
                ]),
                Path::Seq(first, rest) => {
                    let continuation = vec![Ob::At((*rest).clone(), obs)];
                    self.decompose(
                        node,
                        label,
                        Ob::At((*first).clone(), continuation),
                        bindings,
                    )
                }
                Path::Union(p1, p2) => Some(vec![
                    Branch::obligations(vec![Ob::At((*p1).clone(), obs.clone())]),
                    Branch::obligations(vec![Ob::At((*p2).clone(), obs)]),
                ]),
                Path::Filter(p, q) => {
                    let mut inner = vec![Ob::Qual((*q).clone())];
                    inner.extend(obs);
                    Some(vec![Branch::obligations(vec![Ob::At((*p).clone(), inner)])])
                }
                // Upward and sibling axes are outside the fragment.
                _ => None,
            },
        }
    }

    fn decompose_qualifier(&mut self, q: Qualifier, label: Sym) -> Option<Vec<Branch>> {
        match q {
            Qualifier::Path(p) => Some(vec![Branch::obligations(vec![Ob::At(
                p.right_assoc(),
                vec![],
            )])]),
            Qualifier::LabelIs(l) => {
                if self.compiled.elem_sym(&l) == Some(label) {
                    Some(vec![Branch::obligations(vec![])])
                } else {
                    None
                }
            }
            Qualifier::AttrCmp {
                path,
                attr,
                op,
                value,
            } => {
                let slot = self.fresh_slot();
                Some(vec![Branch {
                    new_obligations: vec![Ob::At(
                        path.right_assoc(),
                        vec![Ob::BindSlot(attr, slot)],
                    )],
                    child_requirements: vec![],
                    const_constraint: Some((slot, op, value)),
                    join_constraint: None,
                }])
            }
            Qualifier::AttrJoin {
                left,
                left_attr,
                op,
                right,
                right_attr,
            } => {
                let s1 = self.fresh_slot();
                let s2 = self.fresh_slot();
                Some(vec![Branch {
                    new_obligations: vec![
                        Ob::At(left.right_assoc(), vec![Ob::BindSlot(left_attr, s1)]),
                        Ob::At(right.right_assoc(), vec![Ob::BindSlot(right_attr, s2)]),
                    ],
                    child_requirements: vec![],
                    const_constraint: None,
                    join_constraint: Some((s1, op, s2)),
                }])
            }
            Qualifier::And(q1, q2) => Some(vec![Branch::obligations(vec![
                Ob::Qual(*q1),
                Ob::Qual(*q2),
            ])]),
            Qualifier::Or(q1, q2) => Some(vec![
                Branch::obligations(vec![Ob::Qual(*q1)]),
                Branch::obligations(vec![Ob::Qual(*q2)]),
            ]),
            Qualifier::Not(_) => None,
        }
    }

    fn fresh_slot(&mut self) -> SlotId {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// Phase 2: assign every child requirement to a child occurrence (new or shared),
    /// find a children word of the content model realising the chosen multiset, expand
    /// and recurse.
    fn route_children(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: Sym,
        reqs: Vec<ChildReq>,
        bindings: Bindings,
        depth: usize,
    ) -> Option<Bindings> {
        if reqs.is_empty() {
            if doc.children(node).is_empty() {
                self.compiled.generator().expand_minimal(doc, node);
            }
            return check_constraints(&bindings).then_some(bindings);
        }
        let plan: Vec<(Sym, Vec<Ob>)> = Vec::new();
        self.assign(doc, node, label, &reqs, 0, plan, bindings, depth)
    }

    /// Recursive assignment of requirement `idx` onwards onto a children plan.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: Sym,
        reqs: &[ChildReq],
        idx: usize,
        plan: Vec<(Sym, Vec<Ob>)>,
        bindings: Bindings,
        depth: usize,
    ) -> Option<Bindings> {
        if !self.step() {
            return None;
        }
        if idx == reqs.len() {
            return self.realize_plan(doc, node, label, &plan, bindings, depth);
        }
        let req = &reqs[idx];
        let graph = self.compiled.graph();
        // Option (a): open a new child occurrence for this requirement.
        let candidate_labels: Vec<Sym> = match req.label {
            Some(l) => vec![l],
            None => graph.succ_syms(label).to_vec(),
        };
        for &candidate in &candidate_labels {
            if !graph.has_edge(label, candidate) {
                continue;
            }
            if !self.feasible(candidate, &req.obligations) {
                continue;
            }
            // Quick multiset feasibility check: the content model must still have a word
            // covering the plan plus this new occurrence.  Memoised per (label,
            // multiset) — backtracking revisits the same questions constantly.
            let mut multiset: Vec<Sym> = plan.iter().map(|(planned, _)| *planned).collect();
            multiset.push(candidate);
            multiset.sort_unstable();
            let memo_key = (label, multiset);
            let coverable = match self.cover_memo.get(&memo_key) {
                Some(&cached) => cached,
                None => {
                    if !self.charge_cover(label, &memo_key.1) {
                        return None;
                    }
                    let mut demand = CoverDemand::none();
                    for &planned in &memo_key.1 {
                        demand = demand.require(planned, 1);
                    }
                    let answer = xpsat_automata::word_with_multiplicities(
                        self.compiled.automaton(label),
                        &demand,
                    );
                    self.cover_memo.insert(memo_key, answer);
                    answer
                }
            };
            if !coverable {
                continue;
            }
            let mut next_plan = plan.clone();
            next_plan.push((candidate, req.obligations.clone()));
            if let Some(result) = self.assign(
                doc,
                node,
                label,
                reqs,
                idx + 1,
                next_plan,
                bindings.clone(),
                depth,
            ) {
                return Some(result);
            }
        }
        // Option (b): share an existing planned child.
        for j in 0..plan.len() {
            let compatible = match req.label {
                Some(l) => plan[j].0 == l,
                None => true,
            };
            if !compatible || !self.feasible(plan[j].0, &req.obligations) {
                continue;
            }
            let mut next_plan = plan.clone();
            next_plan[j].1.extend(req.obligations.clone());
            if let Some(result) = self.assign(
                doc,
                node,
                label,
                reqs,
                idx + 1,
                next_plan,
                bindings.clone(),
                depth,
            ) {
                return Some(result);
            }
        }
        None
    }

    /// Materialise a complete children plan: create the children word, recurse into the
    /// planned children, expand the rest minimally, check the value constraints.
    fn realize_plan(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        label: Sym,
        plan: &[(Sym, Vec<Ob>)],
        bindings: Bindings,
        depth: usize,
    ) -> Option<Bindings> {
        let doc_snapshot = doc.snapshot();
        let mut multiset: Vec<Sym> = plan.iter().map(|(planned, _)| *planned).collect();
        multiset.sort_unstable();
        let memo_key = (label, multiset);
        let word = match self.word_memo.get(&memo_key) {
            Some(cached) => cached.clone(),
            None => {
                if !self.charge_cover(label, &memo_key.1) {
                    return None;
                }
                let mut demand = CoverDemand::none();
                for &planned in &memo_key.1 {
                    demand = demand.require(planned, 1);
                }
                let word =
                    xpsat_automata::shortest_covering_word(self.compiled.automaton(label), &demand);
                self.word_memo.insert(memo_key, word.clone());
                word
            }
        }?;
        let mut children: Vec<(NodeId, Sym)> = Vec::with_capacity(word.len());
        for &sym in &word {
            let child = doc.add_child(node, self.compiled.name(sym));
            children.push((child, sym));
        }
        // Map each plan entry to a distinct occurrence of its label.
        let mut used = vec![false; children.len()];
        let mut planned_nodes = Vec::new();
        for (planned_label, _) in plan {
            let found = children
                .iter()
                .enumerate()
                .find(|(i, (_, sym))| !used[*i] && sym == planned_label);
            match found {
                Some((i, &(c, _))) => {
                    used[i] = true;
                    planned_nodes.push(c);
                }
                None => {
                    doc.truncate(doc_snapshot);
                    return None;
                }
            }
        }
        let mut current_bindings = bindings;
        for (child, (child_label, obligations)) in planned_nodes.iter().zip(plan) {
            match self.satisfy(
                doc,
                *child,
                *child_label,
                obligations.clone(),
                current_bindings,
                depth + 1,
            ) {
                Some(next) => current_bindings = next,
                None => {
                    doc.truncate(doc_snapshot);
                    return None;
                }
            }
        }
        for (i, &(child, _)) in children.iter().enumerate() {
            if !used[i] && doc.children(child).is_empty() {
                self.compiled.generator().expand_minimal(doc, child);
            }
        }
        if check_constraints(&current_bindings) {
            Some(current_bindings)
        } else {
            doc.truncate(doc_snapshot);
            None
        }
    }

    /// Cheap over-approximation: can the obligations possibly be satisfied in a subtree
    /// rooted at an element of type `label`?  Navigational steps are approximated by
    /// graph reachability and qualifiers by [`Search::qual_feasible`]; data-value
    /// comparisons only check attribute declarations.  Always an over-approximation,
    /// hence a sound pruning test.
    fn feasible(&self, label: Sym, obligations: &[Ob]) -> bool {
        obligations.iter().all(|ob| match ob {
            Ob::At(path, inner) => {
                let targets = self.approx_reach(path, label);
                let mut ids = targets.iter();
                ids.any(|t| self.feasible(Sym::from_index(t), inner))
            }
            Ob::BindSlot(attr, _) => self.compiled.has_attribute(label, attr),
            Ob::Qual(q) => self.qual_feasible(label, q),
        })
    }

    /// Can the qualifier possibly hold at a node of type `label`?  Positive paths are
    /// checked by reachability (ignoring their own filters), label tests exactly,
    /// attribute comparisons by declaredness; negation is approximated by `true`.
    fn qual_feasible(&self, label: Sym, q: &Qualifier) -> bool {
        match q {
            Qualifier::Path(p) => !self.approx_reach(p, label).is_empty(),
            Qualifier::LabelIs(l) => self.compiled.elem_sym(l) == Some(label),
            Qualifier::And(a, b) => self.qual_feasible(label, a) && self.qual_feasible(label, b),
            Qualifier::Or(a, b) => self.qual_feasible(label, a) || self.qual_feasible(label, b),
            Qualifier::AttrCmp { path, attr, .. } => self
                .approx_reach(path, label)
                .iter()
                .any(|t| self.compiled.has_attribute(Sym::from_index(t), attr)),
            Qualifier::AttrJoin {
                left,
                left_attr,
                right,
                right_attr,
                ..
            } => {
                self.approx_reach(left, label)
                    .iter()
                    .any(|t| self.compiled.has_attribute(Sym::from_index(t), left_attr))
                    && self
                        .approx_reach(right, label)
                        .iter()
                        .any(|t| self.compiled.has_attribute(Sym::from_index(t), right_attr))
            }
            Qualifier::Not(_) => true,
        }
    }

    /// Element types reachable from `from` via the navigational skeleton of `path`
    /// (filters ignored), as a bitset over element symbols.
    fn approx_reach(&self, path: &Path, from: Sym) -> BitSet {
        let graph = self.compiled.graph();
        match path {
            Path::Empty => [from.index()].into_iter().collect(),
            Path::Label(l) => match self.compiled.elem_sym(l) {
                Some(target) if graph.has_edge(from, target) => {
                    [target.index()].into_iter().collect()
                }
                _ => BitSet::new(),
            },
            Path::Wildcard => graph.succ_bits(from).clone(),
            Path::DescendantOrSelf => {
                let mut s = graph.reach_bits(from).clone();
                s.insert(from.index());
                s
            }
            Path::Seq(a, b) => {
                let mut out = BitSet::new();
                for mid in self.approx_reach(a, from).iter() {
                    out.union_with(&self.approx_reach(b, Sym::from_index(mid)));
                }
                out
            }
            Path::Union(a, b) => {
                let mut out = self.approx_reach(a, from);
                out.union_with(&self.approx_reach(b, from));
                out
            }
            Path::Filter(p, _) => self.approx_reach(p, from),
            _ => BitSet::new(),
        }
    }
}

/// Check the accumulated value constraints by union-find over slots and constants.
fn check_constraints(bindings: &Bindings) -> bool {
    let mut keys = KeySpace::default();
    let mut uf = UnionFind::default();
    let mut inequalities: Vec<(usize, usize)> = Vec::new();
    for (slot, op, value) in &bindings.const_constraints {
        let a = keys.slot_key(bindings, *slot);
        let b = keys.const_key(value);
        match op {
            CmpOp::Eq => uf.union(a, b),
            CmpOp::Ne => inequalities.push((a, b)),
        }
    }
    for (s1, op, s2) in &bindings.join_constraints {
        let a = keys.slot_key(bindings, *s1);
        let b = keys.slot_key(bindings, *s2);
        match op {
            CmpOp::Eq => uf.union(a, b),
            CmpOp::Ne => inequalities.push((a, b)),
        }
    }
    let constants: Vec<usize> = keys.constant_ids();
    for (i, &c1) in constants.iter().enumerate() {
        for &c2 in constants.iter().skip(i + 1) {
            if uf.find(c1) == uf.find(c2) {
                return false;
            }
        }
    }
    inequalities
        .into_iter()
        .all(|(a, b)| uf.find(a) != uf.find(b))
}

/// Write concrete values into the witness according to the constraints: every
/// equivalence class keeps its constant (if any) or receives a distinct fresh value.
fn assign_values(doc: &mut Document, bindings: &Bindings) {
    let mut keys = KeySpace::default();
    let mut uf = UnionFind::default();
    for (slot, op, value) in &bindings.const_constraints {
        if *op == CmpOp::Eq {
            let a = keys.slot_key(bindings, *slot);
            let b = keys.const_key(value);
            uf.union(a, b);
        }
    }
    for (s1, op, s2) in &bindings.join_constraints {
        if *op == CmpOp::Eq {
            let a = keys.slot_key(bindings, *s1);
            let b = keys.slot_key(bindings, *s2);
            uf.union(a, b);
        }
    }
    let mut class_value: BTreeMap<usize, String> = BTreeMap::new();
    for (_, op, value) in &bindings.const_constraints {
        if *op == CmpOp::Eq {
            let c = keys.const_key(value);
            let root = uf.find(c);
            class_value.insert(root, value.clone());
        }
    }
    let mut fresh = 0usize;
    let mut assigned: BTreeMap<usize, String> = BTreeMap::new();
    for (slot, (node, attr)) in &bindings.locations {
        let class = {
            let k = keys.slot_key(bindings, *slot);
            uf.find(k)
        };
        let value = class_value.get(&class).cloned().unwrap_or_else(|| {
            assigned.get(&class).cloned().unwrap_or_else(|| {
                fresh += 1;
                let v = format!("_v{fresh}");
                assigned.insert(class, v.clone());
                v
            })
        });
        doc.set_attr(*node, attr.clone(), value);
    }
}

/// Integer key space for the union-find: locations, unbound slots and constants all map
/// to dense ids (the former `String` keys were formatted and re-hashed per operation).
#[derive(Default)]
struct KeySpace<'a> {
    locations: HashMap<(usize, &'a str), usize>,
    slots: HashMap<usize, usize>,
    constants: HashMap<&'a str, usize>,
    next: usize,
}

impl<'a> KeySpace<'a> {
    fn fresh(&mut self) -> usize {
        let id = self.next;
        self.next += 1;
        id
    }

    fn slot_key(&mut self, bindings: &'a Bindings, slot: SlotId) -> usize {
        match bindings.locations.get(&slot) {
            Some((node, attr)) => {
                let key = (node.0, attr.as_str());
                if let Some(&id) = self.locations.get(&key) {
                    id
                } else {
                    let id = self.fresh();
                    self.locations.insert(key, id);
                    id
                }
            }
            None => {
                if let Some(&id) = self.slots.get(&slot) {
                    id
                } else {
                    let id = self.fresh();
                    self.slots.insert(slot, id);
                    id
                }
            }
        }
    }

    fn const_key(&mut self, value: &'a str) -> usize {
        if let Some(&id) = self.constants.get(value) {
            id
        } else {
            let id = self.fresh();
            self.constants.insert(value, id);
            id
        }
    }

    /// The ids of all distinct constants interned so far, in deterministic order.
    fn constant_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.constants.values().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// A tiny index-based union-find with path compression.
#[derive(Default)]
struct UnionFind {
    parents: Vec<usize>,
}

impl UnionFind {
    fn ensure(&mut self, x: usize) {
        while self.parents.len() <= x {
            let next = self.parents.len();
            self.parents.push(next);
        }
    }

    fn find(&mut self, x: usize) -> usize {
        self.ensure(x);
        let mut root = x;
        while self.parents[root] != root {
            root = self.parents[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parents[cur] != root {
            let next = self.parents[cur];
            self.parents[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parents[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::verify_witness;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    fn decide(artifacts: &DtdArtifacts, query: &Path) -> Result<Satisfiability, SatError> {
        decide_with_budget(artifacts, query, &BudgetMeter::unlimited())
            .expect("an unlimited meter cannot exhaust")
    }

    fn check(dtd_text: &str, query_text: &str, expected: bool) {
        let dtd = parse_dtd(dtd_text).unwrap();
        let query = parse_path(query_text).unwrap();
        match decide(&DtdArtifacts::build(&dtd), &query).unwrap() {
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
            Satisfiability::Unknown => panic!("positive engine must be definite"),
        }
    }

    #[test]
    fn qualifiers_interact_with_content_models() {
        // X has either T or F, never both (Example 2.1's shape).
        let dtd = "r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;";
        check(dtd, "x1[t]", true);
        check(dtd, "x1[t and f]", false);
        check(dtd, ".[x1[t] and x2[f]]", true);
        check(dtd, ".[x1[t] and x1[f]]", false); // only one x1 child exists
    }

    #[test]
    fn multiple_occurrences_allow_conflicting_branches() {
        // Under a starred content model two different a-children can carry the two
        // conflicting qualifier branches.
        let dtd = "r -> a*; a -> b | c; b -> #; c -> #;";
        check(dtd, ".[a[b] and a[c]]", true);
        check(dtd, "a[b and c]", false);
    }

    #[test]
    fn descendant_obligations_unroll_through_recursion() {
        let dtd = "r -> c; c -> (c, x) | #; x -> #;";
        check(dtd, "**/x", true);
        check(dtd, "**[x and c]", true);
        check(dtd, "**/x/c", false);
        check(dtd, "c/c/c/x", true);
    }

    #[test]
    fn label_tests() {
        let dtd = "r -> a | b; a -> #; b -> #;";
        check(dtd, "*[lab() = a]", true);
        check(dtd, "*[lab() = a and lab() = b]", false);
        check(dtd, "*[lab() = a or lab() = b]", true);
    }

    #[test]
    fn undeclared_labels_are_unsatisfiable() {
        let dtd = "r -> a; a -> #;";
        check(dtd, "ghost", false);
        check(dtd, "a[ghost]", false);
        check(dtd, "*[lab() = ghost]", false);
    }

    #[test]
    fn data_value_constants() {
        let dtd = "r -> a; a -> #; @a: x;";
        check(dtd, "a[@x = \"1\"]", true);
        check(dtd, "a[@x = \"1\" and @x = \"1\"]", true);
        check(dtd, "a[@x = \"1\" and @x = \"2\"]", false); // single a node, one value
        check(dtd, "a[@x != \"1\"]", true);
        check(dtd, "a[@x = \"1\" and @x != \"1\"]", false);
    }

    #[test]
    fn data_value_constants_with_multiple_witnesses() {
        let dtd = "r -> a, a; a -> #; @a: x;";
        // Two a-children: the two conflicting constants can live on different nodes.
        check(dtd, ".[a/@x = \"1\" and a/@x = \"2\"]", true);
    }

    #[test]
    fn data_value_joins() {
        let dtd = "r -> a, b; a -> #; b -> #; @a: id; @b: id;";
        check(dtd, ".[a/@id = b/@id]", true);
        check(dtd, ".[a/@id != b/@id]", true);
        // A join of a slot with itself under equality is fine, under disequality not.
        let single = "r -> a; a -> #; @a: id;";
        check(single, ".[a/@id = a/@id]", true);
        check(single, ".[a/@id != a/@id]", false);
    }

    #[test]
    fn missing_attributes_make_comparisons_unsatisfiable() {
        let dtd = "r -> a; a -> #;";
        check(dtd, "a[@id = \"1\"]", false);
    }

    #[test]
    fn upward_queries_are_rejected() {
        let artifacts = DtdArtifacts::build(&parse_dtd("r -> a; a -> #;").unwrap());
        assert!(decide(&artifacts, &parse_path("a/..").unwrap()).is_err());
        assert!(decide(&artifacts, &parse_path("a[not(b)]").unwrap()).is_err());
    }

    #[test]
    fn artifacts_can_be_reused_across_queries() {
        let dtd = parse_dtd("r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;").unwrap();
        let artifacts = DtdArtifacts::build(&dtd);
        for (q, expected) in [
            ("x1[t]", true),
            ("x1[t and f]", false),
            (".[x1[t] and x2[f]]", true),
        ] {
            let verdict = decide(&artifacts, &parse_path(q).unwrap()).unwrap();
            assert_eq!(
                matches!(verdict, Satisfiability::Satisfiable(_)),
                expected,
                "{q}"
            );
        }
    }

    #[test]
    fn wide_conjunctions_route_across_forced_children() {
        // The root has exactly one x1 and one x2; four obligations must share them.
        let dtd = "r -> x1, x2; x1 -> a?, b?; x2 -> a?, b?; a -> #; b -> #;";
        check(dtd, ".[x1[a] and x1[b] and x2[a] and x2[b]]", true);
        check(
            dtd,
            ".[x1[a] and x1[b] and x2[a] and *[lab() = x2]/c]",
            false,
        );
    }
}
