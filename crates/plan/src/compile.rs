//! Lowering a canonical query × [`DtdArtifacts`] into a [`DecisionProgram`].
//!
//! The compiler specialises the paper's downward reachability procedure (Theorems
//! 4.1/4.4) to one `(query, DTD)` pair.  The program's registers hold sets of element
//! types the spine node can have; qualifier conjuncts become *pending demands* — child
//! labels that must occur in the node's children word — which the **next** child step
//! consumes through a joint content-model cover mask (`{t : L(P(t))` has a word
//! containing the spine label and one occurrence of every demand label`}`).  The joint
//! check is what keeps `a[b and c]/d` sound under `a → (b,c)|d`: each demand needs its
//! own child occurrence *in the same word* as the spine child.
//!
//! Beyond the downward fragment, the compiler conditions on the
//! [`xpsat_dtd::DtdProperties`] of the target DTD — the
//! Ishihara–Suzuki–Hashimoto (arXiv 1308.0769) analysis that keeps these features
//! PTIME when the *schema* is well-behaved:
//!
//! * **disjunctive qualifiers** (`a[q1 or q2]`, `a[p1|p2]`) distribute into
//!   alternative continuations whose images join by sorted union — exact for any
//!   DTD; *disjunction-capsuled* DTDs get a larger expansion budget because a
//!   disjunct never commits to a concatenation;
//! * **local qualifier negation** (`a[not(b)]`) becomes an *avoid set* threaded
//!   next to the pending demands and resolved by the same cover search over the
//!   alphabet-restricted content model — gated on *duplicate-free* DTDs, where
//!   the Glushkov automaton is deterministic and the restriction is a DFA
//!   complement (`not(lab() = x)` needs no gate: it is a plain complement mask);
//! * **sibling chains** (`a/>`, `a/>*/>` …) compile whole maximal hop runs into
//!   one table-driven op: per parent type, a BFS of the content-model automaton
//!   against a [`SibPattern`] window yields the set of types reachable at the
//!   chain's end (see [`xpsat_automata::sib_pattern_symbols`]).
//!
//! The compiler still bails — now with a counted [`BailReason`] — whenever the
//! discipline cannot guarantee exactness cheaply:
//!
//! * upward axes and data-value (attribute) qualifiers;
//! * negation that is not a single child label or label test (and any local
//!   negation when the DTD is not duplicate-free);
//! * a qualifier path not starting with a concrete child label, or sibling hops
//!   with demands pending at the anchor;
//! * a spine step whose label collides with a pending demand, or two demands on
//!   the same label (one child could then serve two roles — a multiplicity
//!   interaction the cover mask cannot see);
//! * wildcard/descendant spine steps with demands pending, union branches that
//!   would carry pending demands past the join (except in tail position), and
//!   disjunction expansions past the budget;
//! * compile-work or program-size limits exceeded (hostile inputs).
//!
//! Within the accepted fragment the lowering is exact: demands are pre-filtered by
//! *type-level feasibility* of their remaining path (computed by the same analysis,
//! recursively), and subtrees hanging off distinct children realise independently
//! under a DTD, which is precisely the paper's `Tree(p, D)` argument.

use crate::canon::path_is_trivial;
use crate::opt::optimize;
use crate::program::{DecisionProgram, MaskId, Op, Reg, TableId};
use std::collections::HashMap;
use xpsat_automata::{
    sib_pattern_symbols, word_with_multiplicities, BitSet, CoverDemand, SibPattern,
};
use xpsat_dtd::{CompiledDtd, DtdArtifacts, DtdProperties, Sym};
use xpsat_xpath::{Features, Path, Qualifier};

/// Bounds on compile-time work, so hostile queries degrade to the AST path instead of
/// stalling the compiler.
#[derive(Debug, Clone)]
pub struct CompileLimits {
    /// Maximum instructions (and registers) a program may have.
    pub max_ops: usize,
    /// Maximum pending demands at one spine position (cover BFS cost grows with it).
    pub max_demands: usize,
    /// Abstract work budget for feasibility analysis (≈ automaton states visited).
    pub max_work: u64,
    /// Maximum alternative continuations created by distributing disjunctive
    /// qualifiers (multiplied for disjunction-capsuled DTDs, where expansion is
    /// structurally cheap).
    pub max_or_expansions: usize,
}

impl Default for CompileLimits {
    fn default() -> CompileLimits {
        CompileLimits {
            max_ops: 1024,
            max_demands: 8,
            max_work: 8_000_000,
            max_or_expansions: 24,
        }
    }
}

impl CompileLimits {
    /// The limits actually applied against a DTD with the given properties.  Both
    /// the compiler and the witness realiser use this, so their bail behaviour
    /// cannot diverge.
    pub fn effective_for(&self, props: &DtdProperties) -> CompileLimits {
        let mut l = self.clone();
        if props.disjunction_capsuled {
            l.max_or_expansions = l.max_or_expansions.saturating_mul(4);
        }
        l
    }
}

/// Why a compile left the fragment (counted by the workspace so operators can see
/// what keeps queries on the AST path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BailReason {
    /// Upward axes (`..`, ancestor-or-self) anywhere in the query.
    UpwardAxis,
    /// Attribute comparisons or joins (data values).
    DataValue,
    /// Negation beyond a single child label / label test, or local negation
    /// against a DTD that is not duplicate-free.
    Negation,
    /// Disjunction expansion budget exceeded.
    Disjunction,
    /// Sibling hops in an unsupported position (no anchor, mixed directions, or
    /// demands pending at the anchor).
    Sibling,
    /// A qualifier path not starting with a concrete child label, or a wildcard /
    /// descendant step with demands pending.
    QualifierShape,
    /// A demand label colliding with the spine label or another demand.
    DemandCollision,
    /// Too many pending demands at one spine position.
    DemandLimit,
    /// Program size (ops/masks/tables) limit hit.
    ProgramSize,
    /// Analysis work budget exhausted.
    WorkBudget,
}

impl BailReason {
    /// Every reason, in stable order (indexes the workspace counters).
    pub const ALL: [BailReason; 10] = [
        BailReason::UpwardAxis,
        BailReason::DataValue,
        BailReason::Negation,
        BailReason::Disjunction,
        BailReason::Sibling,
        BailReason::QualifierShape,
        BailReason::DemandCollision,
        BailReason::DemandLimit,
        BailReason::ProgramSize,
        BailReason::WorkBudget,
    ];

    /// Stable slug used by stats and the protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            BailReason::UpwardAxis => "upward_axis",
            BailReason::DataValue => "data_value",
            BailReason::Negation => "negation",
            BailReason::Disjunction => "disjunction",
            BailReason::Sibling => "sibling",
            BailReason::QualifierShape => "qualifier_shape",
            BailReason::DemandCollision => "demand_collision",
            BailReason::DemandLimit => "demand_limit",
            BailReason::ProgramSize => "program_size",
            BailReason::WorkBudget => "work_budget",
        }
    }

    /// Position of this reason in [`BailReason::ALL`].
    pub fn index(self) -> usize {
        BailReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("every reason is listed")
    }
}

/// One element of the flattened step stream.
#[derive(Debug, Clone)]
pub(crate) enum Atom<'a> {
    /// A single spine step: `Label`, `Wildcard`, `DescendantOrSelf` or a sibling hop.
    Step(&'a Path),
    /// A child step to an already-resolved element type (used by witness chains).
    Sym(Sym),
    /// A union of alternative continuations, each itself flattened.
    Branch(Vec<Vec<Atom<'a>>>),
    /// A filter: the flattened conjuncts applying at the current position.
    Qual(Vec<&'a Qualifier>),
    /// A filter demanding one path, given directly as flattened atoms (produced
    /// when distributing a union inside a qualifier path).
    QualAtoms(Vec<Atom<'a>>),
}

/// Flatten `p` into the atom stream, or `None` when it uses upward axes.
pub(crate) fn flatten(p: &Path) -> Option<Vec<Atom<'_>>> {
    let mut out = Vec::new();
    flatten_into(p, &mut out)?;
    Some(out)
}

fn flatten_into<'a>(p: &'a Path, out: &mut Vec<Atom<'a>>) -> Option<()> {
    match p {
        Path::Empty => Some(()),
        Path::Seq(a, b) => {
            flatten_into(a, out)?;
            flatten_into(b, out)
        }
        Path::Label(_)
        | Path::Wildcard
        | Path::DescendantOrSelf
        | Path::NextSibling
        | Path::FollowingSiblingOrSelf
        | Path::PrevSibling
        | Path::PrecedingSiblingOrSelf => {
            out.push(Atom::Step(p));
            Some(())
        }
        Path::Union(_, _) => {
            let mut branches = Vec::new();
            collect_union(p, &mut branches);
            let mut flat = Vec::with_capacity(branches.len());
            for b in branches {
                flat.push(flatten(b)?);
            }
            out.push(Atom::Branch(flat));
            Some(())
        }
        Path::Filter(base, q) => {
            flatten_into(base, out)?;
            let mut conjs = Vec::new();
            collect_and(q, &mut conjs);
            out.push(Atom::Qual(conjs));
            Some(())
        }
        Path::Parent | Path::AncestorOrSelf => None,
    }
}

fn collect_union<'a>(p: &'a Path, out: &mut Vec<&'a Path>) {
    match p {
        Path::Union(a, b) => {
            collect_union(a, out);
            collect_union(b, out);
        }
        other => out.push(other),
    }
}

fn collect_and<'a>(q: &'a Qualifier, out: &mut Vec<&'a Qualifier>) {
    match q {
        Qualifier::And(a, b) => {
            collect_and(a, out);
            collect_and(b, out);
        }
        other => out.push(other),
    }
}

fn collect_or<'a>(q: &'a Qualifier, out: &mut Vec<&'a Qualifier>) {
    match q {
        Qualifier::Or(a, b) => {
            collect_or(a, out);
            collect_or(b, out);
        }
        other => out.push(other),
    }
}

/// What one qualifier conjunct contributes at a spine position.
pub(crate) enum Conj<'a> {
    /// Trivially true; contributes nothing.
    True,
    /// Unsatisfiable; the position's image is empty.
    Dead,
    /// Restrict the position to one element type (a label test).
    Restrict(Sym),
    /// Exclude one element type (`not(lab() = x)`; complement mask).
    Exclude(Sym),
    /// Demand a child with this label; the remaining qualifier atoms (already
    /// verified type-feasible) drive witness realisation.
    Pend(Sym, Vec<Atom<'a>>),
    /// Forbid any child with this label (`not(b)`; duplicate-free DTDs only).
    Avoid(Sym),
    /// A disjunctive qualifier: alternative pseudo-atom prefixes, each a full
    /// continuation of the current spine position.
    Expand(Vec<Vec<Atom<'a>>>),
}

/// A maximal run of sibling hops after an anchor child step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainSpec {
    /// Atoms consumed by the hops (not counting the anchor).
    pub(crate) consumed: usize,
    /// `<`/`<*` (towards earlier siblings) instead of `>`/`>*`.
    backward: bool,
    /// Number of exact single-position hops.
    gap: usize,
    /// Whether any or-self hop allows extra distance.
    flexible: bool,
}

/// The sibling run starting at `atoms`, if any.  `Some(Err(()))` = hops present
/// but mixing directions (unsupported).
pub(crate) fn sibling_chain(atoms: &[Atom]) -> Option<Result<ChainSpec, ()>> {
    let mut consumed = 0;
    let mut fwd = 0usize;
    let mut bwd = 0usize;
    let mut gap = 0usize;
    let mut flexible = false;
    for atom in atoms {
        let Atom::Step(step) = atom else { break };
        match step {
            Path::NextSibling => {
                fwd += 1;
                gap += 1;
            }
            Path::FollowingSiblingOrSelf => {
                fwd += 1;
                flexible = true;
            }
            Path::PrevSibling => {
                bwd += 1;
                gap += 1;
            }
            Path::PrecedingSiblingOrSelf => {
                bwd += 1;
                flexible = true;
            }
            _ => break,
        }
        consumed += 1;
    }
    if consumed == 0 {
        return None;
    }
    if fwd > 0 && bwd > 0 {
        return Some(Err(()));
    }
    Some(Ok(ChainSpec {
        consumed,
        backward: bwd > 0,
        gap,
        flexible,
    }))
}

/// Memo key for a joint cover query: (spine child label, sorted pending demand
/// labels, sorted avoid labels).
type CoverKey = (Option<Sym>, Vec<Sym>, Vec<Sym>);

/// Shared feasibility analysis: pure bitset images of atom streams, memoised joint
/// cover masks, and a work budget.  Used by the compiler (to build `ok` masks and
/// pre-filter demands) and by the witness realiser (to steer choices).  The first
/// reason a bail (`None`) happened is recorded for the workspace counters.
pub(crate) struct Analysis<'a> {
    pub(crate) compiled: &'a CompiledDtd,
    limits: CompileLimits,
    work: u64,
    or_expansions: usize,
    bail: Option<BailReason>,
    cover_memo: HashMap<CoverKey, BitSet>,
}

impl<'a> Analysis<'a> {
    pub(crate) fn new(compiled: &'a CompiledDtd, limits: CompileLimits) -> Analysis<'a> {
        Analysis {
            compiled,
            limits,
            work: 0,
            or_expansions: 0,
            bail: None,
            cover_memo: HashMap::new(),
        }
    }

    /// Record the *first* bail reason and return `None` (the whole compile fails).
    fn fail<T>(&mut self, reason: BailReason) -> Option<T> {
        if self.bail.is_none() {
            self.bail = Some(reason);
        }
        None
    }

    pub(crate) fn bail_reason(&self) -> BailReason {
        self.bail.unwrap_or(BailReason::QualifierShape)
    }

    fn spend(&mut self, n: u64) -> Option<()> {
        self.work = self.work.saturating_add(n);
        if self.work > self.limits.max_work {
            return self.fail(BailReason::WorkBudget);
        }
        Some(())
    }

    fn props(&self) -> &DtdProperties {
        self.compiled.properties()
    }

    fn empty(&self) -> BitSet {
        BitSet::with_capacity(self.compiled.num_elements())
    }

    pub(crate) fn singleton(&self, s: Sym) -> BitSet {
        let mut b = self.empty();
        b.insert(s.index());
        b
    }

    /// All element types except `s` (the complement mask of a label test).
    fn complement_singleton(&self, s: Sym) -> BitSet {
        let mut b = self.empty();
        for t in self.compiled.elements() {
            if t != s {
                b.insert(t.index());
            }
        }
        b
    }

    /// The allowed alphabet under an avoid set (all element types minus `avoid`).
    fn allowed_set(&self, avoid: &[Sym]) -> std::collections::BTreeSet<Sym> {
        self.compiled
            .elements()
            .filter(|t| !avoid.contains(t))
            .collect()
    }

    /// The types whose content model has a word containing one occurrence of `base`
    /// (when present) plus one occurrence of every demand label, all at distinct
    /// positions, using no symbol from `avoid`.  Demands are pairwise distinct and
    /// distinct from `base` (enforced by the callers' bail rules), so distinctness
    /// is automatic.
    pub(crate) fn cover_mask(
        &mut self,
        base: Option<Sym>,
        demands: &[Sym],
        avoid: &[Sym],
    ) -> Option<BitSet> {
        if base.is_some_and(|s| avoid.contains(&s)) || demands.iter().any(|d| avoid.contains(d)) {
            return Some(self.empty()); // a required child is forbidden: definite empty
        }
        let mut key: Vec<Sym> = demands.to_vec();
        key.sort_unstable();
        let mut akey: Vec<Sym> = avoid.to_vec();
        akey.sort_unstable();
        akey.dedup();
        if let Some(m) = self.cover_memo.get(&(base, key.clone(), akey.clone())) {
            return Some(m.clone());
        }
        let mut dem = CoverDemand::none();
        if let Some(s) = base {
            dem = dem.require(s, 1);
        }
        for &d in &key {
            dem = dem.require(d, 1);
        }
        if !akey.is_empty() {
            dem = dem.restrict_to(self.allowed_set(&akey));
        }
        let mut mask = self.empty();
        let graph = self.compiled.graph();
        for t in self.compiled.elements() {
            // Every required label must be a successor of `t` at all; edges of the
            // pruned graph mean "occurs syntactically", which settles the base-only
            // and no-demand cases (without avoid) without touching the automaton.
            let succ = graph.succ_bits(t);
            let present = base.is_none_or(|s| succ.contains(s.index()))
                && key.iter().all(|d| succ.contains(d.index()));
            if !present {
                continue;
            }
            if key.is_empty() && akey.is_empty() {
                mask.insert(t.index());
                continue;
            }
            self.spend(self.compiled.automaton(t).num_states() as u64 + 1)?;
            if word_with_multiplicities(self.compiled.automaton(t), &dem) {
                mask.insert(t.index());
            }
        }
        self.cover_memo.insert((base, key, akey), mask.clone());
        Some(mask)
    }

    /// Image of a child step to `s` under pending demands and an avoid set.
    fn child_image(
        &mut self,
        cur: &BitSet,
        s: Sym,
        pending: &[Sym],
        avoid: &[Sym],
    ) -> Option<BitSet> {
        if pending.contains(&s) {
            return self.fail(BailReason::DemandCollision);
        }
        if avoid.contains(&s) {
            return Some(self.empty()); // the spine child itself is forbidden
        }
        let ok = self.cover_mask(Some(s), pending, avoid)?;
        let mut dst = self.empty();
        if cur.intersects(&ok) {
            dst.insert(s.index());
        }
        Some(dst)
    }

    /// The [`SibPattern`] of a chain from `anchor` (None = wildcard anchor), under
    /// the current avoid set.
    pub(crate) fn chain_pattern(
        &self,
        anchor: Option<Sym>,
        spec: ChainSpec,
        avoid: &[Sym],
    ) -> SibPattern<Sym> {
        let allowed = (!avoid.is_empty()).then(|| self.allowed_set(avoid));
        if spec.backward {
            SibPattern {
                left: None,
                right: anchor,
                gap: spec.gap,
                flexible: spec.flexible,
                capture_left: true,
                allowed,
            }
        } else {
            SibPattern {
                left: anchor,
                right: None,
                gap: spec.gap,
                flexible: spec.flexible,
                capture_left: false,
                allowed,
            }
        }
    }

    /// Types reachable at the captured end of the chain from parent type `t`.
    fn chain_row(&mut self, t: Sym, pat: &SibPattern<Sym>) -> Option<BitSet> {
        let nfa = self.compiled.automaton(t);
        self.spend((nfa.num_states() as u64 + 1) * (pat.gap as u64 + 3))?;
        let nfa = self.compiled.automaton(t);
        let mut row = self.empty();
        for s in sib_pattern_symbols(nfa, pat) {
            row.insert(s.index());
        }
        Some(row)
    }

    /// Union of chain rows over the current register (the image-side mirror of
    /// [`Op::Table`]).
    fn chain_targets(&mut self, cur: &BitSet, pat: &SibPattern<Sym>) -> Option<BitSet> {
        let mut dst = self.empty();
        let types: Vec<Sym> = cur.iter().map(Sym::from_index).collect();
        for t in types {
            let row = self.chain_row(t, pat)?;
            dst.union_with(&row);
        }
        Some(dst)
    }

    /// Charge one disjunction expansion of `alts` alternatives against the budget.
    fn charge_expansion(&mut self, alts: usize) -> Option<()> {
        if alts > 1 {
            self.or_expansions = self.or_expansions.saturating_add(alts);
            if self.or_expansions > self.limits.max_or_expansions {
                return self.fail(BailReason::Disjunction);
            }
        }
        Some(())
    }

    /// Analyse a qualifier path given as flattened atoms (shared by plain path
    /// qualifiers and by distributed union branches).
    pub(crate) fn analyze_qual_atoms(
        &mut self,
        pending: &[Sym],
        avoid: &[Sym],
        atoms: &[Atom<'a>],
    ) -> Option<Conj<'a>> {
        let Some((first, rest)) = atoms.split_first() else {
            return Some(Conj::True); // ε qualifier
        };
        match first {
            Atom::Step(Path::Label(name)) => match self.compiled.elem_sym(name) {
                None => Some(Conj::Dead),
                Some(s) => self.pend_demand(pending, avoid, s, rest),
            },
            Atom::Sym(s) => self.pend_demand(pending, avoid, *s, rest),
            Atom::Branch(branches) => {
                // A disjunctive qualifier path: one alternative per branch, each a
                // pseudo-atom demanding `branch ++ rest` at the current position.
                let alts: Vec<Vec<Atom<'a>>> = branches
                    .iter()
                    .map(|b| {
                        let mut stream = b.clone();
                        stream.extend_from_slice(rest);
                        vec![Atom::QualAtoms(stream)]
                    })
                    .collect();
                Some(Conj::Expand(alts))
            }
            Atom::Qual(conjs) => {
                // A leading filter (`[.[q]/rest]`): the inner conjuncts apply at the
                // current node, the remainder is a fresh path demand.
                let mut alt = vec![Atom::Qual(conjs.clone())];
                if !rest.is_empty() {
                    alt.push(Atom::QualAtoms(rest.to_vec()));
                }
                Some(Conj::Expand(vec![alt]))
            }
            Atom::QualAtoms(inner) => {
                let mut alt = vec![Atom::QualAtoms(inner.clone())];
                if !rest.is_empty() {
                    alt.push(Atom::QualAtoms(rest.to_vec()));
                }
                Some(Conj::Expand(vec![alt]))
            }
            Atom::Step(Path::NextSibling)
            | Atom::Step(Path::FollowingSiblingOrSelf)
            | Atom::Step(Path::PrevSibling)
            | Atom::Step(Path::PrecedingSiblingOrSelf) => {
                // A sibling hop from the *qualified node itself* moves in the
                // enclosing word — a cross-level interaction this analysis does not
                // model.  (Hops deeper inside the qualifier are fine: they re-enter
                // `image` with a fresh anchor.)
                self.fail(BailReason::Sibling)
            }
            // Wildcard / descendant demands need per-type treatment; bail.
            _ => self.fail(BailReason::QualifierShape),
        }
    }

    /// A concrete child-label demand with remainder `rest`.
    fn pend_demand(
        &mut self,
        pending: &[Sym],
        avoid: &[Sym],
        s: Sym,
        rest: &[Atom<'a>],
    ) -> Option<Conj<'a>> {
        if avoid.contains(&s) {
            return Some(Conj::Dead); // demanded child is forbidden at this node
        }
        if pending.contains(&s) {
            return self.fail(BailReason::DemandCollision);
        }
        if pending.len() >= self.limits.max_demands {
            return self.fail(BailReason::DemandLimit);
        }
        let start = self.singleton(s);
        let img = self.image(&start, rest, &[], &[], true)?;
        if img.is_empty() {
            Some(Conj::Dead)
        } else {
            Some(Conj::Pend(s, rest.to_vec()))
        }
    }

    /// Classify one conjunct against the current pending/avoid sets (shared by
    /// image, emission and witness realisation so their bail behaviour cannot
    /// diverge).
    pub(crate) fn analyze_conjunct(
        &mut self,
        pending: &[Sym],
        avoid: &[Sym],
        q: &'a Qualifier,
    ) -> Option<Conj<'a>> {
        match q {
            Qualifier::LabelIs(name) => match self.compiled.elem_sym(name) {
                None => Some(Conj::Dead),
                Some(s) => Some(Conj::Restrict(s)),
            },
            Qualifier::Path(p) => {
                if path_is_trivial(p) {
                    return Some(Conj::True);
                }
                let Some(atoms) = flatten(p) else {
                    return self.fail(BailReason::UpwardAxis);
                };
                self.analyze_qual_atoms(pending, avoid, &atoms)
            }
            Qualifier::Or(_, _) => {
                let mut disjuncts = Vec::new();
                collect_or(q, &mut disjuncts);
                let alts: Vec<Vec<Atom<'a>>> = disjuncts
                    .into_iter()
                    .map(|d| vec![Atom::Qual(vec![d])])
                    .collect();
                Some(Conj::Expand(alts))
            }
            Qualifier::And(_, _) => {
                // Flattened by `flatten`, but reachable as an Or disjunct.
                let mut conjs = Vec::new();
                collect_and(q, &mut conjs);
                Some(Conj::Expand(vec![vec![Atom::Qual(conjs)]]))
            }
            Qualifier::Not(inner) => match &**inner {
                Qualifier::LabelIs(name) => match self.compiled.elem_sym(name) {
                    None => Some(Conj::True), // no element carries an undeclared label
                    Some(s) => Some(Conj::Exclude(s)),
                },
                Qualifier::Path(p) => {
                    if path_is_trivial(p) {
                        return Some(Conj::Dead); // not(true)
                    }
                    let Some(atoms) = flatten(p) else {
                        return self.fail(BailReason::Negation);
                    };
                    match atoms.as_slice() {
                        [Atom::Step(Path::Label(name))] => match self.compiled.elem_sym(name) {
                            None => Some(Conj::True), // cannot have an undeclared child
                            Some(s) => {
                                if !self.props().duplicate_free {
                                    return self.fail(BailReason::Negation);
                                }
                                if pending.contains(&s) {
                                    return Some(Conj::Dead);
                                }
                                Some(Conj::Avoid(s))
                            }
                        },
                        _ => self.fail(BailReason::Negation),
                    }
                }
                Qualifier::Not(q2) => self.analyze_conjunct(pending, avoid, q2),
                Qualifier::AttrCmp { .. } | Qualifier::AttrJoin { .. } => {
                    self.fail(BailReason::DataValue)
                }
                _ => self.fail(BailReason::Negation),
            },
            Qualifier::AttrCmp { .. } | Qualifier::AttrJoin { .. } => {
                self.fail(BailReason::DataValue)
            }
        }
    }

    /// Pure image of `atoms` from the types in `start`, under `incoming` pending
    /// demands and `inc_avoid` forbidden child labels.  `tail` permits trailing
    /// demands (resolved by a cover mask); otherwise they bail.  `None` = outside
    /// the fragment or out of work budget; an *empty* image is a definite "nothing
    /// reachable".
    pub(crate) fn image(
        &mut self,
        start: &BitSet,
        atoms: &[Atom<'a>],
        incoming: &[Sym],
        inc_avoid: &[Sym],
        tail: bool,
    ) -> Option<BitSet> {
        self.spend(atoms.len() as u64 + 1)?;
        let mut cur = start.clone();
        let mut pending: Vec<Sym> = incoming.to_vec();
        let mut avoid: Vec<Sym> = inc_avoid.to_vec();
        let mut i = 0;
        while i < atoms.len() {
            let last = i + 1 == atoms.len();
            match &atoms[i] {
                Atom::Step(step) => match step {
                    Path::Label(name) => {
                        let anchor = self.compiled.elem_sym(name);
                        match sibling_chain(&atoms[i + 1..]) {
                            Some(Err(())) => return self.fail(BailReason::Sibling),
                            Some(Ok(spec)) => {
                                if !pending.is_empty() {
                                    return self.fail(BailReason::Sibling);
                                }
                                cur = match anchor {
                                    None => self.empty(),
                                    Some(s) => {
                                        let pat = self.chain_pattern(Some(s), spec, &avoid);
                                        self.chain_targets(&cur, &pat)?
                                    }
                                };
                                avoid.clear();
                                i += spec.consumed;
                            }
                            None => {
                                cur = match anchor {
                                    None => self.empty(),
                                    Some(s) => self.child_image(&cur, s, &pending, &avoid)?,
                                };
                                pending.clear();
                                avoid.clear();
                            }
                        }
                    }
                    Path::Wildcard => {
                        if !pending.is_empty() {
                            return self.fail(BailReason::QualifierShape);
                        }
                        match sibling_chain(&atoms[i + 1..]) {
                            Some(Err(())) => return self.fail(BailReason::Sibling),
                            Some(Ok(spec)) => {
                                let pat = self.chain_pattern(None, spec, &avoid);
                                cur = self.chain_targets(&cur, &pat)?;
                                avoid.clear();
                                i += spec.consumed;
                            }
                            None => {
                                if !avoid.is_empty() {
                                    return self.fail(BailReason::Negation);
                                }
                                let mut dst = self.empty();
                                for t in cur.iter() {
                                    dst.union_with(
                                        self.compiled.graph().succ_bits(Sym::from_index(t)),
                                    );
                                }
                                cur = dst;
                            }
                        }
                    }
                    Path::DescendantOrSelf => {
                        if !pending.is_empty() {
                            return self.fail(BailReason::QualifierShape);
                        }
                        if !avoid.is_empty() {
                            return self.fail(BailReason::Negation);
                        }
                        let mut dst = cur.clone();
                        for t in cur.iter() {
                            dst.union_with(self.compiled.graph().reach_bits(Sym::from_index(t)));
                        }
                        cur = dst;
                    }
                    // A sibling hop with no anchor child step before it.
                    Path::NextSibling
                    | Path::FollowingSiblingOrSelf
                    | Path::PrevSibling
                    | Path::PrecedingSiblingOrSelf => return self.fail(BailReason::Sibling),
                    _ => return self.fail(BailReason::UpwardAxis),
                },
                Atom::Sym(s) => {
                    let s = *s;
                    match sibling_chain(&atoms[i + 1..]) {
                        Some(Err(())) => return self.fail(BailReason::Sibling),
                        Some(Ok(spec)) => {
                            if !pending.is_empty() {
                                return self.fail(BailReason::Sibling);
                            }
                            let pat = self.chain_pattern(Some(s), spec, &avoid);
                            cur = self.chain_targets(&cur, &pat)?;
                            avoid.clear();
                            i += spec.consumed;
                        }
                        None => {
                            cur = self.child_image(&cur, s, &pending, &avoid)?;
                            pending.clear();
                            avoid.clear();
                        }
                    }
                }
                Atom::Branch(branches) => {
                    let branch_tail = tail && last;
                    let mut dst = self.empty();
                    for b in branches {
                        let r = self.image(&cur, b, &pending, &avoid, branch_tail)?;
                        dst.union_with(&r);
                    }
                    cur = dst;
                    pending.clear();
                    avoid.clear();
                }
                Atom::Qual(conjs) => {
                    for (j, c) in conjs.iter().enumerate() {
                        match self.analyze_conjunct(&pending, &avoid, c)? {
                            Conj::True => {}
                            Conj::Dead => {
                                cur = self.empty();
                                pending.clear();
                                avoid.clear();
                            }
                            Conj::Restrict(s) => {
                                let m = self.singleton(s);
                                cur.intersect_with(&m);
                            }
                            Conj::Exclude(s) => {
                                let m = self.complement_singleton(s);
                                cur.intersect_with(&m);
                            }
                            Conj::Pend(s, _) => pending.push(s),
                            Conj::Avoid(s) => {
                                if !avoid.contains(&s) {
                                    avoid.push(s);
                                }
                            }
                            Conj::Expand(alts) => {
                                self.charge_expansion(alts.len())?;
                                let mut dst = self.empty();
                                for alt in alts {
                                    let mut cont = alt;
                                    if j + 1 < conjs.len() {
                                        cont.push(Atom::Qual(conjs[j + 1..].to_vec()));
                                    }
                                    cont.extend_from_slice(&atoms[i + 1..]);
                                    let r = self.image(&cur, &cont, &pending, &avoid, tail)?;
                                    dst.union_with(&r);
                                }
                                return Some(dst);
                            }
                        }
                    }
                }
                Atom::QualAtoms(stream) => {
                    let stream = stream.clone();
                    match self.analyze_qual_atoms(&pending, &avoid, &stream)? {
                        Conj::True => {}
                        Conj::Dead => {
                            cur = self.empty();
                            pending.clear();
                            avoid.clear();
                        }
                        Conj::Restrict(s) => {
                            let m = self.singleton(s);
                            cur.intersect_with(&m);
                        }
                        Conj::Exclude(s) => {
                            let m = self.complement_singleton(s);
                            cur.intersect_with(&m);
                        }
                        Conj::Pend(s, _) => pending.push(s),
                        Conj::Avoid(s) => {
                            if !avoid.contains(&s) {
                                avoid.push(s);
                            }
                        }
                        Conj::Expand(alts) => {
                            self.charge_expansion(alts.len())?;
                            let mut dst = self.empty();
                            for alt in alts {
                                let mut cont = alt;
                                cont.extend_from_slice(&atoms[i + 1..]);
                                let r = self.image(&cur, &cont, &pending, &avoid, tail)?;
                                dst.union_with(&r);
                            }
                            return Some(dst);
                        }
                    }
                }
            }
            i += 1;
        }
        if !pending.is_empty() || !avoid.is_empty() {
            if !tail {
                return self.fail(BailReason::QualifierShape);
            }
            let mask = self.cover_mask(None, &pending, &avoid)?;
            cur.intersect_with(&mask);
        }
        Some(cur)
    }

    /// Is the atom stream satisfiable from a node of type `s`?
    pub(crate) fn feasible_from(&mut self, s: Sym, atoms: &[Atom<'a>]) -> Option<bool> {
        let start = self.singleton(s);
        Some(!self.image(&start, atoms, &[], &[], true)?.is_empty())
    }
}

/// Op emission: mirrors [`Analysis::image`] step for step, but materialises registers
/// and interned masks instead of computing the sets.
struct Compiler<'a> {
    an: Analysis<'a>,
    ops: Vec<Op>,
    masks: Vec<BitSet>,
    tables: Vec<Vec<BitSet>>,
    mask_memo: HashMap<CoverKey, MaskId>,
}

impl<'a> Compiler<'a> {
    fn next_reg(&mut self) -> Option<Reg> {
        if self.ops.len() >= self.an.limits.max_ops {
            return self.an.fail(BailReason::ProgramSize);
        }
        Some(self.ops.len() as Reg)
    }

    fn push(&mut self, op: Op) -> Option<Reg> {
        let dst = self.next_reg()?;
        self.ops.push(op);
        Some(dst)
    }

    fn push_mask(&mut self, mask: BitSet) -> Option<MaskId> {
        if self.masks.len() >= self.an.limits.max_ops {
            return self.an.fail(BailReason::ProgramSize);
        }
        let id = self.masks.len() as MaskId;
        self.masks.push(mask);
        Some(id)
    }

    fn push_table(&mut self, rows: Vec<BitSet>) -> Option<TableId> {
        if self.tables.len() >= self.an.limits.max_ops {
            return self.an.fail(BailReason::ProgramSize);
        }
        let id = self.tables.len() as TableId;
        self.tables.push(rows);
        Some(id)
    }

    fn intern_cover(
        &mut self,
        base: Option<Sym>,
        demands: &[Sym],
        avoid: &[Sym],
    ) -> Option<MaskId> {
        let mut key: Vec<Sym> = demands.to_vec();
        key.sort_unstable();
        let mut akey: Vec<Sym> = avoid.to_vec();
        akey.sort_unstable();
        akey.dedup();
        if let Some(&id) = self.mask_memo.get(&(base, key.clone(), akey.clone())) {
            return Some(id);
        }
        let mask = self.an.cover_mask(base, &key, &akey)?;
        let id = self.push_mask(mask)?;
        self.mask_memo.insert((base, key, akey), id);
        Some(id)
    }

    fn emit_child(&mut self, src: Reg, s: Sym, pending: &[Sym], avoid: &[Sym]) -> Option<Reg> {
        if pending.contains(&s) {
            return self.an.fail(BailReason::DemandCollision);
        }
        if avoid.contains(&s) {
            let dst = self.next_reg()?;
            return self.push(Op::Empty { dst });
        }
        let ok = self.intern_cover(Some(s), pending, avoid)?;
        let dst = self.next_reg()?;
        self.push(Op::Child {
            src,
            dst,
            sym: s,
            ok,
        })
    }

    /// Emit a whole sibling chain as one table-driven op.
    fn emit_chain(
        &mut self,
        src: Reg,
        anchor: Option<Sym>,
        spec: ChainSpec,
        avoid: &[Sym],
    ) -> Option<Reg> {
        let pat = self.an.chain_pattern(anchor, spec, avoid);
        let n = self.an.compiled.num_elements();
        let mut rows = Vec::with_capacity(n);
        for t in 0..n {
            rows.push(self.an.chain_row(Sym::from_index(t), &pat)?);
        }
        let table = self.push_table(rows)?;
        let dst = self.next_reg()?;
        self.push(Op::Table { src, dst, table })
    }

    fn emit(
        &mut self,
        src: Reg,
        atoms: &[Atom<'a>],
        incoming: &[Sym],
        inc_avoid: &[Sym],
        tail: bool,
    ) -> Option<Reg> {
        let mut cur = src;
        let mut pending: Vec<Sym> = incoming.to_vec();
        let mut avoid: Vec<Sym> = inc_avoid.to_vec();
        let mut i = 0;
        while i < atoms.len() {
            let last = i + 1 == atoms.len();
            match &atoms[i] {
                Atom::Step(step) => match step {
                    Path::Label(name) => {
                        let anchor = self.an.compiled.elem_sym(name);
                        match sibling_chain(&atoms[i + 1..]) {
                            Some(Err(())) => return self.an.fail(BailReason::Sibling),
                            Some(Ok(spec)) => {
                                if !pending.is_empty() {
                                    return self.an.fail(BailReason::Sibling);
                                }
                                cur = match anchor {
                                    None => {
                                        let dst = self.next_reg()?;
                                        self.push(Op::Empty { dst })?
                                    }
                                    Some(s) => self.emit_chain(cur, Some(s), spec, &avoid)?,
                                };
                                avoid.clear();
                                i += spec.consumed;
                            }
                            None => {
                                cur = match anchor {
                                    None => {
                                        let dst = self.next_reg()?;
                                        self.push(Op::Empty { dst })?
                                    }
                                    Some(s) => self.emit_child(cur, s, &pending, &avoid)?,
                                };
                                pending.clear();
                                avoid.clear();
                            }
                        }
                    }
                    Path::Wildcard => {
                        if !pending.is_empty() {
                            return self.an.fail(BailReason::QualifierShape);
                        }
                        match sibling_chain(&atoms[i + 1..]) {
                            Some(Err(())) => return self.an.fail(BailReason::Sibling),
                            Some(Ok(spec)) => {
                                cur = self.emit_chain(cur, None, spec, &avoid)?;
                                avoid.clear();
                                i += spec.consumed;
                            }
                            None => {
                                if !avoid.is_empty() {
                                    return self.an.fail(BailReason::Negation);
                                }
                                let dst = self.next_reg()?;
                                cur = self.push(Op::AnyChild { src: cur, dst })?;
                            }
                        }
                    }
                    Path::DescendantOrSelf => {
                        if !pending.is_empty() {
                            return self.an.fail(BailReason::QualifierShape);
                        }
                        if !avoid.is_empty() {
                            return self.an.fail(BailReason::Negation);
                        }
                        let dst = self.next_reg()?;
                        cur = self.push(Op::DescOrSelf { src: cur, dst })?;
                    }
                    Path::NextSibling
                    | Path::FollowingSiblingOrSelf
                    | Path::PrevSibling
                    | Path::PrecedingSiblingOrSelf => return self.an.fail(BailReason::Sibling),
                    _ => return self.an.fail(BailReason::UpwardAxis),
                },
                Atom::Sym(s) => {
                    let s = *s;
                    match sibling_chain(&atoms[i + 1..]) {
                        Some(Err(())) => return self.an.fail(BailReason::Sibling),
                        Some(Ok(spec)) => {
                            if !pending.is_empty() {
                                return self.an.fail(BailReason::Sibling);
                            }
                            cur = self.emit_chain(cur, Some(s), spec, &avoid)?;
                            avoid.clear();
                            i += spec.consumed;
                        }
                        None => {
                            cur = self.emit_child(cur, s, &pending, &avoid)?;
                            pending.clear();
                            avoid.clear();
                        }
                    }
                }
                Atom::Branch(branches) => {
                    let branch_tail = tail && last;
                    let mut acc: Option<Reg> = None;
                    for b in branches {
                        let r = self.emit(cur, b, &pending, &avoid, branch_tail)?;
                        acc = Some(match acc {
                            None => r,
                            Some(a) => {
                                let dst = self.next_reg()?;
                                self.push(Op::Union { a, b: r, dst })?
                            }
                        });
                    }
                    cur = acc?;
                    pending.clear();
                    avoid.clear();
                }
                Atom::Qual(conjs) => {
                    for (j, c) in conjs.iter().enumerate() {
                        match self.an.analyze_conjunct(&pending, &avoid, c)? {
                            Conj::True => {}
                            Conj::Dead => {
                                let dst = self.next_reg()?;
                                cur = self.push(Op::Empty { dst })?;
                                pending.clear();
                                avoid.clear();
                            }
                            Conj::Restrict(s) => {
                                let m = self.an.singleton(s);
                                cur = self.emit_intersect(cur, m)?;
                            }
                            Conj::Exclude(s) => {
                                let m = self.an.complement_singleton(s);
                                cur = self.emit_intersect(cur, m)?;
                            }
                            Conj::Pend(s, _) => pending.push(s),
                            Conj::Avoid(s) => {
                                if !avoid.contains(&s) {
                                    avoid.push(s);
                                }
                            }
                            Conj::Expand(alts) => {
                                self.an.charge_expansion(alts.len())?;
                                let mut acc: Option<Reg> = None;
                                for alt in alts {
                                    let mut cont = alt;
                                    if j + 1 < conjs.len() {
                                        cont.push(Atom::Qual(conjs[j + 1..].to_vec()));
                                    }
                                    cont.extend_from_slice(&atoms[i + 1..]);
                                    let r = self.emit(cur, &cont, &pending, &avoid, tail)?;
                                    acc = Some(match acc {
                                        None => r,
                                        Some(a) => {
                                            let dst = self.next_reg()?;
                                            self.push(Op::Union { a, b: r, dst })?
                                        }
                                    });
                                }
                                return acc;
                            }
                        }
                    }
                }
                Atom::QualAtoms(stream) => {
                    let stream = stream.clone();
                    match self.an.analyze_qual_atoms(&pending, &avoid, &stream)? {
                        Conj::True => {}
                        Conj::Dead => {
                            let dst = self.next_reg()?;
                            cur = self.push(Op::Empty { dst })?;
                            pending.clear();
                            avoid.clear();
                        }
                        Conj::Restrict(s) => {
                            let m = self.an.singleton(s);
                            cur = self.emit_intersect(cur, m)?;
                        }
                        Conj::Exclude(s) => {
                            let m = self.an.complement_singleton(s);
                            cur = self.emit_intersect(cur, m)?;
                        }
                        Conj::Pend(s, _) => pending.push(s),
                        Conj::Avoid(s) => {
                            if !avoid.contains(&s) {
                                avoid.push(s);
                            }
                        }
                        Conj::Expand(alts) => {
                            self.an.charge_expansion(alts.len())?;
                            let mut acc: Option<Reg> = None;
                            for alt in alts {
                                let mut cont = alt;
                                cont.extend_from_slice(&atoms[i + 1..]);
                                let r = self.emit(cur, &cont, &pending, &avoid, tail)?;
                                acc = Some(match acc {
                                    None => r,
                                    Some(a) => {
                                        let dst = self.next_reg()?;
                                        self.push(Op::Union { a, b: r, dst })?
                                    }
                                });
                            }
                            return acc;
                        }
                    }
                }
            }
            i += 1;
        }
        if !pending.is_empty() || !avoid.is_empty() {
            if !tail {
                return self.an.fail(BailReason::QualifierShape);
            }
            let mask = self.intern_cover(None, &pending, &avoid)?;
            let dst = self.next_reg()?;
            cur = self.push(Op::Intersect {
                src: cur,
                dst,
                mask,
            })?;
        }
        Some(cur)
    }

    fn emit_intersect(&mut self, src: Reg, mask: BitSet) -> Option<Reg> {
        let mask = self.push_mask(mask)?;
        let dst = self.next_reg()?;
        self.push(Op::Intersect { src, dst, mask })
    }
}

/// Lower `canonical` against `artifacts` into a replayable program, reporting the
/// first [`BailReason`] when the query leaves the compiled fragment.
///
/// The input should be the output of [`crate::canonicalize`]; a non-canonical path
/// compiles correctly too, it just forfeits sharing.
pub fn compile_with_reason(
    artifacts: &DtdArtifacts,
    canonical: &Path,
    limits: &CompileLimits,
) -> Result<DecisionProgram, BailReason> {
    let f = Features::of_path(canonical);
    if f.has_upward() {
        return Err(BailReason::UpwardAxis);
    }
    if f.data_value {
        return Err(BailReason::DataValue);
    }
    let Some(compiled) = artifacts.compiled() else {
        // Non-terminating root: no document conforms, every query is unsatisfiable.
        return Ok(DecisionProgram {
            ops: Vec::new(),
            masks: Vec::new(),
            tables: Vec::new(),
            num_elements: 0,
            out: 0,
            const_unsat: true,
            canon: canonical.clone(),
            dtd_uid: artifacts.uid(),
        });
    };
    let limits = limits.effective_for(compiled.properties());
    let atoms = flatten(canonical).ok_or(BailReason::UpwardAxis)?;
    let mut c = Compiler {
        an: Analysis::new(compiled, limits),
        ops: Vec::new(),
        masks: Vec::new(),
        tables: Vec::new(),
        mask_memo: HashMap::new(),
    };
    let Some(root) = c.next_reg().and_then(|dst| c.push(Op::Root { dst })) else {
        return Err(c.an.bail_reason());
    };
    match c.emit(root, &atoms, &[], &[], true) {
        Some(out) => Ok(optimize(DecisionProgram {
            ops: c.ops,
            masks: c.masks,
            tables: c.tables,
            num_elements: compiled.num_elements(),
            out,
            const_unsat: false,
            canon: canonical.clone(),
            dtd_uid: artifacts.uid(),
        })),
        None => Err(c.an.bail_reason()),
    }
}

/// Lower `canonical` against `artifacts`, or `None` when the query leaves the
/// compiled fragment (the caller keeps the AST solver as oracle).
pub fn compile(
    artifacts: &DtdArtifacts,
    canonical: &Path,
    limits: &CompileLimits,
) -> Option<DecisionProgram> {
    compile_with_reason(artifacts, canonical, limits).ok()
}
