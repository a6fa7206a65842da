//! The solver façade: fragment- and DTD-aware dispatch to the cheapest complete engine.
//!
//! The paper's message is that the complexity of `SAT(X)` depends on the operators the
//! query uses and on the class of the DTD.  [`Solver::decide`] re-enacts that message
//! operationally: it inspects the query's [`Features`] and the DTD's [`xpsat_dtd::DtdClass`] and
//! picks
//!
//! 1. the PTIME reachability engine for `X(↓, ↓*, ∪)` (Theorem 4.1),
//! 2. the PTIME sibling engine for `X(→, ←)` (Theorem 7.1),
//! 3. the PTIME disjunction-free engine for `X(↓, ↓*, ∪, [])` under disjunction-free
//!    DTDs (Theorem 6.8),
//! 4. the NP positive engine for `X(↓, ↓*, ∪, [], =)` (Theorem 4.4),
//! 5. the EXPTIME negation fixpoint for `X(↓, ↓*, ∪, [], ¬)` (Theorems 5.2/5.3),
//! 6. the rewritings of Theorems 6.6(3)/6.8(2) and Proposition 6.1 to strip upward and
//!    recursive axes when the query / DTD allow it, and
//! 7. bounded instance enumeration otherwise (complete exactly for nonrecursive,
//!    star-free DTDs — Proposition 6.4; a best-effort semi-decision elsewhere, which is
//!    the honest thing to do in the undecidable corner of Theorem 5.4).
//!
//! That order is written once, as the private route table: [`Solver::decide_budgeted`]
//! walks it, [`Solver::predict_route`] reports the first step whose gate holds, and
//! the retry after recursion elimination walks its positive and negation steps.

use crate::budget::{Budget, BudgetMeter, Exhausted};
use crate::engines::enumeration::EnumerationLimits;
use crate::engines::negation::PreparedQuery;
use crate::engines::{djfree, downward, enumeration, negation, nodtd, positive, sibling};
use crate::sat::{SatError, Satisfiability};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xpsat_dtd::{Dtd, DtdArtifacts, DtdClass};
use xpsat_xpath::{Features, Fragment, Path};

/// Recommended stack size for threads that run [`Solver`] dispatch on untrusted
/// input.  The positive engine's witness search recurses to its Lemma 4.5 depth
/// bound — `(3|p|−1)·|D| + 2` levels, several thousand frames on schema-sized
/// DTDs — which overflows the 2 MiB default of spawned threads long before any
/// step budget bites.  Stack overflow aborts the whole process (no unwinding,
/// no panic isolation), so services must give decide workers room instead of
/// relying on the budget.  Virtual reservation only; pages are committed on use.
pub const DECIDE_STACK_BYTES: usize = 64 << 20;

/// Which decision procedure produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Theorem 4.1 reachability (PTIME).
    Downward,
    /// Theorem 7.1 sibling-axis walk (PTIME).
    Sibling,
    /// Theorem 6.8 disjunction-free tables (PTIME decision, witness via the NP engine).
    DisjunctionFree,
    /// Theorem 4.4 positive witness search (NP).
    Positive,
    /// Theorems 5.2/5.3 subtree-type fixpoint (EXPTIME).
    NegationFixpoint,
    /// A query rewriting (Theorem 6.8(2) or Proposition 6.1) followed by another engine.
    Rewritten,
    /// Bounded instance enumeration (Proposition 6.4 / fallback).
    Enumeration,
    /// A precompiled decision program replayed by the plan VM (Theorems 4.1/4.4
    /// specialised to one `(query, DTD)` pair at compile time).
    CompiledVm,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EngineKind::Downward => "downward reachability (Thm 4.1)",
            EngineKind::Sibling => "sibling walk (Thm 7.1)",
            EngineKind::DisjunctionFree => "disjunction-free tables (Thm 6.8)",
            EngineKind::Positive => "positive witness search (Thm 4.4)",
            EngineKind::NegationFixpoint => "negation fixpoint (Thms 5.2/5.3)",
            EngineKind::Rewritten => "rewriting + dispatch (Thm 6.8(2)/Prop 6.1)",
            EngineKind::Enumeration => "instance enumeration (Prop 6.4)",
            EngineKind::CompiledVm => "compiled decision program (plan VM)",
        };
        write!(f, "{name}")
    }
}

/// The result of a [`Solver::decide`] call.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The verdict (with witness when satisfiable).
    pub result: Satisfiability,
    /// The engine that produced it.
    pub engine: EngineKind,
    /// Was that engine a *complete* decision procedure for this instance?  When `false`
    /// an `Unknown` or missing-witness outcome is possible; definite answers are always
    /// sound regardless.
    pub complete: bool,
    /// `Some` when the engine gave up because the [`Budget`] ran dry (the result is
    /// then `Unknown`).  Exhausted decisions reflect the budget, not the instance, and
    /// must not be cached.
    pub exhausted: Option<Exhausted>,
}

impl Decision {
    fn complete(result: Satisfiability, engine: EngineKind) -> Decision {
        Decision {
            result,
            engine,
            complete: true,
            exhausted: None,
        }
    }

    fn exhausted(engine: EngineKind, cause: Exhausted) -> Decision {
        Decision {
            result: Satisfiability::Unknown,
            engine,
            complete: false,
            exhausted: Some(cause),
        }
    }
}

/// A routing prediction computed from the query's [`Features`] and the DTD's
/// [`xpsat_dtd::DtdProperties`] alone — before any engine runs.
///
/// The `classify` protocol op reports it per query.  Eligibility is *necessary,
/// not sufficient*: the compiled-VM fast path (the `xpsat-plan` compiler, one
/// crate above this one) can still bail for instance-specific reasons (demand
/// collisions, program-size and work budgets).  Ineligibility is definitive — the
/// compiler gates on exactly these feature × property conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePrediction {
    /// May the compiled-VM fast path cover this instance?  Requires downward-only
    /// axes, no data values, and — for qualifier negation — a *duplicate-free*
    /// DTD (per-element Glushkov automata are then deterministic, so local
    /// negation is a DFA complement; arXiv 1308.0769).
    pub vm_eligible: bool,
    /// The engine the AST dispatch is expected to reach when the VM does not
    /// serve the instance: that of the first dispatch step whose gate holds.
    /// `DisjunctionFree` unsat short-cuts are predicted as
    /// [`EngineKind::Positive`] (the prediction cannot know the verdict).  A step
    /// can still pass at run time (an engine rejecting the instance, or recursion
    /// elimination whose retry is inconclusive), and dispatch then moves on.
    pub ast_engine: EngineKind,
}

impl Solver {
    /// Predict routing for `(artifacts, query)` from features × DTD properties.
    pub fn predict_route(artifacts: &DtdArtifacts, query: &Path) -> RoutePrediction {
        let features = Features::of_path(query);
        let duplicate_free = artifacts.properties().is_some_and(|p| p.duplicate_free);
        let vm_eligible = !features.has_upward()
            && !features.data_value
            && (!features.negation || duplicate_free);
        let ast_engine = ROUTE_TABLE
            .iter()
            .find(|route| route.gate(&features, artifacts.class()))
            .map_or(EngineKind::Enumeration, |route| route.predicted_engine());
        RoutePrediction {
            vm_eligible,
            ast_engine,
        }
    }
}

/// One step of the AST dispatch: a fragment gate over the query's [`Features`] and
/// the DTD's [`DtdClass`], and a run that answers or passes (`None`) to the next step.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Theorem 4.1 reachability for `X(↓, ↓*, ∪)`.
    Downward,
    /// Theorem 7.1 walk for `X(→, ←)`.
    Sibling,
    /// Theorem 6.8's PTIME tables under disjunction-free DTDs.  They answer only
    /// UNSAT here: a witness still comes from the positive engine.
    DisjunctionFreeUnsat,
    /// Theorem 4.4 witness search for `X(↓, ↓*, ∪, [], =)`.
    Positive,
    /// Theorems 5.2/5.3 fixpoint for `X(↓, ↓*, ∪, [], ¬)`.
    Negation,
    /// Theorem 6.8(2): `X(↓, ↑)` rewritten into a downward query.
    UpwardRewrite,
    /// Proposition 6.1 on nonrecursive DTDs, then one [`RETRY_TABLE`] walk; this
    /// turns e.g. the EXPTIME fragment into the PSPACE one.
    RecursionElimination,
}

/// The AST dispatch order.  Bounded enumeration (Proposition 6.4) is the tail that
/// answers when every step passes.
const ROUTE_TABLE: [Route; 7] = [
    Route::Downward,
    Route::Sibling,
    Route::DisjunctionFreeUnsat,
    Route::Positive,
    Route::Negation,
    Route::UpwardRewrite,
    Route::RecursionElimination,
];

/// The steps tried on a recursion-eliminated query before its enumeration tail
/// (the retry never recurses further).
const RETRY_TABLE: [Route; 2] = [Route::Positive, Route::Negation];

impl Route {
    /// Does this step's fragment cover the query under this DTD class?
    fn gate(self, features: &Features, class: &DtdClass) -> bool {
        match self {
            Route::Downward => Fragment::downward_no_qualifiers().permits(features),
            Route::Sibling => Fragment::sibling_no_qualifiers().permits(features),
            Route::DisjunctionFreeUnsat => {
                class.disjunction_free && Fragment::downward_positive().permits(features)
            }
            Route::Positive => Fragment::downward_positive_with_data().permits(features),
            Route::Negation => Fragment::downward_negation().permits(features),
            Route::UpwardRewrite => {
                features.has_upward() && Fragment::updown_no_qualifiers().permits(features)
            }
            Route::RecursionElimination => features.has_recursion() && !class.recursive,
        }
    }

    /// The engine [`Solver::predict_route`] reports when this is the first open gate.
    fn predicted_engine(self) -> EngineKind {
        match self {
            Route::Downward => EngineKind::Downward,
            Route::Sibling => EngineKind::Sibling,
            Route::DisjunctionFreeUnsat | Route::Positive => EngineKind::Positive,
            Route::Negation => EngineKind::NegationFixpoint,
            Route::UpwardRewrite | Route::RecursionElimination => EngineKind::Rewritten,
        }
    }

    /// Run the step on a query its gate admitted.
    fn run(
        self,
        solver: &Solver,
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Option<Decision> {
        match self {
            Route::Downward => downward::decide_with(artifacts, query)
                .ok()
                .map(|result| Decision::complete(result, EngineKind::Downward)),
            Route::Sibling => sibling::decide_with(artifacts, query)
                .ok()
                .map(|result| Decision::complete(result, EngineKind::Sibling)),
            Route::DisjunctionFreeUnsat => {
                matches!(djfree::decide_with(artifacts, query), Ok(false)).then(|| {
                    Decision::complete(Satisfiability::Unsatisfiable, EngineKind::DisjunctionFree)
                })
            }
            Route::Positive => positive_run(artifacts, query, meter, EngineKind::Positive),
            Route::Negation => solver.negation_run(artifacts, query, meter),
            Route::UpwardRewrite => match xpsat_xpath::rewrite::updown_to_qualifiers(query) {
                // The query climbs above the root.
                None => Some(Decision::complete(
                    Satisfiability::Unsatisfiable,
                    EngineKind::Rewritten,
                )),
                Some(rewritten) => {
                    positive_run(artifacts, &rewritten, meter, EngineKind::Rewritten)
                }
            },
            Route::RecursionElimination => {
                let depth_bound = artifacts.class().depth_bound;
                let rewritten = crate::transform::eliminate_recursion_with(depth_bound, query)?;
                let inner = solver.walk(&RETRY_TABLE, artifacts, &rewritten, meter);
                if inner.exhausted.is_some() {
                    return Some(inner);
                }
                inner.result.is_definite().then_some(Decision {
                    engine: EngineKind::Rewritten,
                    ..inner
                })
            }
        }
    }
}

/// The positive engine as a step labelled `engine`: `None` when it rejects the
/// instance, so dispatch moves on.
fn positive_run(
    artifacts: &DtdArtifacts,
    query: &Path,
    meter: &BudgetMeter,
    engine: EngineKind,
) -> Option<Decision> {
    match positive::decide_with_budget(artifacts, query, meter) {
        Err(cause) => Some(Decision::exhausted(engine, cause)),
        Ok(Ok(result)) => Some(Decision::complete(result, engine)),
        Ok(Err(_)) => None,
    }
}

/// Bounded instance enumeration (Proposition 6.4): the tail of every dispatch walk.
fn enumerate(artifacts: &DtdArtifacts, query: &Path, meter: &BudgetMeter) -> Decision {
    let class = artifacts.class();
    let limits = EnumerationLimits::default();
    let result = match enumeration::decide_with_budget(artifacts, query, &limits, meter) {
        Ok(result) => result,
        Err(cause) => return Decision::exhausted(EngineKind::Enumeration, cause),
    };
    let exhaustive = enumeration::is_exhaustive_for_class(class, &limits)
        || result.is_definite() && !class.recursive && !class.has_star;
    Decision {
        result,
        engine: EngineKind::Enumeration,
        complete: exhaustive,
        exhausted: None,
    }
}

/// Entries the negation-analysis memo holds before it is wholesale cleared; generous
/// for real workloads (thousands of distinct negation-heavy queries per DTD) while
/// bounding a pathological stream of one-shot queries.
const NEGATION_MEMO_CAP: usize = 4096;

/// Memoised negation-fixpoint analyses, keyed by `(artifact uid, canonical query)`.
///
/// [`negation::prepare`] builds the suffix closure, head-normal forms and demand
/// indices of a query — work that depends only on `(DTD, query)` and dominates repeated
/// negation-heavy calls; the memo replays the owned [`PreparedQuery`] instead.  The
/// service decides each class once per DTD text through its decision store, which the
/// server's tenants share, so the memo serves only repeated direct [`Solver`] calls,
/// such as [`Solver::decide_budgeted`] loops (and the service's retries of
/// budget-exhausted decisions, which the store never keeps).  Keying by
/// [`DtdArtifacts::uid`] makes entries die with their compile: a DTD built again (in
/// another decision store or after a restart) gets a fresh uid, so stale symbol
/// resolutions can never be replayed against the wrong compile.
#[derive(Debug, Default)]
struct NegationMemo {
    prepared: Mutex<HashMap<(u64, String), Arc<PreparedQuery>>>,
    hits: AtomicU64,
    built: AtomicU64,
}

/// The satisfiability solver façade.
#[derive(Debug, Default)]
pub struct Solver {
    negation_memo: NegationMemo,
}

impl Clone for Solver {
    /// Clones start with an empty analysis memo (the memo is a cache, not semantics).
    fn clone(&self) -> Solver {
        Solver::default()
    }
}

impl Solver {
    /// `(hits, analyses built)` of the negation-analysis memo, for observability.
    pub fn negation_memo_stats(&self) -> (u64, u64) {
        (
            self.negation_memo.hits.load(Ordering::Relaxed),
            self.negation_memo.built.load(Ordering::Relaxed),
        )
    }

    /// The negation engine as a dispatch step, fronted by the per-`(artifact, query)`
    /// analysis memo: `None` when it rejects the instance, so dispatch moves on.
    fn negation_run(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Option<Decision> {
        let decided = |outcome: Result<Satisfiability, Exhausted>| {
            Some(match outcome {
                Ok(result) => Decision::complete(result, EngineKind::NegationFixpoint),
                Err(cause) => Decision::exhausted(EngineKind::NegationFixpoint, cause),
            })
        };
        let Some(compiled) = artifacts.compiled() else {
            // No compile means no analysis to reuse; the plain path handles the
            // vacuous-DTD verdict (and fragment rejection) directly.
            return decided(Ok(negation::decide_with(artifacts, query).ok()?));
        };
        let key = (artifacts.uid(), query.right_assoc().to_string());
        let cached = self
            .negation_memo
            .prepared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
            .cloned();
        if let Some(prepared) = cached {
            self.negation_memo.hits.fetch_add(1, Ordering::Relaxed);
            return decided(negation::decide_prepared_budgeted(
                compiled, &prepared, meter,
            ));
        }
        let prepared = match negation::prepare(compiled, query) {
            Ok(prepared) => Arc::new(prepared),
            // The closure itself blew the analysis cap: the instance is
            // budget-shaped, not fragment-shaped.
            Err(SatError::BudgetExceeded { .. }) => return decided(Err(Exhausted::Steps)),
            Err(_) => return None,
        };
        self.negation_memo.built.fetch_add(1, Ordering::Relaxed);
        {
            let mut memo = self
                .negation_memo
                .prepared
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if memo.len() >= NEGATION_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, Arc::clone(&prepared));
        }
        decided(negation::decide_prepared_budgeted(
            compiled, &prepared, meter,
        ))
    }

    /// Decide whether some document conforms to `dtd` and satisfies `query`.
    ///
    /// Compiles the per-DTD artifacts for this one call.  Batch callers (the service
    /// workspace, benchmark loops) should build [`DtdArtifacts`] once per DTD and use
    /// [`Solver::decide_budgeted`] so preprocessing is amortised across queries.
    pub fn decide(&self, dtd: &Dtd, query: &Path) -> Decision {
        self.decide_budgeted(&DtdArtifacts::build(dtd), query, &Budget::unlimited())
    }

    /// Decide against precompiled artifacts under a per-call budget: no engine
    /// re-derives classification, graph reachability, pruning or Glushkov automata
    /// inside this call.  When the budget runs dry inside an engine the decision
    /// comes back `Unknown` with the `exhausted` cause set; definite verdicts
    /// reached within budget are unaffected.
    pub fn decide_budgeted(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        budget: &Budget,
    ) -> Decision {
        self.walk(&ROUTE_TABLE, artifacts, query, &budget.meter())
    }

    /// The first answer of a step in `routes` whose gate holds, else enumeration.
    /// One feature scan serves every gate.
    fn walk(
        &self,
        routes: &[Route],
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Decision {
        let features = Features::of_path(query);
        routes
            .iter()
            .filter(|route| route.gate(&features, artifacts.class()))
            .find_map(|route| route.run(self, artifacts, query, meter))
            .unwrap_or_else(|| enumerate(artifacts, query, meter))
    }

    /// Decide satisfiability in the absence of a DTD (Proposition 3.1 / Theorem 6.11).
    pub fn decide_without_dtd(&self, query: &Path) -> Decision {
        if let Ok(result) = nodtd::decide_with_witness(query) {
            return Decision {
                result,
                engine: EngineKind::Positive,
                complete: true,
                exhausted: None,
            };
        }
        // General case: try every universal-DTD instance of Proposition 3.1.
        let mut any_unknown = false;
        for (dtd, q) in crate::transform::no_dtd_instances(query) {
            let decision = self.decide(&dtd, &q);
            match decision.result {
                Satisfiability::Satisfiable(doc) => {
                    return Decision {
                        result: Satisfiability::Satisfiable(doc),
                        engine: decision.engine,
                        complete: decision.complete,
                        exhausted: decision.exhausted,
                    }
                }
                Satisfiability::Unsatisfiable => {}
                Satisfiability::Unknown => any_unknown = true,
            }
        }
        Decision {
            result: if any_unknown {
                Satisfiability::Unknown
            } else {
                Satisfiability::Unsatisfiable
            },
            engine: EngineKind::Enumeration,
            complete: !any_unknown,
            exhausted: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::verify_witness;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    fn solver() -> Solver {
        Solver::default()
    }

    #[test]
    fn dispatch_picks_the_expected_engines() {
        let dtd = parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap();
        let cases = [
            ("a/b", EngineKind::Downward),
            ("a[b]", EngineKind::Positive),
            ("a[not(b)]", EngineKind::NegationFixpoint),
        ];
        for (query_text, expected_engine) in cases {
            let decision = solver().decide(&dtd, &parse_path(query_text).unwrap());
            assert_eq!(decision.engine, expected_engine, "query {query_text}");
            assert!(decision.complete);
            if let Satisfiability::Satisfiable(doc) = &decision.result {
                verify_witness(doc, &dtd, &parse_path(query_text).unwrap()).unwrap();
            }
        }
        let sib = solver().decide(&dtd, &parse_path("a/>").unwrap());
        assert_eq!(sib.engine, EngineKind::Sibling);
    }

    #[test]
    fn route_prediction_tracks_features_and_dtd_properties() {
        // Duplicate-free DTD: negation is VM-eligible (DFA complement).
        let df = xpsat_dtd::DtdArtifacts::build(
            &parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap(),
        );
        // `a -> b, b?` repeats b: not duplicate-free, negation must stay on the AST.
        let dup =
            xpsat_dtd::DtdArtifacts::build(&parse_dtd("r -> a; a -> b, b?; b -> #;").unwrap());
        assert!(df.properties().unwrap().duplicate_free);
        assert!(!dup.properties().unwrap().duplicate_free);

        let cases = [
            ("a/b", true, EngineKind::Downward),
            ("a[b or c]", true, EngineKind::Positive),
            ("a[not(b)]", true, EngineKind::NegationFixpoint),
            ("a/>", true, EngineKind::Sibling),
            ("a/..", false, EngineKind::Rewritten),
            ("a[@x = \"1\"]", false, EngineKind::Positive),
        ];
        for (text, vm, engine) in cases {
            let p = Solver::predict_route(&df, &parse_path(text).unwrap());
            assert_eq!(p.vm_eligible, vm, "{text}");
            assert_eq!(p.ast_engine, engine, "{text}");
        }
        // Same negation query, property-dependent eligibility.
        let q = parse_path("a[not(b)]").unwrap();
        assert!(Solver::predict_route(&df, &q).vm_eligible);
        assert!(!Solver::predict_route(&dup, &q).vm_eligible);
        assert_eq!(
            Solver::predict_route(&dup, &q).ast_engine,
            EngineKind::NegationFixpoint
        );
    }

    #[test]
    fn disjunction_free_fast_path_answers_unsat() {
        let dtd = parse_dtd("r -> book*; book -> title, author; title -> #; author -> #;").unwrap();
        let decision = solver().decide(&dtd, &parse_path("book[price]").unwrap());
        assert_eq!(decision.engine, EngineKind::DisjunctionFree);
        assert!(matches!(decision.result, Satisfiability::Unsatisfiable));
    }

    #[test]
    fn upward_queries_are_rewritten() {
        let dtd = parse_dtd("r -> a; a -> b?; b -> #;").unwrap();
        let decision = solver().decide(&dtd, &parse_path("a/b/..").unwrap());
        assert_eq!(decision.engine, EngineKind::Rewritten);
        assert!(matches!(decision.result, Satisfiability::Satisfiable(_)));
        // Climbing above the root is unsatisfiable.
        let above = solver().decide(&dtd, &parse_path("a/../..").unwrap());
        assert!(matches!(above.result, Satisfiability::Unsatisfiable));
    }

    #[test]
    fn nonrecursive_dtds_allow_recursion_elimination_with_negation_and_upward() {
        let dtd = parse_dtd("r -> a; a -> b?; b -> #;").unwrap();
        // descendant + negation + upward: handled by recursion elimination + enumeration
        // (the DTD is nonrecursive and star-free, so the fallback is complete).
        let q = parse_path("**[lab() = b]/..[not(lab() = r)]").unwrap();
        let decision = solver().decide(&dtd, &q);
        assert!(decision.result.is_definite());
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            verify_witness(doc, &dtd, &q).unwrap();
        }
    }

    #[test]
    fn negation_memo_reuses_analyses_per_artifact() {
        let dtd = parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap();
        let artifacts = xpsat_dtd::DtdArtifacts::build(&dtd);
        let solver = solver();
        let query = parse_path("a[not(b)]").unwrap();
        let first = solver.decide_budgeted(&artifacts, &query, &Budget::unlimited());
        assert_eq!(first.engine, EngineKind::NegationFixpoint);
        assert_eq!(solver.negation_memo_stats(), (0, 1));
        let second = solver.decide_budgeted(&artifacts, &query, &Budget::unlimited());
        assert_eq!(second.engine, EngineKind::NegationFixpoint);
        assert_eq!(solver.negation_memo_stats(), (1, 1));
        assert!(matches!(second.result, Satisfiability::Satisfiable(_)));
        // A fresh compile of the same DTD has a different uid: no cross-compile reuse.
        let recompiled = xpsat_dtd::DtdArtifacts::build(&dtd);
        let third = solver.decide_budgeted(&recompiled, &query, &Budget::unlimited());
        assert_eq!(third.engine, EngineKind::NegationFixpoint);
        assert_eq!(solver.negation_memo_stats(), (1, 2));
        // Clones start cold.
        assert_eq!(solver.clone().negation_memo_stats(), (0, 0));
    }

    #[test]
    fn tight_budget_turns_negation_into_resource_exhausted() {
        let dtd = parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap();
        let artifacts = xpsat_dtd::DtdArtifacts::build(&dtd);
        let solver = solver();
        let query = parse_path("a[not(b)]").unwrap();
        let capped = solver.decide_budgeted(&artifacts, &query, &Budget::steps(1));
        assert_eq!(capped.engine, EngineKind::NegationFixpoint);
        assert_eq!(capped.exhausted, Some(Exhausted::Steps));
        assert!(matches!(capped.result, Satisfiability::Unknown));
        assert!(!capped.complete);
        // The same query within budget is unaffected.
        let free = solver.decide_budgeted(&artifacts, &query, &Budget::unlimited());
        assert_eq!(free.exhausted, None);
        assert!(matches!(free.result, Satisfiability::Satisfiable(_)));
    }

    #[test]
    fn tight_budget_turns_enumeration_into_resource_exhausted() {
        let dtd = parse_dtd("r -> a; a -> b?; b -> #;").unwrap();
        let artifacts = xpsat_dtd::DtdArtifacts::build(&dtd);
        // Negation over a data-value join is outside every symbolic engine.
        let query = parse_path("a[not(@x = @y)]").unwrap();
        let capped = solver().decide_budgeted(&artifacts, &query, &Budget::steps(1));
        assert_eq!(capped.engine, EngineKind::Enumeration);
        assert_eq!(capped.exhausted, Some(Exhausted::Steps));
        assert!(matches!(capped.result, Satisfiability::Unknown));
    }

    #[test]
    fn no_dtd_interface() {
        let sat = solver().decide_without_dtd(&parse_path("a[b and c]/d").unwrap());
        assert!(matches!(sat.result, Satisfiability::Satisfiable(_)));
        let unsat = solver().decide_without_dtd(&parse_path(".[lab() = a and lab() = b]").unwrap());
        assert!(matches!(unsat.result, Satisfiability::Unsatisfiable));
    }
}
