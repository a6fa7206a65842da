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

use crate::budget::{Budget, BudgetMeter, Exhausted};
use crate::engines::enumeration::EnumerationLimits;
use crate::engines::negation::PreparedQuery;
use crate::engines::{djfree, downward, enumeration, negation, nodtd, positive, sibling};
use crate::sat::{SatError, Satisfiability};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xpsat_dtd::{Dtd, DtdArtifacts};
use xpsat_xpath::{Features, Path};

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
/// The compiled-VM fast path (the `xpsat-plan` compiler) lives one crate above
/// this one, so callers that own both — the service workspace, the benchmark
/// driver — use the prediction to route work: attempt compilation only when
/// `vm_eligible`, and label instances by the engine the AST dispatch would
/// otherwise reach.  Eligibility is *necessary, not sufficient*: the compiler can
/// still bail for instance-specific reasons (demand collisions, program-size and
/// work budgets).  Ineligibility is definitive — the compiler gates on exactly
/// these feature × property conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePrediction {
    /// May the compiled-VM fast path cover this instance?  Requires downward-only
    /// axes, no data values, and — for qualifier negation — a *duplicate-free*
    /// DTD (per-element Glushkov automata are then deterministic, so local
    /// negation is a DFA complement; arXiv 1308.0769).
    pub vm_eligible: bool,
    /// The engine the AST dispatch is expected to reach when the VM does not
    /// serve the instance.  `DisjunctionFree` unsat short-cuts are predicted as
    /// [`EngineKind::Positive`] (the prediction cannot know the verdict).
    pub ast_engine: EngineKind,
}

impl Solver {
    /// Predict routing for `(artifacts, query)` from features × DTD properties.
    pub fn predict_route(artifacts: &DtdArtifacts, query: &Path) -> RoutePrediction {
        let features = Features::of_path(query);
        let props = artifacts.properties();
        let duplicate_free = props.is_some_and(|p| p.duplicate_free);
        let vm_eligible = !features.has_upward()
            && !features.data_value
            && (!features.negation || duplicate_free);
        let ast_engine = if downward::supports_features(&features) {
            EngineKind::Downward
        } else if sibling::supports(query) {
            EngineKind::Sibling
        } else if positive::supports_features(&features) {
            EngineKind::Positive
        } else if negation::supports_features(&features) {
            EngineKind::NegationFixpoint
        } else if upward_rewrite_applies(&features)
            || (features.has_recursion() && !artifacts.class().recursive)
        {
            EngineKind::Rewritten
        } else {
            EngineKind::Enumeration
        };
        RoutePrediction {
            vm_eligible,
            ast_engine,
        }
    }
}

/// Theorem 6.8(2)'s gate: upward axes without negation, qualifiers, union,
/// recursive or sibling axes, or data values rewrite to a downward query.
fn upward_rewrite_applies(features: &Features) -> bool {
    features.has_upward()
        && !features.negation
        && !features.qualifier
        && !features.union
        && !features.has_recursion()
        && !features.has_sibling()
        && !features.data_value
}

/// The positive engine as a dispatch step: `None` when it rejects the instance, so
/// dispatch moves on.
fn positive_step(artifacts: &DtdArtifacts, query: &Path, meter: &BudgetMeter) -> Option<Decision> {
    match positive::decide_with_budget(artifacts, query, meter) {
        Err(cause) => Some(Decision::exhausted(EngineKind::Positive, cause)),
        Ok(Ok(result)) => Some(Decision {
            result,
            engine: EngineKind::Positive,
            complete: true,
            exhausted: None,
        }),
        Ok(Err(_)) => None,
    }
}

/// Configuration of the solver façade.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Budgets used by the enumeration fallback.
    pub enumeration: EnumerationLimits,
    /// Default step/deadline budget applied to every decision (unlimited by default;
    /// callers can override per call with [`Solver::decide_budgeted`]).
    pub budget: Budget,
}

/// Why an engine produced no verdict: outside its fragment, or out of budget.
enum EngineFailure {
    /// The engine rejected the instance; dispatch may try the next engine.
    Rejected,
    /// The budget ran dry mid-engine; dispatch must stop and report it.
    Exhausted(Exhausted),
}

/// Entries the negation-analysis memo holds before it is wholesale cleared; generous
/// for real workloads (thousands of distinct negation-heavy queries per DTD) while
/// bounding a pathological stream of one-shot queries.
const NEGATION_MEMO_CAP: usize = 4096;

/// Memoised negation-fixpoint analyses, keyed by `(artifact uid, canonical query)`.
///
/// [`negation::prepare`] builds the suffix closure, head-normal forms and demand
/// indices of a query — work that depends only on `(DTD, query)` and dominates repeated
/// negation-heavy traffic that misses the service's decision cache (distinct
/// workspaces, eviction, or direct [`Solver::decide_with_artifacts`] loops).  The memo
/// replays the owned [`PreparedQuery`] instead.  Keying by [`DtdArtifacts::uid`] makes
/// entries die with their compile: a re-registered or rematerialised DTD gets a fresh
/// uid, so stale symbol resolutions can never be replayed against the wrong compile.
#[derive(Debug, Default)]
struct NegationMemo {
    prepared: Mutex<HashMap<(u64, String), Arc<PreparedQuery>>>,
    hits: AtomicU64,
    built: AtomicU64,
}

/// The satisfiability solver façade.
#[derive(Debug, Default)]
pub struct Solver {
    config: SolverConfig,
    negation_memo: NegationMemo,
}

impl Clone for Solver {
    /// Clones share configuration but start with an empty analysis memo (the memo is a
    /// cache, not semantics).
    fn clone(&self) -> Solver {
        Solver::new(self.config.clone())
    }
}

impl Solver {
    /// A solver with explicit budgets.
    pub fn new(config: SolverConfig) -> Solver {
        Solver {
            config,
            negation_memo: NegationMemo::default(),
        }
    }

    /// `(hits, analyses built)` of the negation-analysis memo, for observability.
    pub fn negation_memo_stats(&self) -> (u64, u64) {
        (
            self.negation_memo.hits.load(Ordering::Relaxed),
            self.negation_memo.built.load(Ordering::Relaxed),
        )
    }

    /// The negation engine, fronted by the per-`(artifact, query)` analysis memo.
    fn decide_negation_cached(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Result<Satisfiability, EngineFailure> {
        let Some(compiled) = artifacts.compiled() else {
            // No compile means no analysis to reuse; the plain path handles the
            // vacuous-DTD verdict (and fragment rejection) directly.
            return negation::decide_with(artifacts, query).map_err(|_| EngineFailure::Rejected);
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
            return negation::decide_prepared_budgeted(compiled, &prepared, meter)
                .map_err(EngineFailure::Exhausted);
        }
        let prepared = match negation::prepare(compiled, query) {
            Ok(prepared) => Arc::new(prepared),
            Err(SatError::BudgetExceeded { .. }) => {
                // The closure itself blew the analysis cap: the instance is
                // budget-shaped, not fragment-shaped.
                return Err(EngineFailure::Exhausted(Exhausted::Steps));
            }
            Err(_) => return Err(EngineFailure::Rejected),
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
        negation::decide_prepared_budgeted(compiled, &prepared, meter)
            .map_err(EngineFailure::Exhausted)
    }

    /// Decide whether some document conforms to `dtd` and satisfies `query`.
    ///
    /// Compiles the per-DTD artifacts for this one call.  Batch callers (the service
    /// workspace, benchmark loops) should build [`DtdArtifacts`] once per DTD and use
    /// [`Solver::decide_with_artifacts`] so preprocessing is amortised across queries.
    pub fn decide(&self, dtd: &Dtd, query: &Path) -> Decision {
        self.decide_with_artifacts(&DtdArtifacts::build(dtd), query)
    }

    /// Decide against precompiled artifacts: no engine re-derives classification,
    /// graph reachability, pruning or Glushkov automata inside this call.
    ///
    /// Runs under the configured default [`Budget`] (unlimited unless set); use
    /// [`Solver::decide_budgeted`] for a per-call budget.
    pub fn decide_with_artifacts(&self, artifacts: &DtdArtifacts, query: &Path) -> Decision {
        self.decide_budgeted(artifacts, query, &self.config.budget)
    }

    /// Decide against precompiled artifacts under an explicit per-call budget.  When
    /// the budget runs dry inside the enumeration or negation-fixpoint engines the
    /// decision comes back `Unknown` with [`Decision::exhausted`] set; definite
    /// verdicts reached within budget are unaffected.
    pub fn decide_budgeted(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        budget: &Budget,
    ) -> Decision {
        let meter = budget.meter();
        // One feature scan serves every fragment test below (the engines' own
        // `supports(query)` wrappers would each rescan the path).
        let features = Features::of_path(query);
        let class = artifacts.class();

        if downward::supports_features(&features) {
            if let Ok(result) = downward::decide_with(artifacts, query) {
                return Decision {
                    result,
                    engine: EngineKind::Downward,
                    complete: true,
                    exhausted: None,
                };
            }
        }
        if sibling::supports(query) {
            if let Ok(result) = sibling::decide_with(artifacts, query) {
                return Decision {
                    result,
                    engine: EngineKind::Sibling,
                    complete: true,
                    exhausted: None,
                };
            }
        }
        if positive::supports_features(&features) {
            // Prefer the PTIME decision under disjunction-free DTDs; the witness (when
            // needed) still comes from the positive engine, which is complete here too.
            if !features.data_value
                && class.disjunction_free
                && djfree::supports_query_features(&features)
            {
                if let Ok(false) = djfree::decide_with(artifacts, query) {
                    return Decision {
                        result: Satisfiability::Unsatisfiable,
                        engine: EngineKind::DisjunctionFree,
                        complete: true,
                        exhausted: None,
                    };
                }
            }
            if let Some(decision) = positive_step(artifacts, query, &meter) {
                return decision;
            }
        }
        if negation::supports_features(&features) {
            if let Some(decision) = self.negation_step(artifacts, query, &meter) {
                return decision;
            }
        }
        // Upward axes without qualifiers/union/recursion: Theorem 6.8(2)'s rewriting
        // turns the query into a downward one (or proves it unsatisfiable at the root).
        if upward_rewrite_applies(&features) {
            return match xpsat_xpath::rewrite::updown_to_qualifiers(query) {
                None => Decision {
                    result: Satisfiability::Unsatisfiable,
                    engine: EngineKind::Rewritten,
                    complete: true,
                    exhausted: None,
                },
                Some(rewritten) => {
                    match positive::decide_with_budget(artifacts, &rewritten, &meter) {
                        Err(cause) => Decision::exhausted(EngineKind::Rewritten, cause),
                        Ok(Ok(result)) => Decision {
                            result,
                            engine: EngineKind::Rewritten,
                            complete: true,
                            exhausted: None,
                        },
                        Ok(Err(_)) => self.enumerate(artifacts, query, &meter),
                    }
                }
            };
        }
        // Nonrecursive DTDs: eliminate the recursive axes (Proposition 6.1) and try the
        // dispatch once more; this turns e.g. the EXPTIME fragment into the PSPACE one.
        if features.has_recursion() && !class.recursive {
            if let Some(rewritten) =
                crate::transform::eliminate_recursion_with(class.depth_bound, query)
            {
                let inner = self.decide_no_recursion_retry(artifacts, &rewritten, &meter);
                if inner.exhausted.is_some() {
                    return inner;
                }
                if inner.result.is_definite() {
                    return Decision {
                        result: inner.result,
                        engine: EngineKind::Rewritten,
                        complete: inner.complete,
                        exhausted: None,
                    };
                }
            }
        }
        self.enumerate(artifacts, query, &meter)
    }

    /// Second-round dispatch used after recursion elimination (never recurses
    /// further): the positive and negation steps of [`Solver::decide_budgeted`],
    /// without its disjunction-free shortcut or sibling step, then enumeration.
    fn decide_no_recursion_retry(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Decision {
        let features = Features::of_path(query);
        if positive::supports_features(&features) {
            if let Some(decision) = positive_step(artifacts, query, meter) {
                return decision;
            }
        }
        if negation::supports_features(&features) {
            if let Some(decision) = self.negation_step(artifacts, query, meter) {
                return decision;
            }
        }
        self.enumerate(artifacts, query, meter)
    }

    /// The negation-fixpoint engine as a dispatch step: `None` when it rejects the
    /// instance, so dispatch moves on.
    fn negation_step(
        &self,
        artifacts: &DtdArtifacts,
        query: &Path,
        meter: &BudgetMeter,
    ) -> Option<Decision> {
        match self.decide_negation_cached(artifacts, query, meter) {
            Ok(result) => Some(Decision {
                result,
                engine: EngineKind::NegationFixpoint,
                complete: true,
                exhausted: None,
            }),
            Err(EngineFailure::Exhausted(cause)) => {
                Some(Decision::exhausted(EngineKind::NegationFixpoint, cause))
            }
            Err(EngineFailure::Rejected) => None,
        }
    }

    fn enumerate(&self, artifacts: &DtdArtifacts, query: &Path, meter: &BudgetMeter) -> Decision {
        let class = artifacts.class();
        let result = match enumeration::decide_with_budget(
            artifacts,
            query,
            &self.config.enumeration,
            meter,
        ) {
            Ok(result) => result,
            Err(cause) => return Decision::exhausted(EngineKind::Enumeration, cause),
        };
        let exhaustive = enumeration::is_exhaustive_for_class(class, &self.config.enumeration)
            || result.is_definite() && !class.recursive && !class.has_star;
        Decision {
            result,
            engine: EngineKind::Enumeration,
            complete: exhaustive,
            exhausted: None,
        }
    }

    /// Decide satisfiability in the absence of a DTD (Proposition 3.1 / Theorem 6.11).
    pub fn decide_without_dtd(&self, query: &Path) -> Decision {
        if nodtd::supports(query) {
            if let Ok(result) = nodtd::decide_with_witness(query) {
                return Decision {
                    result,
                    engine: EngineKind::Positive,
                    complete: true,
                    exhausted: None,
                };
            }
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
        let first = solver.decide_with_artifacts(&artifacts, &query);
        assert_eq!(first.engine, EngineKind::NegationFixpoint);
        assert_eq!(solver.negation_memo_stats(), (0, 1));
        let second = solver.decide_with_artifacts(&artifacts, &query);
        assert_eq!(second.engine, EngineKind::NegationFixpoint);
        assert_eq!(solver.negation_memo_stats(), (1, 1));
        assert!(matches!(second.result, Satisfiability::Satisfiable(_)));
        // A fresh compile of the same DTD has a different uid: no cross-compile reuse.
        let recompiled = xpsat_dtd::DtdArtifacts::build(&dtd);
        let third = solver.decide_with_artifacts(&recompiled, &query);
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
    fn config_budget_governs_decide() {
        let dtd = parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap();
        let solver = Solver::new(SolverConfig {
            budget: Budget::steps(1),
            ..SolverConfig::default()
        });
        let decision = solver.decide(&dtd, &parse_path("a[not(b)]").unwrap());
        assert_eq!(decision.exhausted, Some(Exhausted::Steps));
    }

    #[test]
    fn no_dtd_interface() {
        let sat = solver().decide_without_dtd(&parse_path("a[b and c]/d").unwrap());
        assert!(matches!(sat.result, Satisfiability::Satisfiable(_)));
        let unsat = solver().decide_without_dtd(&parse_path(".[lab() = a and lab() = b]").unwrap());
        assert!(matches!(unsat.result, Satisfiability::Unsatisfiable));
    }
}
