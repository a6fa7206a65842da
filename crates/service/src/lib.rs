//! `xpsat-service` — a batched, cached satisfiability service over the `xpathsat`
//! solver stack.
//!
//! The paper's complexity results make `SAT(X, DTD)` cost *per-DTD-heavy*: the
//! classification, normalisation and content-model automata that engine dispatch
//! relies on depend only on the DTD, while per-query dispatch is PTIME for the
//! tractable fragments that dominate real-world workloads.  This crate is the
//! architectural seam that exploits that shape at service scale:
//!
//! * [`Workspace`] — register a DTD once; classification ([`xpsat_dtd::classify()`]),
//!   normalisation ([`xpsat_dtd::normalize()`]) and the Glushkov automata of every
//!   content model are computed once and cached as [`DtdArtifacts`].  Queries are
//!   interned by canonical text ([`QueryId`]) and grouped into structural classes,
//!   and each class is decided at most once, with engine provenance
//!   ([`ServedDecision`]).
//! * [`CanonicalCache`] — the decision store: each class's decision and compiled
//!   program, held once and keyed by content (the exact canonical DTD text and the
//!   canonical query), not by workspace-local ids.  A workspace owns a private
//!   store or shares one with other workspaces, so tenants of one server serve each
//!   other's decisions and programs — incomplete but unexhausted verdicts
//!   included.
//! * [`Workspace::decide_batch`] — fan a batch's uncached structural classes out
//!   across worker threads (`std::thread::scope`, no extra dependencies) with
//!   deterministic, input-ordered results identical to a sequential
//!   [`Workspace::decide`] loop.
//! * [`Session`] — a text-in/decision-out convenience wrapper tracking a current DTD.
//! * [`ProtocolServer`] — a JSON-lines request/response protocol (`register_dtd`,
//!   `check`, `batch`, `classify`, `stats`) so the service can be driven as a real
//!   workload endpoint; the `xpathsat` CLI binary fronts it from the shell.
//! * [`StatsSnapshot`] — cache-effectiveness counters proving the amortisation: a
//!   repeated batch does no re-classification and is served entirely from
//!   decisions already made.
//!
//! # Quickstart
//!
//! ```
//! use xpsat_service::Session;
//!
//! let mut session = Session::new();
//! session.load_dtd("r -> a*; a -> b?; b -> #;").unwrap();
//! let served = session.check("a[b]").unwrap();
//! assert!(matches!(
//!     served.decision.result,
//!     xpsat_core::Satisfiability::Satisfiable(_)
//! ));
//! assert!(!served.cached);
//! assert!(session.check("a[b]").unwrap().cached); // memoised
//! ```

pub mod canonical;
pub mod json;
pub mod protocol;
pub mod session;
pub mod stats;
pub mod store;
pub mod workspace;

pub use canonical::CanonicalCache;
pub use json::{Json, JsonError};
pub use protocol::{
    error_object, error_response, oversized_response, write_response_line, LineRead, LineReader,
    ProtocolError, ProtocolServer, DEFAULT_MAX_LINE_BYTES,
};
pub use session::Session;
pub use stats::{CacheStats, StatsSnapshot};
pub use store::{canonical_key, ArtifactStore, StoreMiss, STORE_VERSION};
pub use workspace::{
    decision_fingerprint, effective_threads, engine_slug, verdict_fingerprint, DtdArtifacts, DtdId,
    ErrorSpan, InternedQuery, QueryClass, QueryId, RegisterOutcome, ServedDecision, ServiceError,
    Workspace,
};
pub use xpsat_plan::DecisionProgram;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xpsat_core::Solver;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    const DTD: &str = "r -> a*; a -> b | c; b -> d?; c -> #; d -> #;";

    #[test]
    fn artifacts_are_computed_once_per_distinct_dtd() {
        let ws = Workspace::default();
        let a = ws.register_dtd(DTD).unwrap();
        let b = ws.register_dtd(DTD).unwrap();
        assert_eq!(a, b);
        let c = ws.register_dtd("r -> a?; a -> #;").unwrap();
        assert_ne!(a, c);
        let stats = ws.stats();
        assert_eq!(stats.dtds_registered, 2);
        assert_eq!(stats.dtds_reused, 1);
        assert_eq!(stats.classifications, 2);
        assert_eq!(stats.normalizations, 2);
        // One Glushkov automaton per element type of each registered DTD.
        let elements = |id| {
            ws.artifacts(id)
                .unwrap()
                .compiled
                .dtd()
                .element_names()
                .len()
        };
        let total_elements = (elements(a) + elements(c)) as u64;
        assert_eq!(stats.automata_built, total_elements);
    }

    #[test]
    fn artifacts_agree_with_direct_computation() {
        let ws = Workspace::default();
        let id = ws.register_dtd(DTD).unwrap();
        let artifacts = ws.artifacts(id).unwrap();
        let direct = parse_dtd(DTD).unwrap();
        assert_eq!(artifacts.compiled.dtd(), &direct);
        assert_eq!(artifacts.compiled.class(), &xpsat_dtd::classify(&direct));
        assert_eq!(
            artifacts.normalization.dtd,
            xpsat_dtd::normalize(&direct).dtd
        );
        let compiled = artifacts.compiled.compiled().unwrap();
        for (name, decl) in direct.elements() {
            let sym = compiled.elem_sym(name).unwrap();
            let nfa = compiled.automaton(sym);
            // Spot-check the automaton against the content model on short words.
            if let Some(word) = nfa.shortest_word() {
                assert!(nfa.accepts(&word));
            }
            let _ = decl;
        }
    }

    #[test]
    fn interning_dedupes_by_canonical_form() {
        let ws = Workspace::default();
        let a = ws.intern("a[b]").unwrap();
        // Same canonical rendering, different surface text.
        let b = ws.intern("a[ b ]").unwrap();
        assert_eq!(a, b);
        let c = ws.intern("a[c]").unwrap();
        assert_ne!(a, c);
        let stats = ws.stats();
        assert_eq!(stats.queries_interned, 2);
        assert_eq!(stats.queries_reused, 1);
        assert_eq!(ws.query(a).unwrap().canonical, "a[b]");
    }

    #[test]
    fn decide_matches_solver_and_memoises() {
        let ws = Workspace::default();
        let dtd_id = ws.register_dtd(DTD).unwrap();
        let dtd = parse_dtd(DTD).unwrap();
        let solver = Solver::default();
        for text in ["a/b", "a[b and not(c)]", "a/b/d", "a[c]/b", "d/.."] {
            let q = ws.intern(text).unwrap();
            let served = ws.decide(dtd_id, q).unwrap();
            assert!(!served.cached, "{text}");
            // The workspace may answer through the compiled-program VM, so the AST
            // solver is an oracle for the *verdict*; a VM witness is validated on
            // its own terms rather than compared byte-for-byte.
            let direct = solver.decide(&dtd, &parse_path(text).unwrap());
            assert_eq!(
                verdict_fingerprint(&served.decision),
                verdict_fingerprint(&direct),
                "{text}"
            );
            if let xpsat_core::Satisfiability::Satisfiable(doc) = &served.decision.result {
                xpsat_core::sat::verify_witness(doc, &dtd, &parse_path(text).unwrap())
                    .expect("served witness verifies");
            }
            let again = ws.decide(dtd_id, q).unwrap();
            assert!(again.cached, "{text}");
            assert_eq!(
                decision_fingerprint(&again.decision),
                decision_fingerprint(&served.decision),
                "{text}"
            );
        }
        // The compiled fragment actually carried some of those decisions.
        assert!(ws.stats().vm_decides >= 1);
        assert!(ws.stats().programs_compiled >= 1);
    }

    #[test]
    fn structurally_identical_spellings_share_one_decision() {
        let ws = Workspace::default();
        let d = ws.register_dtd(DTD).unwrap();
        let q1 = ws.intern("a[b and not(c)]").unwrap();
        let q2 = ws.intern("a[not(c)][b]").unwrap();
        assert_ne!(q1, q2, "different spellings intern separately");
        assert_eq!(
            ws.query(q1).unwrap().class.text,
            ws.query(q2).unwrap().class.text
        );
        assert_eq!(ws.query(q2).unwrap().class.rep, q1);
        let first = ws.decide(d, q1).unwrap();
        assert!(!first.cached);
        // The equivalent spelling is a cache hit — same Arc, zero recomputation.
        let second = ws.decide(d, q2).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.decision, &second.decision));
        assert_eq!(ws.stats().decisions_computed, 1);

        // A spelling can be another spelling's canonical text: `a[b and c]` is the
        // class text of `a[c][b]`, interned first.  All three spellings get their
        // own ids and share the first one's class.
        let ws = Workspace::default();
        let d = ws.register_dtd(DTD).unwrap();
        let ids: Vec<QueryId> = ["a[c][b]", "a[b and c]", "a[b][c]"]
            .iter()
            .map(|text| ws.intern(text).unwrap())
            .collect();
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
        for &id in &ids {
            let class = ws.query(id).unwrap().class;
            assert_eq!(class.rep, ids[0]);
            assert!(Arc::ptr_eq(&class, &ws.query(ids[0]).unwrap().class));
            ws.decide(d, id).unwrap();
        }
        let stats = ws.stats();
        assert_eq!(stats.decisions_computed, 1, "{stats}");
        assert_eq!(stats.queries_interned, 3, "{stats}");
    }

    #[test]
    fn unknown_ids_error() {
        let ws = Workspace::default();
        let q = ws.intern("a").unwrap();
        assert!(matches!(
            ws.decide(DtdId(7), q),
            Err(ServiceError::UnknownDtd(7))
        ));
        let d = ws.register_dtd(DTD).unwrap();
        assert!(matches!(
            ws.decide(d, QueryId(99)),
            Err(ServiceError::UnknownQuery(99))
        ));
        assert!(ws.register_dtd("not a dtd ->").is_err());
        assert!(ws.intern("[[[").is_err());
    }

    /// The decide-path counters a served query moves, plus the work behind them.
    fn decide_counters(stats: &StatsSnapshot) -> [u64; 6] {
        [
            stats.decision_cache_hits,
            stats.canonical_hits,
            stats.decisions_computed,
            stats.programs_compiled,
            stats.vm_decides,
            stats.program_fallbacks,
        ]
    }

    fn counter_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> [u64; 6] {
        let (before, after) = (decide_counters(before), decide_counters(after));
        std::array::from_fn(|i| after[i] - before[i])
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let texts = ["a/b", "a[b]", "a[not(b)]", "a/b", "c", "a[b or c]", "b/d"];
        let setup = || {
            let ws = Workspace::default();
            let d = ws.register_dtd(DTD).unwrap();
            let ids: Vec<QueryId> = texts.iter().map(|t| ws.intern(t).unwrap()).collect();
            (ws, d, ids)
        };
        // The reference: a sequential decide loop over a fresh workspace.
        let (seq, d, ids) = setup();
        let before = seq.stats();
        let sequential: Vec<ServedDecision> =
            ids.iter().map(|&q| seq.decide(d, q).unwrap()).collect();
        let seq_delta = counter_delta(&before, &seq.stats());
        for threads in [1, 2, 4, 8] {
            let (ws, d, ids) = setup();
            let before = ws.stats();
            let batch = ws.decide_batch(d, &ids, threads, None, None).unwrap();
            assert_eq!(sequential.len(), batch.len());
            for (a, b) in sequential.iter().zip(&batch) {
                assert_eq!(
                    decision_fingerprint(&a.decision),
                    decision_fingerprint(&b.decision)
                );
                assert_eq!(a.cached, b.cached, "threads={threads}");
            }
            assert_eq!(
                counter_delta(&before, &ws.stats()),
                seq_delta,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cross_tenant_hits_count_once_through_check_and_batch() {
        let dtd = "r -> a*; a -> b, c; b -> #; c -> #;";
        // Two published classes (one asked in two spellings and once repeated) and
        // one class nobody has decided yet.
        let queries = ["a[b and c]", "a[c][b]", "a/b", "a/c", "a[b and c]"];
        // A tenant serving from a canonical cache into which another tenant has
        // published `a[b and c]` and `a/b` (a fresh cache per subscriber, so the
        // second one does not see the first one's work).
        let subscriber = || {
            let shared = Arc::new(CanonicalCache::new());
            let publisher = Workspace::default().with_canonical_cache(Arc::clone(&shared));
            let d = publisher.register_dtd(dtd).unwrap();
            for text in ["a[b and c]", "a/b"] {
                let q = publisher.intern(text).unwrap();
                publisher.decide(d, q).unwrap();
            }
            assert_eq!(shared.len(), 2);
            let server = ProtocolServer::with_workspace(
                Workspace::default().with_canonical_cache(shared),
                1,
            );
            let reg = server.handle_line(&format!(r#"{{"op":"register_dtd","dtd":"{dtd}"}}"#));
            assert!(reg.contains(r#""ok":true"#), "{reg}");
            server
        };
        let counters = |server: &ProtocolServer| {
            let stats = server.workspace().stats();
            [
                stats.decision_cache_hits,
                stats.canonical_hits,
                stats.decisions_computed,
            ]
        };

        let checks = subscriber();
        for text in queries {
            let line = format!(r#"{{"op":"check","dtd_id":0,"query":"{text}"}}"#);
            let response = checks.handle_line(&line);
            assert!(response.contains(r#""ok":true"#), "{response}");
        }
        let batch = subscriber();
        let list = queries.map(|t| format!("\"{t}\"")).join(",");
        let line = format!(r#"{{"op":"batch","dtd_id":0,"queries":[{list}],"threads":1}}"#);
        let response = batch.handle_line(&line);
        assert!(response.contains(r#""ok":true"#), "{response}");

        assert_eq!(counters(&checks), [2, 2, 1]);
        assert_eq!(counters(&batch), counters(&checks));
        assert_eq!(counters(&batch).iter().sum::<u64>(), queries.len() as u64);
    }
}
