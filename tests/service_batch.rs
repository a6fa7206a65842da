//! Acceptance tests of the satisfiability service (`xpsat-service`), driven through
//! the `xpathsat` façade:
//!
//! 1. `decide_batch` over 100+ queries against one registered DTD agrees verdict-
//!    for-verdict (via `verdict_fingerprint`) with a sequential `Solver::decide`
//!    loop, across thread counts, on seeded random DTD/query corpora — the service
//!    may answer through the compiled-program VM, so the AST solver is the oracle
//!    for the verdict while every served witness is validated on its own terms;
//! 2. a repeated batch demonstrates cache reuse: the second run performs *no* DTD
//!    re-classification and is served entirely from the decision cache, asserted
//!    through the service's stats counters;
//! 3. the JSON-lines protocol agrees with the direct API.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpathsat::prelude::*;
use xpathsat::service::{decision_fingerprint, verdict_fingerprint, Json, ProtocolServer, QueryId};

/// Random DTDs in the style of the engine-agreement suite: small alphabets, mixed
/// operators, always with a terminating root.
fn corpus_dtds() -> Vec<Dtd> {
    [
        "r -> a?, b?; a -> c?; b -> c?, d?; c -> #; d -> #;",
        "r -> a, b; a -> (c | d); b -> c?; c -> #; d -> #;",
        "r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;",
        "r -> (a | b)*, c?; a -> (d, d) | #; b -> d?; c -> #; d -> #;",
        "r -> book*; book -> title, author; title -> #; author -> #;",
    ]
    .iter()
    .map(|text| parse_dtd(text).unwrap())
    .collect()
}

/// A random query mixing labels, wildcards, descendant, sequence, union, qualifiers
/// and negation — wide enough to exercise several engines.
fn random_query(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
    let pick = |rng: &mut StdRng| labels[rng.gen_range(0..labels.len())].clone();
    if depth == 0 {
        return Path::label(pick(rng));
    }
    match rng.gen_range(0..7) {
        0 => Path::label(pick(rng)),
        1 => Path::Wildcard,
        2 => Path::DescendantOrSelf,
        3 => Path::seq(
            random_query(rng, labels, depth - 1),
            random_query(rng, labels, depth - 1),
        ),
        4 => Path::union(
            random_query(rng, labels, depth - 1),
            random_query(rng, labels, depth - 1),
        ),
        5 => random_query(rng, labels, depth - 1).filter(Qualifier::path(random_query(
            rng,
            labels,
            depth - 1,
        ))),
        _ => random_query(rng, labels, depth - 1).filter(Qualifier::not(Qualifier::path(
            random_query(rng, labels, depth - 1),
        ))),
    }
}

fn corpus_queries(rng: &mut StdRng, dtd: &Dtd, n: usize) -> Vec<String> {
    let labels: Vec<String> = dtd
        .element_names()
        .into_iter()
        .filter(|l| l != dtd.root())
        .collect();
    (0..n)
        .map(|_| random_query(rng, &labels, 3).to_string())
        .collect()
}

#[test]
fn batch_identical_to_sequential_solver_loop_over_100_queries() {
    let mut rng = StdRng::seed_from_u64(20050613);
    let solver = Solver::default();
    for dtd in corpus_dtds() {
        // 120 queries per DTD, with deliberate duplicates to exercise the memo cache.
        let mut queries = corpus_queries(&mut rng, &dtd, 100);
        for i in 0..20 {
            queries.push(queries[i * 3].clone());
        }
        assert!(queries.len() >= 100);

        // Sequential ground truth straight through the solver, no service.  The
        // service may serve any query through the compiled-program VM (a different
        // engine tag and an equally valid but possibly different witness), so the
        // oracle compares verdicts and verifies served witnesses independently.
        let expected: Vec<String> = queries
            .iter()
            .map(|text| verdict_fingerprint(&solver.decide(&dtd, &parse_path(text).unwrap())))
            .collect();

        for threads in [1, 4] {
            let mut session = Session::new();
            session.load_dtd(&dtd.to_string()).unwrap();
            let served = session.check_batch(&queries, threads).unwrap();
            assert_eq!(served.len(), queries.len());
            for ((text, one), want) in queries.iter().zip(&served).zip(&expected) {
                assert_eq!(
                    &verdict_fingerprint(&one.decision),
                    want,
                    "query {text} under\n{dtd} ({threads} threads)"
                );
                if let Satisfiability::Satisfiable(doc) = &one.decision.result {
                    verify_witness(doc, &dtd, &parse_path(text).unwrap()).unwrap();
                }
            }
        }
    }
}

#[test]
fn repeated_batch_reuses_all_cached_artifacts() {
    let mut rng = StdRng::seed_from_u64(77);
    let dtd = corpus_dtds().remove(3);
    let queries = corpus_queries(&mut rng, &dtd, 100);

    let mut session = Session::new();
    session.load_dtd(&dtd.to_string()).unwrap();
    let cold = session.check_batch(&queries, 4).unwrap();
    let stats_after_cold = session.workspace().stats();
    // Registration classified and normalised exactly once.
    assert_eq!(stats_after_cold.dtds_registered, 1);
    assert_eq!(stats_after_cold.classifications, 1);
    assert_eq!(stats_after_cold.normalizations, 1);

    let warm = session.check_batch(&queries, 4).unwrap();
    let stats_after_warm = session.workspace().stats();

    // The second run did no DTD re-classification and ran no solver engine at all:
    // every query was served from the decision cache.
    assert_eq!(
        stats_after_warm.classifications,
        stats_after_cold.classifications
    );
    assert_eq!(
        stats_after_warm.normalizations,
        stats_after_cold.normalizations
    );
    assert_eq!(
        stats_after_warm.automata_built,
        stats_after_cold.automata_built
    );
    assert_eq!(
        stats_after_warm.decisions_computed,
        stats_after_cold.decisions_computed
    );
    assert_eq!(
        stats_after_warm.decision_cache_hits,
        stats_after_cold.decision_cache_hits + queries.len() as u64
    );
    assert!(warm.iter().all(|one| one.cached));

    // And the warm decisions are identical to the cold ones, byte for byte.
    for (cold_one, warm_one) in cold.iter().zip(&warm) {
        assert_eq!(
            decision_fingerprint(&cold_one.decision),
            decision_fingerprint(&warm_one.decision)
        );
    }
}

#[test]
fn workspace_level_batch_is_order_preserving_and_thread_invariant() {
    let mut rng = StdRng::seed_from_u64(99);
    let dtd = corpus_dtds().remove(0);
    let texts = corpus_queries(&mut rng, &dtd, 60);

    let mut baseline: Option<Vec<String>> = None;
    for threads in [1, 2, 4, 8] {
        let ws = Workspace::default();
        let d = ws.register_dtd(&dtd.to_string()).unwrap();
        let ids: Vec<QueryId> = texts.iter().map(|t| ws.intern(t).unwrap()).collect();
        let served = ws.decide_batch(d, &ids, threads, None, None).unwrap();
        let fingerprints: Vec<String> = served
            .iter()
            .map(|one| decision_fingerprint(&one.decision))
            .collect();
        match &baseline {
            None => baseline = Some(fingerprints),
            Some(expected) => assert_eq!(expected, &fingerprints, "threads = {threads}"),
        }
    }
}

#[test]
fn sharded_cache_agrees_with_per_query_decides_across_entry_points() {
    // The decision cache is striped across lock shards; whichever path warms a pair —
    // a batch worker or a single `decide` — every later read must see the identical
    // decision.  Mix the two entry points over several DTDs and orders.
    let mut rng = StdRng::seed_from_u64(1234);
    for dtd in corpus_dtds() {
        let texts = corpus_queries(&mut rng, &dtd, 50);
        // Reference: a dedicated workspace that only ever uses single decides.
        let singles = Workspace::default();
        let ds = singles.register_dtd(&dtd.to_string()).unwrap();
        let single_ids: Vec<QueryId> = texts.iter().map(|t| singles.intern(t).unwrap()).collect();
        let expected: Vec<String> = single_ids
            .iter()
            .map(|&q| decision_fingerprint(&singles.decide(ds, q).unwrap().decision))
            .collect();

        // Mixed workspace: first half warmed through decide(), then a threaded batch
        // over everything, then decide() reads for all (now fully cached).
        let mixed = Workspace::default();
        let dm = mixed.register_dtd(&dtd.to_string()).unwrap();
        let ids: Vec<QueryId> = texts.iter().map(|t| mixed.intern(t).unwrap()).collect();
        for &q in ids.iter().take(ids.len() / 2) {
            mixed.decide(dm, q).unwrap();
        }
        let batched = mixed.decide_batch(dm, &ids, 4, None, None).unwrap();
        for (one, want) in batched.iter().zip(&expected) {
            assert_eq!(&decision_fingerprint(&one.decision), want);
        }
        let stats_after_batch = mixed.stats();
        for (&q, want) in ids.iter().zip(&expected) {
            let served = mixed.decide(dm, q).unwrap();
            assert!(served.cached, "pair must be cached after the batch");
            assert_eq!(&decision_fingerprint(&served.decision), want);
        }
        // The post-batch reads ran no solver engine.
        assert_eq!(
            mixed.stats().decisions_computed,
            stats_after_batch.decisions_computed
        );
    }
}

#[test]
fn protocol_agrees_with_direct_api() {
    let mut rng = StdRng::seed_from_u64(5);
    let dtd = corpus_dtds().remove(1);
    let texts = corpus_queries(&mut rng, &dtd, 40);

    let server = ProtocolServer::new(2);
    let reg = Json::parse(
        &server.handle_line(
            &Json::obj(vec![
                ("op", Json::Str("register_dtd".into())),
                ("dtd", Json::Str(dtd.to_string())),
            ])
            .to_string(),
        ),
    )
    .unwrap();
    assert_eq!(reg.get("ok").and_then(Json::as_bool), Some(true));

    let request = Json::obj(vec![
        ("op", Json::Str("batch".into())),
        ("dtd_id", Json::Num(0.0)),
        (
            "queries",
            Json::Arr(texts.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
        ("threads", Json::Num(4.0)),
    ]);
    let response = Json::parse(&server.handle_line(&request.to_string())).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), texts.len());

    let solver = Solver::default();
    for (text, result) in texts.iter().zip(results) {
        let direct = solver.decide(&dtd, &parse_path(text).unwrap());
        let verdict = match direct.result {
            Satisfiability::Satisfiable(_) => "satisfiable",
            Satisfiability::Unsatisfiable => "unsatisfiable",
            Satisfiability::Unknown => "unknown",
        };
        assert_eq!(
            result.get("result").and_then(Json::as_str),
            Some(verdict),
            "query {text}"
        );
        // The service is free to answer through the compiled-program VM instead of
        // the AST engine that direct dispatch would pick; any other engine tag must
        // match direct dispatch exactly.
        let engine = result.get("engine").and_then(Json::as_str).unwrap();
        assert!(
            engine == "compiled-vm" || engine == xpathsat::service::engine_slug(direct.engine),
            "query {text}: engine {engine}"
        );
    }
}
