//! Cross-engine agreement: every specialised decision procedure must agree with the
//! exhaustive enumeration oracle on randomly generated (DTD, query) instances drawn from
//! its fragment, and every witness it returns must verify.
//!
//! These tests are the workspace-level counterpart of the per-engine unit tests: they
//! use only the public API.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpathsat::dtd::DtdArtifacts;
use xpathsat::prelude::*;
use xpathsat::sat::engines::enumeration::{self, EnumerationLimits};
use xpathsat::sat::Budget;

/// A small pool of star-free, nonrecursive DTDs over which the enumeration oracle is
/// exhaustive, so that oracle disagreement is always a genuine bug.
fn oracle_dtds() -> Vec<Dtd> {
    [
        "r -> a?, b?; a -> c?; b -> c?, d?; c -> #; d -> #;",
        "r -> a, b; a -> (c | d); b -> c?; c -> #; d -> #;",
        "r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;",
        "r -> a, a?; a -> b?, b?; b -> #;",
    ]
    .iter()
    .map(|text| parse_dtd(text).unwrap())
    .collect()
}

/// A random positive downward query over the given label alphabet.
fn random_positive_query(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
    let pick_label = |rng: &mut StdRng| labels[rng.gen_range(0..labels.len())].clone();
    if depth == 0 {
        return Path::label(pick_label(rng));
    }
    match rng.gen_range(0..6) {
        0 => Path::label(pick_label(rng)),
        1 => Path::Wildcard,
        2 => Path::DescendantOrSelf,
        3 => Path::seq(
            random_positive_query(rng, labels, depth - 1),
            random_positive_query(rng, labels, depth - 1),
        ),
        4 => Path::union(
            random_positive_query(rng, labels, depth - 1),
            random_positive_query(rng, labels, depth - 1),
        ),
        _ => random_positive_query(rng, labels, depth - 1).filter(Qualifier::path(
            random_positive_query(rng, labels, depth - 1),
        )),
    }
}

/// A random downward query that may also use negation, conjunction and label tests.
fn random_negation_query(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
    let base = random_positive_query(rng, labels, depth);
    if rng.gen_bool(0.5) {
        let qual = if rng.gen_bool(0.5) {
            Qualifier::not(Qualifier::path(random_positive_query(rng, labels, depth)))
        } else {
            Qualifier::And(
                Box::new(Qualifier::path(random_positive_query(rng, labels, depth))),
                Box::new(Qualifier::not(Qualifier::LabelIs(
                    labels[rng.gen_range(0..labels.len())].clone(),
                ))),
            )
        };
        Path::Empty.filter(Qualifier::And(
            Box::new(Qualifier::path(base)),
            Box::new(qual),
        ))
    } else {
        base
    }
}

fn oracle(dtd: &Dtd, query: &Path) -> Option<bool> {
    let limits = EnumerationLimits::default();
    enumeration::decide(dtd, query, &limits).is_satisfiable()
}

#[test]
fn solver_agrees_with_oracle_on_random_positive_queries() {
    let mut rng = StdRng::seed_from_u64(2024);
    let solver = Solver::default();
    for dtd in oracle_dtds() {
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        for _ in 0..40 {
            let query = random_positive_query(&mut rng, &labels, 3);
            let expected = oracle(&dtd, &query).expect("oracle is exhaustive on these DTDs");
            let decision = solver.decide(&dtd, &query);
            assert_eq!(
                decision.result.is_satisfiable(),
                Some(expected),
                "query {query} under\n{dtd}"
            );
            if let Satisfiability::Satisfiable(doc) = &decision.result {
                verify_witness(doc, &dtd, &query).unwrap();
            }
        }
    }
}

#[test]
fn solver_agrees_with_oracle_on_random_negation_queries() {
    let mut rng = StdRng::seed_from_u64(4096);
    let solver = Solver::default();
    for dtd in oracle_dtds() {
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        for _ in 0..30 {
            let query = random_negation_query(&mut rng, &labels, 2);
            let expected = oracle(&dtd, &query).expect("oracle is exhaustive on these DTDs");
            let decision = solver.decide(&dtd, &query);
            assert_eq!(
                decision.result.is_satisfiable(),
                Some(expected),
                "query {query} under\n{dtd}"
            );
            if let Satisfiability::Satisfiable(doc) = &decision.result {
                verify_witness(doc, &dtd, &query).unwrap();
            }
        }
    }
}

#[test]
fn sibling_engine_agrees_with_oracle() {
    let solver = Solver::default();
    let dtd = parse_dtd("r -> a, (b | c), d?; a -> #; b -> #; c -> #; d -> #;").unwrap();
    let queries = [
        "a/>", "a/>/>", "a/>/>/>", "b/>", "c/<", "d/</<", "a/<", "b/>/>", "c/>/>",
    ];
    for text in queries {
        let query = parse_path(text).unwrap();
        let expected = oracle(&dtd, &query).expect("exhaustive");
        let decision = solver.decide(&dtd, &query);
        assert_eq!(decision.engine, EngineKind::Sibling, "query {text}");
        assert_eq!(
            decision.result.is_satisfiable(),
            Some(expected),
            "query {text}"
        );
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            verify_witness(doc, &dtd, &query).unwrap();
        }
    }
}

/// `Solver::predict_route` names the engine the AST dispatch reaches: both walk one
/// route table, the prediction stopping at the first open gate.  The disjunction-free
/// UNSAT shortcut is predicted as the positive engine (the prediction cannot know the
/// verdict).  A step's run may still pass on an admitted instance, so this pins the
/// agreement over a corpus that reaches every engine label rather than proving it.
#[test]
fn predicted_route_agrees_with_dispatch() {
    // The positive engine's witness search recurses deeper than the default
    // test-thread stack on the recursive DTD; run on a decide-sized stack.
    std::thread::Builder::new()
        .stack_size(xpathsat::sat::DECIDE_STACK_BYTES)
        .spawn(compare_predictions_with_dispatch)
        .expect("spawn comparison thread")
        .join()
        .expect("prediction/dispatch comparison panicked");
}

fn compare_predictions_with_dispatch() {
    let mut dtds = oracle_dtds();
    dtds.push(parse_dtd("r -> book*; book -> title, author; title -> #; author -> #;").unwrap());
    dtds.push(parse_dtd("r -> a*; a -> (a | b)*, c?; b -> #; c -> #;").unwrap());
    let fixed = [
        "a/b",
        "a/>",
        "b/<",
        "a[b]",
        "book[price]",
        "book[title and author]",
        "a[not(b)]",
        "**/b[not(c)]",
        "a/..",
        "a/b/..",
        "a/../..",
        "**/b/..",
        "**[lab() = b]/..[not(lab() = r)]",
        "**/c[not(d)]/..",
        "a[@x = \"1\"]",
        "a[not(@x = @y)]",
        "**/a[@x = @y]",
    ];
    let solver = Solver::default();
    let unlimited = Budget::unlimited();
    let mut rng = StdRng::seed_from_u64(1555);
    let mut reached = std::collections::BTreeSet::new();
    for dtd in &dtds {
        let artifacts = DtdArtifacts::build(dtd);
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        let mut queries: Vec<Path> = fixed.iter().map(|text| parse_path(text).unwrap()).collect();
        for _ in 0..20 {
            queries.push(random_positive_query(&mut rng, &labels, 3));
            queries.push(random_negation_query(&mut rng, &labels, 2));
        }
        for query in queries {
            let predicted = Solver::predict_route(&artifacts, &query).ast_engine;
            let decision = solver.decide_budgeted(&artifacts, &query, &unlimited);
            let dispatched = decision.engine;
            let shortcut =
                dispatched == EngineKind::DisjunctionFree && predicted == EngineKind::Positive;
            // Recursion elimination passes when its retry is inconclusive (enumeration
            // cannot refute under a starred DTD); dispatch then enumerates the original.
            let inconclusive_retry = predicted == EngineKind::Rewritten
                && dispatched == EngineKind::Enumeration
                && matches!(decision.result, Satisfiability::Unknown);
            assert!(
                predicted == dispatched || shortcut || inconclusive_retry,
                "query {query}: predicted {predicted}, dispatched {dispatched} under\n{dtd}"
            );
            reached.insert(format!("{dispatched:?}"));
        }
    }
    assert_eq!(
        reached.into_iter().collect::<Vec<_>>(),
        [
            "DisjunctionFree",
            "Downward",
            "Enumeration",
            "NegationFixpoint",
            "Positive",
            "Rewritten",
            "Sibling"
        ]
    );
}

/// Proposition 3.3 (normalisation) and Proposition 3.1 (no-DTD reduction), checked
/// against the solver on random positive queries.
///
/// Formerly a proptest block over `seed in 0u64..5_000` with 64 cases; the build
/// environment has no crates.io access, so the same coverage is drawn as 64 fixed
/// seeds through the deterministic workspace RNG.
#[test]
fn normalization_preserves_satisfiability() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dtd =
            parse_dtd("r -> (a | b)*, c?; a -> (d, d) | #; b -> d?; c -> #; d -> #;").unwrap();
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        let query = random_positive_query(&mut rng, &labels, 2);
        let solver = Solver::default();
        let direct = solver.decide(&dtd, &query).result.is_satisfiable();
        let (norm, rewritten) = xpathsat::sat::transform::normalize_instance(&dtd, &query);
        let normalized = solver.decide(&norm.dtd, &rewritten).result.is_satisfiable();
        assert_eq!(
            direct, normalized,
            "query {} rewritten {}",
            query, rewritten
        );
    }
}

/// The recursion-elimination rewriting of Proposition 6.1 is equivalence-preserving
/// on every document of a nonrecursive DTD.  (Formerly proptest; see above.)
#[test]
fn recursion_elimination_is_equivalent_on_documents() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dtd = parse_dtd("r -> a?, b; a -> c*; b -> c?; c -> d?; d -> #;").unwrap();
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        let query = random_positive_query(&mut rng, &labels, 2);
        let rewritten = xpathsat::sat::transform::eliminate_recursion_for(&dtd, &query)
            .expect("the DTD is nonrecursive");
        let generator = TreeGenerator::new(&dtd);
        for _ in 0..5 {
            let doc = generator.random_tree(&mut rng, 4, 3);
            assert_eq!(
                eval::satisfies(&doc, &query),
                eval::satisfies(&doc, &rewritten),
                "query {} on {}",
                query,
                doc
            );
        }
    }
}
