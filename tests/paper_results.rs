//! End-to-end checks of the paper's own running examples and of the reduction
//! correctness statements, exercised through the public API only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpathsat::logic::{dpll, CnfFormula, Qbf};
use xpathsat::prelude::*;
use xpathsat::sat::reductions;

/// Example 2.1/2.2: the 3SAT DTD and query of the introduction.
#[test]
fn example_2_1_and_2_2() {
    // φ = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x2 ∨ x3): satisfiable.
    let dtd = parse_dtd("r -> x1, x2, x3; x1 -> t | f; x2 -> t | f; x3 -> t | f; t -> #; f -> #;")
        .unwrap();
    let query = parse_path(".[(x1/t | x2/f | x3/t) and (x1/f | x2/t | x3/t)]").unwrap();
    let decision = Solver::default().decide(&dtd, &query);
    match decision.result {
        Satisfiability::Satisfiable(doc) => verify_witness(&doc, &dtd, &query).unwrap(),
        other => panic!("Example 2.2 should be satisfiable, got {other}"),
    }

    // An unsatisfiable variant: x1 must be both true and false.
    let query = parse_path(".[x1/t and x1/f]").unwrap();
    assert!(matches!(
        Solver::default().decide(&dtd, &query).result,
        Satisfiability::Unsatisfiable
    ));
}

/// Example 2.3: `D: r → a*`, query `b` — unsatisfiable.
#[test]
fn example_2_3() {
    let dtd = parse_dtd("r -> a*; a -> #;").unwrap();
    let decision = Solver::default().decide(&dtd, &parse_path("b").unwrap());
    assert!(matches!(decision.result, Satisfiability::Unsatisfiable));
    assert!(decision.complete);
}

/// Proposition 4.2 / Theorem 6.6 / Theorem 6.9: all 3SAT encodings agree with DPLL.
#[test]
fn threesat_reductions_agree_with_dpll() {
    let mut rng = StdRng::seed_from_u64(11);
    let solver = Solver::default();
    for _ in 0..15 {
        let num_vars = rng.gen_range(2..=4);
        let num_clauses = rng.gen_range(1..=5);
        let formula = CnfFormula::random_3sat(&mut rng, num_vars, num_clauses);
        let expected = dpll::satisfiable(&formula);
        let instances = [
            reductions::threesat_to_downward_qualifiers(&formula),
            reductions::threesat_to_fixed_dtd_union(&formula),
            reductions::threesat_to_disjunction_free_data(&formula),
        ];
        for (i, (dtd, query)) in instances.iter().enumerate() {
            let decision = solver.decide(dtd, query);
            assert_eq!(
                decision.result.is_satisfiable(),
                Some(expected),
                "encoding {i} of {formula}"
            );
            if let Satisfiability::Satisfiable(doc) = &decision.result {
                verify_witness(doc, dtd, query).unwrap();
            }
        }
    }
}

/// Proposition 5.1: the Q3SAT encoding agrees with the QBF evaluator.
#[test]
fn q3sat_reduction_agrees_with_qbf_evaluation() {
    let mut rng = StdRng::seed_from_u64(13);
    let solver = Solver::default();
    for _ in 0..15 {
        let num_vars = rng.gen_range(2..=3);
        let num_clauses = rng.gen_range(1..=4);
        let qbf = Qbf::random(&mut rng, num_vars, num_clauses);
        let expected = qbf.is_valid();
        let (dtd, query) = reductions::q3sat_to_downward_negation(&qbf);
        let decision = solver.decide(&dtd, &query);
        // Tautological clauses drop out of the encoding, so a trivial instance may be
        // dispatched to a cheaper engine; non-trivial ones go to the negation fixpoint.
        assert!(decision.complete, "qbf {qbf}");
        assert_eq!(
            decision.result.is_satisfiable(),
            Some(expected),
            "qbf {qbf}"
        );
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            verify_witness(&doc.clone(), &dtd, &query).unwrap();
        }
    }
}

/// Theorem 5.4 (soundness direction): a halting machine's run yields a conforming,
/// satisfying document for the two-register-machine encoding.
#[test]
fn two_register_encoding_soundness() {
    use xpathsat::logic::trm::{RunOutcome, TwoRegisterMachine};
    use xpathsat::sat::reductions::two_register::{
        two_register_to_full_fragment, witness_from_run,
    };

    let machine = TwoRegisterMachine::bump_and_drain(3);
    let RunOutcome::Halted(trace) = machine.run(200) else {
        panic!("bump_and_drain halts")
    };
    let (dtd, query) = two_register_to_full_fragment(&machine);
    let mut doc = witness_from_run(&trace);
    xpathsat::sat::witness::fill_missing_attributes(&mut doc, &dtd);
    assert_eq!(validate(&doc, &dtd), Ok(()));
    assert!(eval::satisfies(&doc, &query));
}

/// Theorem 6.8 versus Proposition 4.2: the same query shape that is NP-hard to analyse
/// under general DTDs is handled by the PTIME disjunction-free engine when the DTD has
/// no disjunction.
#[test]
fn disjunction_free_dtds_take_the_ptime_path() {
    let solver = Solver::default();
    let djfree = parse_dtd("r -> a*; a -> b, c; b -> #; c -> #;").unwrap();
    let dead_query = parse_path("a[b and d]").unwrap();
    let decision = solver.decide(&djfree, &dead_query);
    assert_eq!(decision.engine, EngineKind::DisjunctionFree);
    assert!(matches!(decision.result, Satisfiability::Unsatisfiable));

    let disjunctive = parse_dtd("r -> a*; a -> b | c; b -> #; c -> #;").unwrap();
    let decision = solver.decide(&disjunctive, &parse_path("a[b and c]").unwrap());
    assert_eq!(decision.engine, EngineKind::Positive);
    assert!(matches!(decision.result, Satisfiability::Unsatisfiable));
}

/// Theorem 6.11(1): without label tests, every `X(↓, ↓*, ∪, [])` query is satisfiable in
/// the absence of DTDs; with label tests the analysis stays polynomial but can refute.
#[test]
fn no_dtd_satisfiability() {
    let solver = Solver::default();
    for text in ["a/b[c]/d", "**/x[y and z]", "(a | b)[c/d]"] {
        let decision = solver.decide_without_dtd(&parse_path(text).unwrap());
        assert!(
            matches!(decision.result, Satisfiability::Satisfiable(_)),
            "query {text}"
        );
    }
    let dead = parse_path(".[lab() = a and lab() = b]").unwrap();
    assert!(matches!(
        solver.decide_without_dtd(&dead).result,
        Satisfiability::Unsatisfiable
    ));
}

/// Fragment classification matches the paper's dichotomies.
#[test]
fn fragment_lattice() {
    let positive = parse_path("a[b]/c | d").unwrap();
    let negated = parse_path("a[not(b)]").unwrap();
    let data = parse_path("a[@id = \"1\"]").unwrap();
    assert!(Fragment::downward_positive().permits_path(&positive));
    assert!(!Fragment::downward_positive().permits_path(&negated));
    assert!(Fragment::downward_negation().permits_path(&negated));
    assert!(!Fragment::downward_negation().permits_path(&data));
    assert!(Fragment::largest_positive().permits_path(&data));
    assert!(Fragment::full().permits_path(&data));

    // The fragments the engines gate on: one query inside and one outside each.
    let gates = [
        (Fragment::downward_no_qualifiers(), "**/a | b/*", "a[b]"),
        (Fragment::sibling_no_qualifiers(), "a/>/</b", "a/>/*"),
        (
            Fragment::downward_positive_with_data(),
            "a[@id = \"1\"]/**",
            "a/..",
        ),
    ];
    for (fragment, inside, outside) in gates {
        assert!(
            fragment.permits_path(&parse_path(inside).unwrap()),
            "{fragment}: {inside}"
        );
        assert!(
            !fragment.permits_path(&parse_path(outside).unwrap()),
            "{fragment}: {outside}"
        );
    }
}
