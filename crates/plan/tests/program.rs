//! Targeted compile/VM tests: fragment boundaries, the joint-cover soundness cases,
//! and verdict+witness agreement with the AST solver on hand-built instances.

use xpsat_core::{Budget, Satisfiability, Solver};
use xpsat_dtd::{parse_dtd, DtdArtifacts};
use xpsat_plan::{canonicalize, compile, compile_with_reason, vm, BailReason, CompileLimits};
use xpsat_xpath::parse_path;

fn artifacts(dtd: &str) -> DtdArtifacts {
    DtdArtifacts::build(&parse_dtd(dtd).expect("test DTD parses"))
}

/// Compile and decide through the VM; panics if the query is outside the compiled
/// fragment (these tests pick queries that must compile).
fn vm_decide(a: &DtdArtifacts, query: &str) -> xpsat_core::Decision {
    let canon = canonicalize(&parse_path(query).expect("query parses"));
    let program = compile(a, &canon, &CompileLimits::default())
        .unwrap_or_else(|| panic!("query {query} should compile"));
    let mut scratch = vm::Scratch::new();
    vm::decide(&program, a, &mut scratch, &Budget::unlimited())
        .expect("VM decide should not fall back")
}

fn assert_agrees(a: &DtdArtifacts, query: &str) {
    let d = vm_decide(a, query);
    let s = Solver::default().decide_budgeted(a, &parse_path(query).unwrap(), &Budget::unlimited());
    assert_eq!(
        d.result.is_satisfiable(),
        s.result.is_satisfiable(),
        "VM and solver disagree on {query}: vm={:?} solver={:?} ({})",
        d.result.is_satisfiable(),
        s.result.is_satisfiable(),
        s.engine,
    );
    if let Satisfiability::Satisfiable(doc) = &d.result {
        xpsat_core::sat::verify_witness(doc, a.dtd(), &parse_path(query).unwrap())
            .expect("VM witness verifies");
    }
}

#[test]
fn joint_cover_blocks_demand_spine_conflict() {
    // The critical soundness case: a's content model offers (b, c) or d but never all
    // three, so `a[b and c]/d` is unsatisfiable even though each piece alone is fine.
    let a = artifacts("r -> a; a -> (b, c) | d; b -> #; c -> #; d -> #;");
    assert_agrees(&a, "a[b and c]");
    assert_agrees(&a, "a/d");
    assert_agrees(&a, "a[b and c]/d");
    assert_eq!(
        vm_decide(&a, "a[b and c]/d").result.is_satisfiable(),
        Some(false)
    );
}

#[test]
fn joint_cover_allows_compatible_demands() {
    let a = artifacts("r -> a; a -> b, c, d; b -> #; c -> #; d -> #;");
    let d = vm_decide(&a, "a[b and c]/d");
    assert_eq!(d.result.is_satisfiable(), Some(true));
    assert_agrees(&a, "a[b and c]/d");
}

#[test]
fn demand_rest_feasibility_prunes() {
    // b exists but can never have an x child, so the qualifier is unsatisfiable.
    let a = artifacts("r -> a; a -> b, c; b -> #; c -> #;");
    assert_agrees(&a, "a[b/x]");
    assert_eq!(vm_decide(&a, "a[b/x]").result.is_satisfiable(), Some(false));
    assert_agrees(&a, "a[b]");
}

#[test]
fn nested_qualifiers_realise() {
    let a = artifacts("r -> a; a -> b, d; b -> c*; c -> #; d -> #;");
    assert_agrees(&a, "a[b[c]]/d");
    assert_agrees(&a, "a[b/c and d]");
}

#[test]
fn wildcard_desc_union_cases() {
    let a = artifacts("r -> a | b; a -> a | c; b -> #; c -> #;");
    assert_agrees(&a, "*/c");
    assert_agrees(&a, "**/c");
    assert_agrees(&a, "a/a/c | b");
    assert_agrees(&a, "b/c"); // unsat: b has no children
    assert_agrees(&a, "(a|b)[c]");
}

#[test]
fn label_tests_intersect() {
    let a = artifacts("r -> a; a -> b; b -> #;");
    assert_agrees(&a, "a[lab() = a]");
    assert_agrees(&a, "a[lab() = b]"); // unsat: the a node is not labelled b
}

#[test]
fn undeclared_labels_are_unsat_not_errors() {
    let a = artifacts("r -> a; a -> #;");
    assert_agrees(&a, "zzz");
    assert_agrees(&a, "a[zzz]");
    assert_eq!(vm_decide(&a, "a[zzz]").result.is_satisfiable(), Some(false));
}

#[test]
fn multiplicity_interactions_bail_to_the_solver() {
    let a = artifacts("r -> a; a -> b; b -> c?; c -> #;");
    let limits = CompileLimits::default();
    // Spine label collides with a demand label: one b child cannot be counted twice.
    let canon = canonicalize(&parse_path("a[b]/b").unwrap());
    assert!(compile(&a, &canon, &limits).is_none());
    // Two demands on the same label likewise.
    let canon = canonicalize(&parse_path("a[b/c and b]").unwrap());
    assert!(compile(&a, &canon, &limits).is_none());
}

#[test]
fn out_of_fragment_queries_do_not_compile() {
    let a = artifacts("r -> a; a -> b?; b -> #;");
    let limits = CompileLimits::default();
    for (q, reason) in [
        ("..", BailReason::UpwardAxis),
        ("^*/a", BailReason::UpwardAxis),
        ("a[@x = \"1\"]", BailReason::DataValue),
        // Negation of a whole path (not a single child label) stays on the AST path.
        ("a[not(b/c)]", BailReason::Negation),
        // A sibling hop with nothing to anchor it.
        (">", BailReason::Sibling),
        // A sibling hop leaving the qualified node crosses into the enclosing word.
        ("a[b/>]", BailReason::Sibling),
    ] {
        let canon = canonicalize(&parse_path(q).unwrap());
        assert_eq!(
            compile_with_reason(&a, &canon, &limits).err(),
            Some(reason),
            "{q} should be outside the compiled fragment"
        );
        assert!(compile(&a, &canon, &limits).is_none());
    }
}

#[test]
fn local_negation_needs_a_duplicate_free_dtd() {
    // `a -> (b, b?)` repeats `b`, so the Glushkov automaton is not deterministic
    // enough for complement-style avoid sets; the compiler must bail.
    let dup = artifacts("r -> a; a -> b, b?; b -> #;");
    let canon = canonicalize(&parse_path("a[not(b)]").unwrap());
    assert_eq!(
        compile_with_reason(&dup, &canon, &CompileLimits::default()).err(),
        Some(BailReason::Negation),
    );
    // On a duplicate-free DTD the same query compiles and agrees with the solver.
    let df = artifacts("r -> a; a -> b | c; b -> #; c -> #;");
    assert_agrees(&df, "a[not(b)]");
    assert_eq!(
        vm_decide(&df, "a[not(b)]").result.is_satisfiable(),
        Some(true)
    );
    // `a -> b, c` forces a `b` child: not(b) is unsatisfiable there.
    let forced = artifacts("r -> a; a -> b, c; b -> #; c -> #;");
    assert_agrees(&forced, "a[not(b)]");
    assert_eq!(
        vm_decide(&forced, "a[not(b)]").result.is_satisfiable(),
        Some(false)
    );
    // Label-test negation is a plain complement mask: allowed on any DTD.
    assert_agrees(&dup, "*[not(lab() = a)]");
}

#[test]
fn disjunctive_qualifiers_compile_by_expansion() {
    let a = artifacts("r -> a; a -> b | c; b -> d?; c -> #; d -> #;");
    for q in [
        "a[b or c]",
        "a[b or lab() = a]",
        "a[b/d or c]",
        "a[(b | c)]",
        "a[b or c][lab() = a]",
    ] {
        assert_agrees(&a, q);
        assert_eq!(vm_decide(&a, q).result.is_satisfiable(), Some(true), "{q}");
    }
    // Both disjuncts infeasible: UNSAT through the VM, not a bail.
    assert_agrees(&a, "a[zzz or yyy]");
    assert_eq!(
        vm_decide(&a, "a[zzz or yyy]").result.is_satisfiable(),
        Some(false)
    );
}

#[test]
fn sibling_chains_compile_to_tables() {
    let a = artifacts("r -> a; a -> b, c, d; b -> #; c -> #; d -> #;");
    for (q, sat) in [
        ("a/b/>", true),      // c follows b
        ("a/b/>/>", true),    // d two after b
        ("a/b/>/>/>", false), // nothing three after b
        ("a/b/>>[lab() = d]", true),
        ("a/d/<<[lab() = c]", true),
        ("a/d/<", true),
        ("a/b/<", false), // nothing precedes b
    ] {
        assert_agrees(&a, q);
        assert_eq!(vm_decide(&a, q).result.is_satisfiable(), Some(sat), "{q}");
    }
    // Chains with demands pending at the anchor stay on the AST path.
    let canon = canonicalize(&parse_path("a[c]/b/>").unwrap());
    assert_eq!(
        compile_with_reason(&a, &canon, &CompileLimits::default()).err(),
        Some(BailReason::Sibling),
    );
}

#[test]
fn vacuous_dtd_compiles_to_const_unsat() {
    // The root type never terminates, so no document conforms at all.
    let a = artifacts("r -> r;");
    assert!(a.compiled().is_none());
    let canon = canonicalize(&parse_path("a").unwrap());
    let program = compile(&a, &canon, &CompileLimits::default()).expect("const program");
    assert!(program.const_unsat);
    let mut scratch = vm::Scratch::new();
    let d = vm::decide(&program, &a, &mut scratch, &Budget::unlimited()).unwrap();
    assert_eq!(d.result.is_satisfiable(), Some(false));
}

#[test]
fn budget_exhaustion_reports_unknown() {
    let a = artifacts("r -> a; a -> b; b -> #;");
    let canon = canonicalize(&parse_path("a/b").unwrap());
    let program = compile(&a, &canon, &CompileLimits::default()).unwrap();
    let mut scratch = vm::Scratch::new();
    let d = vm::decide(&program, &a, &mut scratch, &Budget::steps(1)).unwrap();
    assert_eq!(d.result.is_satisfiable(), None);
    assert!(d.exhausted.is_some());
}

#[test]
fn program_is_rejected_against_other_artifacts() {
    let a = artifacts("r -> a; a -> #;");
    let b = artifacts("r -> b; b -> #;");
    let canon = canonicalize(&parse_path("a").unwrap());
    let program = compile(&a, &canon, &CompileLimits::default()).unwrap();
    let mut scratch = vm::Scratch::new();
    assert!(vm::decide(&program, &b, &mut scratch, &Budget::unlimited()).is_none());
}

#[test]
fn program_is_rejected_against_another_build_of_the_same_text() {
    // Two builds of one DTD text number their symbols alike, but the VM trusts only
    // the build a program was stamped for.
    let dtd = "r -> a*; a -> b?; b -> #;";
    let (first, second) = (artifacts(dtd), artifacts(dtd));
    assert_ne!(first.uid(), second.uid());
    let canon = canonicalize(&parse_path("a[b]").unwrap());
    let program = compile(&first, &canon, &CompileLimits::default()).unwrap();
    let mut scratch = vm::Scratch::new();
    let budget = Budget::unlimited();
    assert!(vm::decide(&program, &first, &mut scratch, &budget).is_some());
    assert!(vm::decide(&program, &second, &mut scratch, &budget).is_none());
    // A clone is the same build: it keeps the uid, so the program still replays.
    assert_eq!(first.clone().uid(), first.uid());
    assert!(vm::decide(&program, &first.clone(), &mut scratch, &budget).is_some());
}

#[test]
fn canonical_spellings_share_a_program_shape() {
    let a = artifacts("r -> a; a -> b, c; b -> #; c -> #;");
    let limits = CompileLimits::default();
    let p1 = compile(
        &a,
        &canonicalize(&parse_path("a[b and c]").unwrap()),
        &limits,
    )
    .unwrap();
    let p2 = compile(&a, &canonicalize(&parse_path("a[c][b]").unwrap()), &limits).unwrap();
    assert_eq!(p1.ops, p2.ops);
    assert_eq!(p1.canon, p2.canon);
}
