//! Old-vs-new equivalence tests for the interned-symbol artifact pipeline.
//!
//! The dense structures (interned `Sym` ids, sorted-vector NFA transitions, bitset
//! reachability closures, precompiled `DtdArtifacts`) must be observationally identical
//! to the naive string-keyed forms they replaced.  Each test pins one layer:
//!
//! * the interner round-trips names to dense ids;
//! * the dense Glushkov NFA (and the bitset subset-construction DFA) accept exactly the
//!   language of the regular expression, checked against the Brzozowski-derivative
//!   oracle on seeded random expressions and words, and DFA equivalence agrees with
//!   membership;
//! * the precomputed `DtdGraph` closure equals a naive BFS over the string adjacency,
//!   and the precomputed recursion/depth answers match their from-scratch definitions;
//! * `Solver::decide` verdicts are identical with and without precompiled artifacts
//!   across a corpus covering every engine, and the service workspace — which may
//!   answer through the compiled-program VM — agrees verdict-for-verdict, with every
//!   served witness verified on its own terms.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpsat_automata::{Dfa, Nfa, Regex};
use xpsat_core::{Budget, Solver};
use xpsat_dtd::{parse_dtd, Dtd, DtdArtifacts, DtdGraph, Sym, SymbolTable};
use xpsat_service::{decision_fingerprint, verdict_fingerprint, Workspace};
use xpsat_xpath::parse_path;

#[test]
fn interner_round_trips_and_is_dense() {
    let mut table = SymbolTable::new();
    let names = ["store", "book", "title", "author", "book"]; // one duplicate
    let syms: Vec<Sym> = names.iter().map(|n| table.intern(n)).collect();
    assert_eq!(table.len(), 4);
    assert_eq!(syms[1], syms[4]);
    for (i, sym) in syms.iter().take(4).enumerate() {
        assert_eq!(sym.index(), i);
        assert_eq!(table.name(*sym), names[i]);
        assert_eq!(table.lookup(names[i]), Some(*sym));
        assert_eq!(Sym::from_index(sym.index()), *sym);
    }
    assert_eq!(table.lookup("price"), None);
}

/// A random regular expression over a small alphabet.
fn random_regex(rng: &mut StdRng, depth: usize) -> Regex<char> {
    let alphabet = ['a', 'b', 'c'];
    if depth == 0 {
        return Regex::sym(alphabet[rng.gen_range(0..alphabet.len())]);
    }
    match rng.gen_range(0..8) {
        0 => Regex::Epsilon,
        1 => Regex::sym(alphabet[rng.gen_range(0..alphabet.len())]),
        2 | 3 => Regex::concat(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        4 | 5 => Regex::alt(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        6 => Regex::star(random_regex(rng, depth - 1)),
        _ => Regex::opt(random_regex(rng, depth - 1)),
    }
}

#[test]
fn dense_nfa_and_dfa_match_the_derivative_oracle_on_random_words() {
    let mut rng = StdRng::seed_from_u64(20260729);
    let alphabet = ['a', 'b', 'c'];
    for _ in 0..60 {
        let re = random_regex(&mut rng, 3);
        let nfa = Nfa::glushkov(&re);
        let dfa = Dfa::from_nfa(&nfa);
        for _ in 0..40 {
            let len = rng.gen_range(0..6);
            let word: Vec<char> = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            let expected = re.matches(&word);
            assert_eq!(
                nfa.accepts(&word),
                expected,
                "NFA vs regex {re:?} on {word:?}"
            );
            assert_eq!(
                dfa.accepts(&word),
                expected,
                "DFA vs regex {re:?} on {word:?}"
            );
        }
    }
}

#[test]
fn dfa_equivalence_agrees_with_membership_on_random_words() {
    let mut rng = StdRng::seed_from_u64(4242);
    let letters = ['a', 'b', 'c'];
    // Every word up to length 4: a disagreement among them refutes equivalence.
    let mut short_words: Vec<Vec<char>> = vec![vec![]];
    for len in 0..4 {
        let longer: Vec<Vec<char>> = (short_words.iter())
            .filter(|w| w.len() == len)
            .flat_map(|w| {
                letters.iter().map(move |&ch| {
                    let mut w2 = w.clone();
                    w2.push(ch);
                    w2
                })
            })
            .collect();
        short_words.extend(longer);
    }
    let (mut equal, mut distinct) = (0, 0);
    for _ in 0..40 {
        let r1 = random_regex(&mut rng, 2);
        let r2 = random_regex(&mut rng, 2);
        let d1 = Dfa::from_nfa(&Nfa::glushkov(&r1));
        let d2 = Dfa::from_nfa(&Nfa::glushkov(&r2));
        let equivalent = d1.equivalent(&d2);
        assert_eq!(equivalent, d2.equivalent(&d1), "{r1:?} vs {r2:?}");
        if short_words.iter().any(|w| r1.matches(w) != r2.matches(w)) {
            assert!(!equivalent, "{r1:?} vs {r2:?}");
        }
        if equivalent {
            // Equivalent automata agree on every word, long ones included.
            for _ in 0..40 {
                let len = rng.gen_range(0..9);
                let word: Vec<char> = (0..len)
                    .map(|_| letters[rng.gen_range(0..letters.len())])
                    .collect();
                assert_eq!(r1.matches(&word), r2.matches(&word), "{r1:?} vs {r2:?}");
            }
        }
        equal += usize::from(equivalent);
        distinct += usize::from(!equivalent);
        // Reflexivity through an independent construction.
        assert!(d1.equivalent(&Dfa::from_nfa(&Nfa::glushkov(&r1))));
    }
    assert!(
        equal > 0 && distinct > 0,
        "{equal} equal, {distinct} distinct"
    );
}

/// A random DTD over `n` element types, with occasional cycles and references to one
/// undeclared ghost type (the graph must handle both).
fn random_dtd(rng: &mut StdRng, n: usize) -> Dtd {
    let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let mut dtd = Dtd::new(names[0].clone());
    for (i, name) in names.iter().enumerate() {
        let mut parts = Vec::new();
        for _ in 0..rng.gen_range(0..3) {
            let target = if rng.gen_range(0..10) == 0 {
                "ghost".to_string()
            } else {
                names[rng.gen_range(0..n)].clone()
            };
            let sym = Regex::sym(target);
            parts.push(match rng.gen_range(0..3) {
                0 => sym,
                1 => Regex::opt(sym),
                _ => Regex::star(sym),
            });
        }
        let content = if parts.is_empty() {
            Regex::Epsilon
        } else {
            Regex::concat(parts)
        };
        dtd.define(name.clone(), content);
        let _ = i;
    }
    dtd
}

#[test]
fn dense_graph_closure_matches_naive_bfs() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..40 {
        let dtd = random_dtd(&mut rng, 2 + (round % 6));
        let graph = DtdGraph::new(&dtd);
        // Names the graph knows: declared plus referenced.
        let mut all_names: Vec<String> = dtd.element_names();
        all_names.push("ghost".to_string());
        let mut any_self_reaching = false;
        for name in &all_names {
            if graph.sym(name).is_none() {
                // ghost never referenced in this round
                continue;
            }
            // Naive BFS over the string adjacency.
            let mut seen = std::collections::BTreeSet::new();
            let mut queue: std::collections::VecDeque<String> =
                graph.successors(name).into_iter().collect();
            while let Some(t) = queue.pop_front() {
                if seen.insert(t.clone()) {
                    queue.extend(graph.successors(&t));
                }
            }
            assert_eq!(
                graph.reachable_from(name),
                seen,
                "closure mismatch at {name} for {dtd}"
            );
            // The dense row must agree element-for-element.
            let v = graph.sym(name).unwrap();
            let dense: std::collections::BTreeSet<String> = graph
                .reach_bits(v)
                .iter()
                .map(|i| graph.name(Sym::from_index(i)).to_string())
                .collect();
            assert_eq!(dense, seen);
            any_self_reaching |= seen.contains(name);
        }
        assert_eq!(
            graph.is_recursive(),
            any_self_reaching,
            "recursion flag mismatch for {dtd}"
        );
        // Depth bound: recompute the longest root path naively on nonrecursive DTDs.
        if !graph.is_recursive() {
            fn longest(graph: &DtdGraph, node: &str) -> usize {
                graph
                    .successors(node)
                    .iter()
                    .map(|s| 1 + longest(graph, s))
                    .max()
                    .unwrap_or(0)
            }
            assert_eq!(
                graph.depth_bound(),
                Some(longest(&graph, dtd.root())),
                "depth bound mismatch for {dtd}"
            );
        } else {
            assert_eq!(graph.depth_bound(), None);
        }
    }
}

/// DTD/query corpora covering every engine of the façade (the same fragments the
/// `perf_report` harness times).
fn solver_corpus() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            // downward + positive + negation + djfree-ineligible (disjunctive)
            "r -> a*; a -> b | c; b -> d?; c -> #; d -> #;",
            vec![
                "a/b",
                "a/b/d",
                "**/d",
                "a[b]",
                "a[b and c]",
                ".[a[b] and a[c]]",
                "a[not(b)]",
                ".[not(a)]",
                "b/..",
                "a/>",
            ],
        ),
        (
            // disjunction-free fast path + sibling walks
            "r -> book*; book -> title, author+; title -> #; author -> #;",
            vec![
                "book[title and author]",
                "book[price]",
                "book/title/>",
                "title/<",
                "book[title][author]",
            ],
        ),
        (
            // nonrecursive: recursion elimination + enumeration completeness
            "r -> a; a -> b?; b -> #; @a: id;",
            vec![
                "**[lab() = b]/..[not(lab() = r)]",
                "a[@id = \"1\"]",
                ".[a/@id != a/@id]",
                "a/b/..",
                "a/../..",
            ],
        ),
        (
            // recursive DTD with a non-terminating type
            "r -> c | z; c -> (c, x) | #; x -> #; z -> z;",
            vec!["c/c/x", "**/x", "z", "c[x and c]"],
        ),
    ]
}

#[test]
fn solver_verdicts_identical_with_and_without_artifacts() {
    let solver = Solver::default();
    for (dtd_text, queries) in solver_corpus() {
        let dtd = parse_dtd(dtd_text).unwrap();
        let artifacts = DtdArtifacts::build(&dtd);
        for query_text in queries {
            let query = parse_path(query_text).unwrap();
            let per_call = solver.decide(&dtd, &query);
            let shared = solver.decide_budgeted(&artifacts, &query, &Budget::unlimited());
            assert_eq!(
                decision_fingerprint(&per_call),
                decision_fingerprint(&shared),
                "cold/warm divergence on `{query_text}` under `{dtd_text}`"
            );
        }
    }
}

#[test]
fn lazy_and_eagerly_warmed_artifacts_yield_identical_fingerprints() {
    let solver = Solver::default();
    for (dtd_text, queries) in solver_corpus() {
        let dtd = parse_dtd(dtd_text).unwrap();
        // `lazy` builds its automata/useful-masks/generator on first touch per query;
        // `eager` is fully forced up front (the service-registration path).
        let lazy = DtdArtifacts::build(&dtd);
        let eager = DtdArtifacts::build(&dtd);
        eager.warm();
        for query_text in &queries {
            let query = parse_path(query_text).unwrap();
            let from_lazy = solver.decide_budgeted(&lazy, &query, &Budget::unlimited());
            let from_eager = solver.decide_budgeted(&eager, &query, &Budget::unlimited());
            assert_eq!(
                decision_fingerprint(&from_lazy),
                decision_fingerprint(&from_eager),
                "lazy/eager divergence on `{query_text}` under `{dtd_text}`"
            );
        }
        // Forcing after the fact must also be a no-op observably.
        lazy.warm();
        for query_text in &queries {
            let query = parse_path(query_text).unwrap();
            assert_eq!(
                decision_fingerprint(&solver.decide_budgeted(&lazy, &query, &Budget::unlimited())),
                decision_fingerprint(&solver.decide_budgeted(&eager, &query, &Budget::unlimited())),
            );
        }
    }
}

#[test]
fn workspace_serves_the_same_decisions_as_a_fresh_solver() {
    let solver = Solver::default();
    let ws = Workspace::default();
    for (dtd_text, queries) in solver_corpus() {
        let dtd = parse_dtd(dtd_text).unwrap();
        let dtd_id = ws.register_dtd(dtd_text).unwrap();
        for query_text in queries {
            let q = ws.intern(query_text).unwrap();
            let served = ws.decide(dtd_id, q).unwrap();
            // The workspace may serve through the compiled-program VM (different
            // engine tag, equally valid witness), so the direct solver is the
            // oracle for the verdict and the witness is verified independently.
            let direct = solver.decide(&dtd, &parse_path(query_text).unwrap());
            assert_eq!(
                verdict_fingerprint(&served.decision),
                verdict_fingerprint(&direct),
                "workspace divergence on `{query_text}` under `{dtd_text}`"
            );
            if let xpsat_core::Satisfiability::Satisfiable(doc) = &served.decision.result {
                xpsat_core::sat::verify_witness(doc, &dtd, &parse_path(query_text).unwrap())
                    .unwrap_or_else(|e| panic!("witness for `{query_text}`: {e:?}"));
            }
        }
    }
}

#[test]
fn compiled_automata_agree_with_content_models_on_random_children_words() {
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..25 {
        let dtd = random_dtd(&mut rng, 2 + (round % 5));
        let artifacts = DtdArtifacts::build(&dtd);
        let Some(compiled) = artifacts.compiled() else {
            continue;
        };
        for elem in compiled.elements() {
            let name = compiled.name(elem).to_string();
            let content = compiled.dtd().content(&name).unwrap().clone();
            let nfa = compiled.automaton(elem);
            for _ in 0..20 {
                let len = rng.gen_range(0..4);
                let word_syms: Vec<Sym> = (0..len)
                    .map(|_| Sym::from_index(rng.gen_range(0..compiled.num_elements())))
                    .collect();
                let word_names: Vec<String> = word_syms
                    .iter()
                    .map(|s| compiled.name(*s).to_string())
                    .collect();
                assert_eq!(
                    nfa.accepts(&word_syms),
                    content.matches(&word_names),
                    "automaton/content divergence for {name} on {word_names:?}"
                );
            }
        }
    }
}
