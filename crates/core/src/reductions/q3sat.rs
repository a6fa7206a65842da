//! Q3SAT encoding: Proposition 5.1 (Figure 3) — Q3SAT ≤ `SAT(X(↓, [], ¬))`.
//!
//! The DTD lays the quantifier prefix out as a chain `x1 / {t1, f1} / x2 / …`: a
//! universally quantified variable produces *both* a `t` and an `f` child
//! (concatenation), an existentially quantified one produces exactly one of them
//! (disjunction).  Every root-to-leaf branch of a conforming document is one combined
//! assignment; the query asserts that no branch realises the negation of any clause, so
//! the instance is satisfiable iff the quantified formula is valid.

use xpsat_automata::Regex;
use xpsat_dtd::{ContentModel, Dtd};
use xpsat_logic::{Qbf, Quantifier, Var};
use xpsat_xpath::{Path, Qualifier};

fn sym(name: impl Into<String>) -> ContentModel {
    Regex::Sym(name.into())
}

/// Proposition 5.1: encode a Q3SAT instance as a `(Dtd, X(↓, [], ¬) query)` pair that is
/// satisfiable iff the instance is valid.
///
/// The quantifier prefix must bind the variables `x1 .. xm` in order (which is how
/// [`Qbf::random`] generates instances).
pub fn q3sat_to_downward_negation(qbf: &Qbf) -> (Dtd, Path) {
    let m = qbf.prefix.len();
    assert!(
        m >= 1,
        "the encoding needs at least one quantified variable"
    );

    let mut dtd = Dtd::new("r");
    dtd.define("r", sym("x1"));
    for (i, (quant, var)) in qbf.prefix.iter().enumerate() {
        debug_assert_eq!(var.0 as usize, i + 1, "prefix must bind x1..xm in order");
        let level = i + 1;
        let t = sym(format!("t{level}"));
        let f = sym(format!("f{level}"));
        let production = match quant {
            Quantifier::ForAll => Regex::concat(vec![t, f]),
            Quantifier::Exists => Regex::alt(vec![t, f]),
        };
        dtd.define(format!("x{level}"), production);
        let continuation = if level < m {
            sym(format!("x{}", level + 1))
        } else {
            Regex::Epsilon
        };
        dtd.define(format!("t{level}"), continuation.clone());
        dtd.define(format!("f{level}"), continuation);
    }

    // For each clause, the path XP(C) describes a branch on which the clause is false;
    // the query forbids every such branch.
    let clause_paths: Vec<Path> = qbf
        .matrix
        .clauses
        .iter()
        .filter_map(|clause| clause_refutation_path(clause.0.as_slice()))
        .collect();
    let query = if clause_paths.is_empty() {
        Path::Empty
    } else {
        Path::Empty.filter(Qualifier::and_all(
            clause_paths
                .into_iter()
                .map(|p| Qualifier::not(Qualifier::path(p))),
        ))
    };
    (dtd, query)
}

/// `XP(C)`: the downward path describing an assignment branch that falsifies the clause.
/// Returns `None` for tautological clauses (a variable occurring with both polarities),
/// which can never be falsified and therefore contribute no conjunct.
fn clause_refutation_path(literals: &[xpsat_logic::Literal]) -> Option<Path> {
    // Deduplicate by variable; detect tautologies.
    let mut by_var: Vec<(Var, bool)> = Vec::new();
    for lit in literals {
        match by_var.iter().find(|(v, _)| *v == lit.var) {
            Some((_, negated)) if *negated != lit.negated => return None,
            Some(_) => {}
            None => by_var.push((lit.var, lit.negated)),
        }
    }
    by_var.sort_by_key(|(v, _)| v.0);

    let mut steps = Vec::new();
    let mut previous_level = 0usize;
    for (var, negated) in by_var {
        let level = var.0 as usize;
        // From the previous Z element (depth 2·previous_level) down to x_level
        // (depth 2·level − 1): 2(level − previous_level) − 2 wildcard steps, then the
        // labelled x step, then the falsifying truth value.
        let wildcards = 2 * (level - previous_level) - 2;
        steps.push(Path::wildcard_chain(wildcards));
        steps.push(Path::label(format!("x{level}")));
        // The clause is falsified when a positive literal is assigned false and a
        // negative one true.
        let falsifier = if negated { "t" } else { "f" };
        steps.push(Path::label(format!("{falsifier}{level}")));
        previous_level = level;
    }
    Some(Path::seq_all(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Satisfiability;
    use crate::Solver;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xpsat_xpath::Fragment;

    fn xpath_satisfiable(dtd: &Dtd, query: &Path) -> bool {
        match Solver::default().decide(dtd, query).result {
            Satisfiability::Satisfiable(doc) => {
                crate::sat::verify_witness(&doc, dtd, query).unwrap();
                true
            }
            Satisfiability::Unsatisfiable => false,
            Satisfiability::Unknown => panic!("the negation fragment must be decided"),
        }
    }

    #[test]
    fn encoding_uses_only_the_claimed_fragment() {
        let mut rng = StdRng::seed_from_u64(7);
        let qbf = Qbf::random(&mut rng, 3, 4);
        let (dtd, query) = q3sat_to_downward_negation(&qbf);
        assert!(Fragment::downward_negation_nonrecursive().permits_path(&query));
        assert!(!Fragment::downward_positive_with_data().permits_path(&query));
        assert!(!xpsat_dtd::classify(&dtd).recursive);
    }

    #[test]
    fn validity_transfers_to_satisfiability() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut seen_valid = false;
        let mut seen_invalid = false;
        for _ in 0..40 {
            let num_vars = rng.gen_range(2..=3);
            let num_clauses = rng.gen_range(1..=4);
            let qbf = Qbf::random(&mut rng, num_vars, num_clauses);
            let expected = qbf.is_valid();
            seen_valid |= expected;
            seen_invalid |= !expected;
            let (dtd, query) = q3sat_to_downward_negation(&qbf);
            assert_eq!(xpath_satisfiable(&dtd, &query), expected, "qbf {qbf}");
        }
        assert!(
            seen_valid && seen_invalid,
            "the random sample should cover both outcomes"
        );
    }

    #[test]
    fn the_figure_3_example_is_valid() {
        // ∀x1 ∃x2 ∀x3 (x1 ∨ ¬x2 ∨ x3) — the example drawn in Figure 3; it is valid.
        use xpsat_logic::{CnfFormula, Literal};
        let qbf = Qbf {
            prefix: vec![
                (Quantifier::ForAll, Var(1)),
                (Quantifier::Exists, Var(2)),
                (Quantifier::ForAll, Var(3)),
            ],
            matrix: CnfFormula::from_clauses(vec![vec![
                Literal::pos(Var(1)),
                Literal::neg(Var(2)),
                Literal::pos(Var(3)),
            ]]),
        };
        assert!(qbf.is_valid());
        let (dtd, query) = q3sat_to_downward_negation(&qbf);
        assert!(xpath_satisfiable(&dtd, &query));
    }
}
