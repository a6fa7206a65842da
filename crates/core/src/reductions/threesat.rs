//! 3SAT encodings: Propositions 4.2 and 4.3, Theorem 6.6(1) and Theorem 6.9(1)
//! (Figures 1, 6 and 8 of the paper).
//!
//! Every function returns a `(Dtd, Path)` instance that is satisfiable iff the source
//! formula is; the property tests cross-validate this against the DPLL solver of
//! `xpsat-logic`, and `decode_assignment` reads a satisfying assignment back off a
//! witness document.

use std::collections::BTreeMap;
use xpsat_automata::Regex;
use xpsat_dtd::{ContentModel, Dtd};
use xpsat_logic::{CnfFormula, Var};
use xpsat_xmltree::Document;
use xpsat_xpath::{CmpOp, Path, Qualifier};

fn sym(name: impl Into<String>) -> ContentModel {
    Regex::Sym(name.into())
}

/// The variables of a formula, in ascending order.
fn variables(formula: &CnfFormula) -> Vec<Var> {
    formula.variables()
}

/// Proposition 4.2(1), Figure 1 (left): 3SAT ≤ `SAT(X(↓, []))`.
///
/// The DTD lists one `x_j` child per variable, each choosing a `t_j` or `f_j` child
/// whose children are exactly the clauses that the chosen polarity satisfies; the query
/// demands every clause to appear two levels below the root.
pub fn threesat_to_downward_qualifiers(formula: &CnfFormula) -> (Dtd, Path) {
    let vars = variables(formula);
    let mut dtd = Dtd::new("r");
    dtd.define(
        "r",
        Regex::concat(vars.iter().map(|v| sym(format!("x{}", v.0))).collect()),
    );
    for v in &vars {
        dtd.define(
            format!("x{}", v.0),
            Regex::alt(vec![sym(format!("t{}", v.0)), sym(format!("f{}", v.0))]),
        );
        // t_j's children: all clauses containing the positive literal x_j;
        // f_j's children: all clauses containing the negative literal ¬x_j.
        let mut pos_clauses = Vec::new();
        let mut neg_clauses = Vec::new();
        for (i, clause) in formula.clauses.iter().enumerate() {
            if clause.0.iter().any(|l| l.var == *v && !l.negated) {
                pos_clauses.push(sym(format!("c{i}")));
            }
            if clause.0.iter().any(|l| l.var == *v && l.negated) {
                neg_clauses.push(sym(format!("c{i}")));
            }
        }
        dtd.define(format!("t{}", v.0), Regex::concat(pos_clauses));
        dtd.define(format!("f{}", v.0), Regex::concat(neg_clauses));
    }
    for i in 0..formula.clauses.len() {
        dtd.declare_empty(format!("c{i}"));
    }
    let query = Path::Empty.filter(Qualifier::and_all((0..formula.clauses.len()).map(|i| {
        Qualifier::path(Path::seq_all(vec![
            Path::Wildcard,
            Path::Wildcard,
            Path::label(format!("c{i}")),
        ]))
    })));
    (dtd, query)
}

/// Proposition 4.3: 3SAT ≤ `SAT(X(↓, ↑))` — same DTD as Proposition 4.2(1), but the
/// query weaves up and down instead of using qualifiers
/// (`↓²/C1/↑³/↓²/C2/↑³/…/↓²/Cn`).
pub fn threesat_to_updown(formula: &CnfFormula) -> (Dtd, Path) {
    let (dtd, _) = threesat_to_downward_qualifiers(formula);
    let mut steps = Vec::new();
    for i in 0..formula.clauses.len() {
        steps.push(Path::wildcard_chain(2));
        steps.push(Path::label(format!("c{i}")));
        if i + 1 < formula.clauses.len() {
            steps.push(Path::parent_chain(3));
        }
    }
    (dtd, Path::seq_all(steps))
}

/// Proposition 4.2(2) / Theorem 6.6(1), Figure 1 (right): 3SAT ≤ `SAT(X(∪, []))` under a
/// *fixed* DTD.  Variables are encoded as positions along an `x`-chain; each `x` element
/// chooses a `t` or an `f` child.
pub fn threesat_to_fixed_dtd_union(formula: &CnfFormula) -> (Dtd, Path) {
    let dtd = fixed_chain_dtd();
    let vars = variables(formula);
    let max_var = vars.iter().map(|v| v.0).max().unwrap_or(1);
    let clause_qualifiers = formula.clauses.iter().map(|clause| {
        Qualifier::path(Path::union_all(clause.0.iter().map(|lit| {
            let chain = Path::label_chain("x", lit.var.0 as usize);
            Path::seq(chain, Path::label(if lit.negated { "f" } else { "t" }))
        })))
    });
    // Demand a chain long enough to host every variable, so that a witness assigns a
    // truth value to each of them (not required for equi-satisfiability, but it makes
    // decoding total).
    let full_chain = Qualifier::path(Path::label_chain("x", max_var as usize));
    let query = Path::Empty.filter(Qualifier::and_all(
        std::iter::once(full_chain).chain(clause_qualifiers),
    ));
    (dtd, query)
}

/// The fixed DTD `D0` of Theorem 6.6(1): `r → x`, `x → (x + ε), (t + f)`.
pub fn fixed_chain_dtd() -> Dtd {
    let mut dtd = Dtd::new("r");
    dtd.define("r", sym("x"));
    dtd.define(
        "x",
        Regex::concat(vec![
            Regex::opt(sym("x")),
            Regex::alt(vec![sym("t"), sym("f")]),
        ]),
    );
    dtd.declare_empty("t");
    dtd.declare_empty("f");
    dtd
}

/// Theorem 6.9(1), Figure 8-style: 3SAT ≤ `SAT(X(∪, [], =))` under a disjunction-free
/// DTD — the truth assignment lives in attributes of a single `x` element.
pub fn threesat_to_disjunction_free_data(formula: &CnfFormula) -> (Dtd, Path) {
    let vars = variables(formula);
    let mut dtd = Dtd::new("r");
    dtd.define("r", sym("x"));
    dtd.declare_empty("x");
    dtd.add_attributes("x", vars.iter().map(|v| format!("x{}", v.0)));

    let truth_assignment = Qualifier::and_all(
        vars.iter()
            .map(|v| Qualifier::Or(Box::new(attr_is(v, "1")), Box::new(attr_is(v, "0")))),
    );
    let clauses = Qualifier::and_all(formula.clauses.iter().map(|clause| {
        Qualifier::or_all(
            clause
                .0
                .iter()
                .map(|lit| attr_is(&lit.var, if lit.negated { "0" } else { "1" })),
        )
    }));
    let query = Path::label("x").filter(Qualifier::And(
        Box::new(truth_assignment),
        Box::new(clauses),
    ));
    (dtd, query)
}

fn attr_is(var: &Var, value: &str) -> Qualifier {
    Qualifier::AttrCmp {
        path: Path::Empty,
        attr: format!("x{}", var.0),
        op: CmpOp::Eq,
        value: value.to_string(),
    }
}

/// Read a truth assignment back from a witness of [`threesat_to_downward_qualifiers`] or
/// [`threesat_to_updown`]: variable `x_j` is true iff its `x_j` element has a `t_j`
/// child.
pub fn decode_assignment(witness: &Document, formula: &CnfFormula) -> BTreeMap<Var, bool> {
    let mut assignment = BTreeMap::new();
    for v in variables(formula) {
        let var_label = format!("x{}", v.0);
        let true_label = format!("t{}", v.0);
        let value = witness.all_nodes().into_iter().any(|n| {
            witness.label(n) == var_label
                && witness
                    .children(n)
                    .iter()
                    .any(|&c| witness.label(c) == true_label)
        });
        assignment.insert(v, value);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Satisfiability;
    use crate::Solver;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xpsat_logic::dpll;

    fn xpath_satisfiable(dtd: &Dtd, query: &Path) -> bool {
        match Solver::default().decide(dtd, query).result {
            Satisfiability::Satisfiable(doc) => {
                crate::sat::verify_witness(&doc, dtd, query).unwrap();
                true
            }
            Satisfiability::Unsatisfiable => false,
            Satisfiability::Unknown => panic!("the positive fragment must be decided"),
        }
    }

    #[test]
    fn downward_qualifier_encoding_matches_dpll() {
        let mut rng = StdRng::seed_from_u64(101);
        for _ in 0..30 {
            let num_vars = rng.gen_range(2..=4);
            let num_clauses = rng.gen_range(1..=6);
            let formula = CnfFormula::random_3sat(&mut rng, num_vars, num_clauses);
            let expected = dpll::satisfiable(&formula);
            let (dtd, query) = threesat_to_downward_qualifiers(&formula);
            assert_eq!(
                xpath_satisfiable(&dtd, &query),
                expected,
                "formula {formula}"
            );
        }
    }

    #[test]
    fn fixed_dtd_union_encoding_matches_dpll() {
        let mut rng = StdRng::seed_from_u64(202);
        for _ in 0..25 {
            let num_vars = rng.gen_range(2..=4);
            let num_clauses = rng.gen_range(1..=5);
            let formula = CnfFormula::random_3sat(&mut rng, num_vars, num_clauses);
            let expected = dpll::satisfiable(&formula);
            let (dtd, query) = threesat_to_fixed_dtd_union(&formula);
            assert_eq!(
                xpath_satisfiable(&dtd, &query),
                expected,
                "formula {formula}"
            );
        }
    }

    #[test]
    fn disjunction_free_data_encoding_matches_dpll() {
        let mut rng = StdRng::seed_from_u64(303);
        for _ in 0..25 {
            let num_vars = rng.gen_range(2..=4);
            let num_clauses = rng.gen_range(1..=5);
            let formula = CnfFormula::random_3sat(&mut rng, num_vars, num_clauses);
            let expected = dpll::satisfiable(&formula);
            let (dtd, query) = threesat_to_disjunction_free_data(&formula);
            assert!(xpsat_dtd::classify(&dtd).disjunction_free);
            assert_eq!(
                xpath_satisfiable(&dtd, &query),
                expected,
                "formula {formula}"
            );
        }
    }

    #[test]
    fn decoded_assignments_satisfy_the_formula() {
        let mut rng = StdRng::seed_from_u64(404);
        for _ in 0..20 {
            let formula = CnfFormula::random_3sat(&mut rng, 3, 4);
            if !dpll::satisfiable(&formula) {
                continue;
            }
            let (dtd, query) = threesat_to_downward_qualifiers(&formula);
            let Satisfiability::Satisfiable(witness) =
                Solver::default().decide(&dtd, &query).result
            else {
                panic!("reduction must be satisfiable for a satisfiable formula");
            };
            let assignment = decode_assignment(&witness, &formula);
            assert!(
                formula.eval(&assignment),
                "decoded assignment must satisfy {formula}"
            );
        }
    }

    #[test]
    fn updown_encoding_round_trips_through_the_solver() {
        // The ↑-weaving query is outside the positive engine; use the full solver (the
        // rewriting path of Theorem 6.8(2)).
        let solver = Solver::default();
        let mut rng = StdRng::seed_from_u64(505);
        for _ in 0..10 {
            let formula = CnfFormula::random_3sat(&mut rng, 3, 3);
            let expected = dpll::satisfiable(&formula);
            let (dtd, query) = threesat_to_updown(&formula);
            let decision = solver.decide(&dtd, &query);
            assert!(
                decision.result.is_definite(),
                "solver must decide the ↑ encoding"
            );
            assert_eq!(
                decision.result.is_satisfiable(),
                Some(expected),
                "formula {formula}"
            );
        }
    }
}
