//! Theorem 6.8(1): under disjunction-free DTDs, `SAT(X(↓, ↓*, ∪, []))` is in PTIME.
//!
//! The key observation of the proof: when no content model contains disjunction, a
//! conjunction of qualifiers is satisfiable at an `A` element iff each conjunct is
//! satisfiable there *independently* — the single forced children word (up to star
//! repetitions, which only add material) can host all witnesses simultaneously.  The
//! algorithm therefore extends the reachability tables of Theorem 4.1 with a boolean
//! `sat(p', A)` table and decomposes conjunctions conjunct-by-conjunct.
//!
//! Both tables are dense: rows indexed by sub-expression position in the ascending
//! closure, columns by interned element [`Sym`]s, with bitset reach rows — the earlier
//! version keyed both tables by `(String, String)` pairs rebuilt with `to_string()` on
//! every lookup.
//!
//! This engine only *decides*; when a witness is needed the solver façade re-runs the
//! (NP, but here equally complete) positive engine, which constructs one.

use crate::sat::SatError;
use std::collections::BTreeMap;
use xpsat_automata::BitSet;
use xpsat_dtd::{CompiledDtd, DtdArtifacts, Sym};
use xpsat_xpath::{closure, Fragment, Path, Qualifier};

const ENGINE: &str = "disjunction-free (Theorem 6.8)";

/// Decide `(query, dtd)` against precompiled artifacts.  Complete for
/// [`Fragment::downward_positive`] under disjunction-free DTDs; other queries and DTDs
/// are rejected.
pub fn decide_with(artifacts: &DtdArtifacts, query: &Path) -> Result<bool, SatError> {
    if !Fragment::downward_positive().permits_path(query) {
        return Err(SatError::UnsupportedFragment {
            engine: ENGINE,
            detail: format!("query {query} uses negation, data values, upward or sibling axes"),
        });
    }
    if !artifacts.class().disjunction_free {
        return Err(SatError::UnsupportedDtd {
            engine: ENGINE,
            detail: "the DTD contains disjunction".to_string(),
        });
    }
    let Some(compiled) = artifacts.compiled() else {
        return Ok(false);
    };
    let tables = Tables::compute(compiled, query);
    Ok(tables.reach_nonempty(query, compiled.root()))
}

/// The `reach` / `sat` tables of the proof, dense over (sub-expression, element type).
struct Tables<'a> {
    compiled: &'a CompiledDtd,
    path_index: BTreeMap<Path, usize>,
    qual_index: BTreeMap<Qualifier, usize>,
    /// `reach[i][a]`: types reachable from `a` via the `i`-th closure sub-path.
    /// Rows are appended in ascending closure order, so sub-results exist when needed.
    reach: Vec<Vec<BitSet>>,
    /// `sat_qual[j][a]`: does the `j`-th closure sub-qualifier hold at an `a` node?
    sat_qual: Vec<Vec<bool>>,
}

impl<'a> Tables<'a> {
    fn compute(compiled: &'a CompiledDtd, query: &Path) -> Tables<'a> {
        let sub_paths = closure::sub_paths_ascending(query);
        let sub_quals = closure::sub_qualifiers_ascending(query);
        let mut tables = Tables {
            compiled,
            path_index: sub_paths
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i))
                .collect(),
            qual_index: sub_quals
                .iter()
                .enumerate()
                .map(|(j, q)| (q.clone(), j))
                .collect(),
            reach: Vec::with_capacity(sub_paths.len()),
            sat_qual: Vec::with_capacity(sub_quals.len()),
        };
        // Fill tables bottom-up over the sub-expression closure: ascending order
        // guarantees every proper sub-expression's row exists before it is consulted.
        let n = compiled.num_elements();
        for sub in &sub_paths {
            let row: Vec<BitSet> = (0..n)
                .map(|a| tables.compute_reach(sub, Sym::from_index(a)))
                .collect();
            tables.reach.push(row);
        }
        for qual in &sub_quals {
            let row: Vec<bool> = (0..n)
                .map(|a| tables.sat_of_qual(qual, Sym::from_index(a)))
                .collect();
            tables.sat_qual.push(row);
        }
        tables
    }

    /// `sat(p', A)`: is `p'` satisfiable at an `A` element?
    fn reach_nonempty(&self, p: &Path, a: Sym) -> bool {
        match self.path_index.get(p) {
            Some(&i) if i < self.reach.len() => !self.reach[i][a.index()].is_empty(),
            _ => !self.compute_reach(p, a).is_empty(),
        }
    }

    /// `reach(p', A)`, served from the dense table when the row is already filled.
    fn reach_of(&self, p: &Path, a: Sym) -> BitSet {
        match self.path_index.get(p) {
            Some(&i) if i < self.reach.len() => self.reach[i][a.index()].clone(),
            _ => self.compute_reach(p, a),
        }
    }

    fn compute_reach(&self, p: &Path, a: Sym) -> BitSet {
        let graph = self.compiled.graph();
        match p {
            Path::Empty => [a.index()].into_iter().collect(),
            Path::Label(l) => match self.compiled.elem_sym(l) {
                Some(target) if graph.has_edge(a, target) => [target.index()].into_iter().collect(),
                _ => BitSet::new(),
            },
            Path::Wildcard => graph.succ_bits(a).clone(),
            Path::DescendantOrSelf => {
                let mut s = graph.reach_bits(a).clone();
                s.insert(a.index());
                s
            }
            Path::Union(p1, p2) => {
                let mut s = self.reach_of(p1, a);
                s.union_with(&self.reach_of(p2, a));
                s
            }
            Path::Seq(p1, p2) => {
                let mut s = BitSet::new();
                for b in self.reach_of(p1, a).iter() {
                    s.union_with(&self.reach_of(p2, Sym::from_index(b)));
                }
                s
            }
            Path::Filter(p1, q) => self
                .reach_of(p1, a)
                .iter()
                .filter(|&b| self.qual_holds(q, Sym::from_index(b)))
                .collect(),
            _ => BitSet::new(),
        }
    }

    fn qual_holds(&self, q: &Qualifier, a: Sym) -> bool {
        match self.qual_index.get(q) {
            Some(&j) if j < self.sat_qual.len() => self.sat_qual[j][a.index()],
            _ => self.sat_of_qual(q, a),
        }
    }

    /// `sat([q], A)`: under disjunction-free DTDs, conjunctions decompose independently.
    fn sat_of_qual(&self, q: &Qualifier, a: Sym) -> bool {
        match q {
            Qualifier::Path(p) => self.reach_nonempty(p, a),
            Qualifier::LabelIs(l) => self.compiled.elem_sym(l) == Some(a),
            Qualifier::And(q1, q2) => self.qual_holds(q1, a) && self.qual_holds(q2, a),
            Qualifier::Or(q1, q2) => self.qual_holds(q1, a) || self.qual_holds(q2, a),
            // Data values and negation are outside the fragment; treat
            // defensively as unsatisfiable.
            _ => {
                debug_assert!(false, "unsupported qualifier reached the djfree engine");
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    fn artifacts(text: &str) -> DtdArtifacts {
        DtdArtifacts::build(&parse_dtd(text).unwrap())
    }

    fn decide(artifacts: &DtdArtifacts, query: &str) -> Result<bool, SatError> {
        decide_with(artifacts, &parse_path(query).unwrap())
    }

    #[test]
    fn conjunctions_decompose_under_disjunction_free_dtds() {
        // Disjunction-free: every book has both a title and an author list.
        let dtd = artifacts("r -> book*; book -> title, author+; title -> #; author -> #;");
        assert!(decide(&dtd, "book[title and author]").unwrap());
        assert!(decide(&dtd, "book[title][author]").unwrap());
        assert!(!decide(&dtd, "book[title and price]").unwrap());
        assert!(!decide(&dtd, "book/title/author").unwrap());
    }

    #[test]
    fn label_tests_and_descendants() {
        let dtd = artifacts("r -> a; a -> b*; b -> c; c -> #;");
        assert!(decide(&dtd, "**[lab() = c]").unwrap());
        assert!(!decide(&dtd, "**[lab() = z]").unwrap());
        assert!(decide(&dtd, "a[b/c]").unwrap());
    }

    #[test]
    fn artifacts_can_be_reused_across_queries() {
        let dtd = artifacts("r -> a; a -> b*; b -> c; c -> #;");
        assert!(decide(&dtd, "a[b/c]").unwrap());
        assert!(!decide(&dtd, "a[c]").unwrap());
    }

    #[test]
    fn dtds_with_disjunction_are_rejected() {
        let dtd = artifacts("r -> a | b; a -> #; b -> #;");
        assert!(matches!(
            decide(&dtd, "a[b]"),
            Err(SatError::UnsupportedDtd { .. })
        ));
    }

    #[test]
    fn queries_with_negation_are_rejected() {
        let dtd = artifacts("r -> a; a -> #;");
        assert!(matches!(
            decide(&dtd, "a[not(b)]"),
            Err(SatError::UnsupportedFragment { .. })
        ));
    }
}
