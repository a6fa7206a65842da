//! Theorem 6.11(1): in the absence of DTDs, `SAT(X(↓, ↓*, ∪, []))` is in PTIME (and
//! every query of the fragment *without label tests* is satisfiable).
//!
//! The algorithm is the `sat`/`reach` dynamic program from the proof: the element-type
//! universe is the set of labels mentioned in the query plus one fresh label, every
//! label can have children of every label (no DTD constrains them), and the only way a
//! query can fail is through conflicting label tests.
//!
//! A witness is produced by delegating to the positive engine under the universal DTD of
//! Proposition 3.1, which is how the solver façade exposes the no-DTD problem anyway.

use crate::budget::BudgetMeter;
use crate::sat::{SatError, Satisfiability};
use std::collections::{BTreeMap, BTreeSet};
use xpsat_dtd::DtdArtifacts;
use xpsat_xpath::{closure, Fragment, Path, Qualifier};

const ENGINE: &str = "no-DTD (Theorem 6.11)";

/// Decide satisfiability of `query` in the absence of any DTD; queries outside
/// [`Fragment::downward_positive`] are rejected.
pub fn decide(query: &Path) -> Result<bool, SatError> {
    if !Fragment::downward_positive().permits_path(query) {
        return Err(SatError::UnsupportedFragment {
            engine: ENGINE,
            detail: format!("query {query} is outside X(child, desc, union, qualifiers)"),
        });
    }
    // The element-type universe: labels of the query plus a fresh one.
    let mut labels: BTreeSet<String> = query.mentioned_labels().into_iter().collect();
    labels.insert("_any".to_string());
    let labels: Vec<String> = labels.into_iter().collect();

    let mut tables = Tables {
        labels: labels.clone(),
        sat: BTreeMap::new(),
    };
    for sub in closure::sub_paths_ascending(query) {
        for a in &labels {
            let value = tables.sat_path(&sub, a);
            tables.sat.insert((sub.to_string(), a.clone()), value);
        }
    }
    Ok(labels.iter().any(|a| tables.sat_path(query, a)))
}

/// A convenience wrapper that also produces a witness (via the universal DTD of
/// Proposition 3.1 and the positive engine).
pub fn decide_with_witness(query: &Path) -> Result<Satisfiability, SatError> {
    if !decide(query)? {
        return Ok(Satisfiability::Unsatisfiable);
    }
    crate::transform::no_dtd_instances(query)
        .into_iter()
        .find_map(|(dtd, q)| {
            let artifacts = DtdArtifacts::build(&dtd);
            match crate::engines::positive::decide_with_budget(
                &artifacts,
                &q,
                &BudgetMeter::unlimited(),
            ) {
                Ok(Ok(sat @ Satisfiability::Satisfiable(_))) => Some(sat),
                _ => None,
            }
        })
        .ok_or(SatError::BudgetExceeded { engine: ENGINE })
}

struct Tables {
    labels: Vec<String>,
    sat: BTreeMap<(String, String), bool>,
}

impl Tables {
    fn sat_path(&self, p: &Path, a: &str) -> bool {
        if let Some(&cached) = self.sat.get(&(p.to_string(), a.to_string())) {
            return cached;
        }
        match p {
            // Without a DTD every label can have children of every label.
            Path::Empty | Path::Label(_) | Path::Wildcard | Path::DescendantOrSelf => true,
            Path::Seq(p1, p2) => match &**p1 {
                // The label reached by the first step determines where the rest starts:
                // a label step fixes it, every other downward step leaves it free.
                Path::Label(l) => self.sat_path(p1, a) && self.sat_path(p2, l),
                Path::Filter(inner, q) => {
                    // (inner[q])/p2 : the qualifier and the continuation apply at the
                    // same node; decompose through the label the node may take.
                    self.labels.iter().any(|b| {
                        self.reaches_label(inner, a, b)
                            && self.sat_qual(q, b)
                            && self.sat_path(p2, b)
                    })
                }
                _ => {
                    self.sat_path(p1, a)
                        && self
                            .labels
                            .iter()
                            .any(|b| self.reaches_label(p1, a, b) && self.sat_path(p2, b))
                }
            },
            Path::Union(p1, p2) => self.sat_path(p1, a) || self.sat_path(p2, a),
            Path::Filter(p1, q) => self
                .labels
                .iter()
                .any(|b| self.reaches_label(p1, a, b) && self.sat_qual(q, b)),
            _ => false,
        }
    }

    /// Can `p` started at an `a`-labelled node end at a `b`-labelled node (in some tree)?
    fn reaches_label(&self, p: &Path, a: &str, b: &str) -> bool {
        match p {
            Path::Empty => a == b,
            Path::Label(l) => l == b,
            // ↓ reaches any label (a child may take any label without a DTD), and ↓*
            // reaches any label too (by descending) on top of staying at `a`.
            Path::Wildcard | Path::DescendantOrSelf => true,
            Path::Seq(p1, p2) => self
                .labels
                .iter()
                .any(|c| self.reaches_label(p1, a, c) && self.reaches_label(p2, c, b)),
            Path::Union(p1, p2) => self.reaches_label(p1, a, b) || self.reaches_label(p2, a, b),
            Path::Filter(p1, q) => self.reaches_label(p1, a, b) && self.sat_qual(q, b),
            _ => false,
        }
    }

    fn sat_qual(&self, q: &Qualifier, a: &str) -> bool {
        match q {
            Qualifier::Path(p) => self.sat_path(p, a),
            Qualifier::LabelIs(l) => l == a,
            Qualifier::And(q1, q2) => self.sat_qual(q1, a) && self.sat_qual(q2, a),
            Qualifier::Or(q1, q2) => self.sat_qual(q1, a) || self.sat_qual(q2, a),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_xpath::parse_path;

    #[test]
    fn label_test_free_queries_are_always_satisfiable() {
        for q in ["a/b/c", "**/x[y and z]", "a[b]/c | d", "*/*[*/*]"] {
            assert!(decide(&parse_path(q).unwrap()).unwrap(), "query {q}");
        }
    }

    #[test]
    fn conflicting_label_tests_are_unsatisfiable() {
        assert!(!decide(&parse_path(".[lab() = a and lab() = b]").unwrap()).unwrap());
        assert!(!decide(&parse_path("x[lab() = y]").unwrap()).unwrap());
        assert!(decide(&parse_path("x[lab() = x]").unwrap()).unwrap());
        assert!(decide(&parse_path(".[lab() = a or lab() = b]").unwrap()).unwrap());
        assert!(!decide(&parse_path("a/.[lab() = a and lab() = b]/c").unwrap()).unwrap());
    }

    #[test]
    fn conjunction_of_compatible_branches_is_satisfiable() {
        assert!(decide(&parse_path(".[a[lab() = a] and b[lab() = b]]").unwrap()).unwrap());
        assert!(!decide(&parse_path("a[lab() = a and lab() = b]").unwrap()).unwrap());
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        assert!(decide(&parse_path("a[not(b)]").unwrap()).is_err());
        assert!(decide(&parse_path("a/..").unwrap()).is_err());
    }
}
