//! Reductions *between problems* (Section 3 and Proposition 6.1).
//!
//! * [`no_dtd_instances`] — Proposition 3.1: satisfiability in the absence of DTDs
//!   reduces to `SAT` under the universal DTD `D_p`, trying each element type as root;
//! * [`normalize_instance`] — Proposition 3.3: `(p, D)` and `(f(p), N(D))` are
//!   equi-satisfiable, where `N(D)` is the normalized DTD and `f(p)` rewrites the query
//!   to skip the freshly introduced element types;
//! * [`eliminate_recursion_for`] — Proposition 6.1: under a nonrecursive DTD, `↓*`/`↑*`
//!   can be replaced by bounded unions of `↓`/`↑` chains.

use xpsat_dtd::{classify, normalize, universal_dtd, Dtd, Normalization};
use xpsat_xpath::{Path, Qualifier};

/// Proposition 3.1: the DTD-free satisfiability problem for `p` is equivalent to the
/// disjunction of `SAT(p, D_p)` over the possible root types of the universal DTD `D_p`.
///
/// Returns one `(D_p rooted at A, p)` instance per candidate root type `A`.
pub fn no_dtd_instances(query: &Path) -> Vec<(Dtd, Path)> {
    let mut labels = query.mentioned_labels();
    labels.push(xpsat_dtd::universal::EXTRA_LABEL.to_string());
    labels.sort();
    labels.dedup();
    let attributes = query.mentioned_attributes();
    labels
        .iter()
        .map(|root| {
            (
                universal_dtd(labels.iter().cloned(), attributes.iter().cloned(), root),
                query.clone(),
            )
        })
        .collect()
}

/// Proposition 3.3: normalise the DTD and rewrite the query so that the rewritten query
/// "skips" the new element types.  `(p, D)` is satisfiable iff `(f(p), N(D))` is.
pub fn normalize_instance(dtd: &Dtd, query: &Path) -> (Normalization, Path) {
    let norm = normalize(dtd);
    let rewritten = rewrite_query(&norm, query);
    (norm, rewritten)
}

/// Proposition 6.1: under a nonrecursive DTD, replace the recursive axes by bounded
/// chains.  Returns `None` when the DTD is recursive (the rewriting would be unsound).
pub fn eliminate_recursion_for(dtd: &Dtd, query: &Path) -> Option<Path> {
    let class = classify(dtd);
    eliminate_recursion_with(class.depth_bound, query)
}

/// [`eliminate_recursion_for`] given an already-known depth bound (from precomputed
/// [`xpsat_dtd::DtdArtifacts`]), so the caller does not re-classify the DTD per query.
pub fn eliminate_recursion_with(depth_bound: Option<usize>, query: &Path) -> Option<Path> {
    let bound = depth_bound?;
    Some(xpsat_xpath::rewrite::eliminate_recursion(query, bound))
}

/// The `∇` expression of Proposition 3.3: all downward chains through freshly introduced
/// element types (including the empty chain).
fn nabla_chains(norm: &Normalization) -> Vec<Vec<String>> {
    // Enumerate chains of new types; the new types form a DAG by construction.
    let mut chains = vec![Vec::new()];
    let mut frontier: Vec<Vec<String>> = norm.new_types.iter().map(|t| vec![t.clone()]).collect();
    while let Some(chain) = frontier.pop() {
        chains.push(chain.clone());
        let last = chain.last().expect("nonempty chain");
        if let Some(content) = norm.dtd.content(last) {
            for sym in content.symbols() {
                if norm.is_new(&sym) {
                    let mut next = chain.clone();
                    next.push(sym);
                    frontier.push(next);
                }
            }
        }
    }
    chains
}

fn chain_to_path(chain: &[String]) -> Path {
    Path::seq_all(chain.iter().map(|c| Path::label(c.clone())))
}

fn chain_to_upward_path(chain: &[String]) -> Path {
    // Climb back up through the chain, checking each label on the way.
    let mut steps = Vec::new();
    for label in chain.iter().rev() {
        steps.push(Path::seq(
            Path::Empty.filter(Qualifier::LabelIs(label.clone())),
            Path::Parent,
        ));
    }
    Path::seq_all(steps)
}

/// `f(p)`: rewrite a query against `D` into an equivalent (for satisfiability) query
/// against `N(D)` that skips the fresh element types.
pub fn rewrite_query(norm: &Normalization, query: &Path) -> Path {
    let chains = nabla_chains(norm);
    let originals: Vec<String> = norm
        .dtd
        .element_names()
        .into_iter()
        .filter(|n| !norm.is_new(n))
        .collect();
    rewrite_path(query, &chains, &originals)
}

fn rewrite_path(p: &Path, chains: &[Vec<String>], originals: &[String]) -> Path {
    let nabla = |target: Path| -> Path {
        Path::union_all(
            chains
                .iter()
                .map(|chain| Path::seq(chain_to_path(chain), target.clone())),
        )
    };
    match p {
        Path::Empty => Path::Empty,
        // (b) f(A) = ∇/A
        Path::Label(l) => nabla(Path::label(l.clone())),
        // (c) f(↓) = ⋃_A ∇/A
        Path::Wildcard => Path::union_all(originals.iter().map(|a| nabla(Path::label(a.clone())))),
        // (d) f(↓*) = ε ∪ ⋃_A ↓*/A
        Path::DescendantOrSelf => Path::union_all(
            std::iter::once(Path::Empty).chain(
                originals
                    .iter()
                    .map(|a| Path::seq(Path::DescendantOrSelf, Path::label(a.clone()))),
            ),
        ),
        // (e) f(↑) = ↑ through the new-type chains
        Path::Parent => Path::union_all(
            chains
                .iter()
                .map(|chain| Path::seq(Path::Parent, chain_to_upward_path(chain))),
        ),
        // (f) f(↑*) = ε ∪ ⋃_A ↑*[lab() = A]
        Path::AncestorOrSelf => Path::union_all(
            std::iter::once(Path::Empty).chain(
                originals
                    .iter()
                    .map(|a| Path::AncestorOrSelf.filter(Qualifier::LabelIs(a.clone()))),
            ),
        ),
        Path::Seq(a, b) => Path::seq(
            rewrite_path(a, chains, originals),
            rewrite_path(b, chains, originals),
        ),
        Path::Union(a, b) => Path::union(
            rewrite_path(a, chains, originals),
            rewrite_path(b, chains, originals),
        ),
        Path::Filter(a, q) => Path::Filter(
            Box::new(rewrite_path(a, chains, originals)),
            Box::new(rewrite_qualifier(q, chains, originals)),
        ),
        // Sibling axes are not covered by Proposition 3.3 (the paper's rewriting is for
        // the vertical fragments); leave them unchanged.
        other => other.clone(),
    }
}

fn rewrite_qualifier(q: &Qualifier, chains: &[Vec<String>], originals: &[String]) -> Qualifier {
    match q {
        Qualifier::Path(p) => Qualifier::Path(rewrite_path(p, chains, originals)),
        Qualifier::LabelIs(l) => Qualifier::LabelIs(l.clone()),
        Qualifier::AttrCmp {
            path,
            attr,
            op,
            value,
        } => Qualifier::AttrCmp {
            path: rewrite_path(path, chains, originals),
            attr: attr.clone(),
            op: *op,
            value: value.clone(),
        },
        Qualifier::AttrJoin {
            left,
            left_attr,
            op,
            right,
            right_attr,
        } => Qualifier::AttrJoin {
            left: rewrite_path(left, chains, originals),
            left_attr: left_attr.clone(),
            op: *op,
            right: rewrite_path(right, chains, originals),
            right_attr: right_attr.clone(),
        },
        Qualifier::And(a, b) => Qualifier::And(
            Box::new(rewrite_qualifier(a, chains, originals)),
            Box::new(rewrite_qualifier(b, chains, originals)),
        ),
        Qualifier::Or(a, b) => Qualifier::Or(
            Box::new(rewrite_qualifier(a, chains, originals)),
            Box::new(rewrite_qualifier(b, chains, originals)),
        ),
        Qualifier::Not(inner) => {
            Qualifier::Not(Box::new(rewrite_qualifier(inner, chains, originals)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Satisfiability;
    use crate::Solver;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    #[test]
    fn no_dtd_reduction_matches_direct_algorithm() {
        for (query_text, expected) in [
            ("a/b[c]", true),
            (".[lab() = a and lab() = b]", false),
            ("a[lab() = a]/b", true),
        ] {
            let query = parse_path(query_text).unwrap();
            let direct = crate::engines::nodtd::decide(&query).unwrap();
            assert_eq!(direct, expected, "direct algorithm on {query_text}");
            let via_universal = no_dtd_instances(&query).into_iter().any(|(dtd, q)| {
                matches!(
                    Solver::default().decide(&dtd, &q).result,
                    Satisfiability::Satisfiable(_)
                )
            });
            assert_eq!(
                via_universal, expected,
                "universal-DTD reduction on {query_text}"
            );
        }
    }

    #[test]
    fn normalization_preserves_satisfiability() {
        let dtd = parse_dtd("r -> (a | b)*, c; a -> (d, d) | #; b -> #; c -> #; d -> #;").unwrap();
        for (query_text, expected) in [
            ("c", true),
            ("a/d", true),
            ("a/c", false),
            (".[a and b and c]", true),
            ("**/d", true),
        ] {
            let query = parse_path(query_text).unwrap();
            let direct = Solver::default().decide(&dtd, &query).result;
            assert_eq!(
                direct.is_satisfiable(),
                Some(expected),
                "direct on {query_text}"
            );
            let (norm, rewritten) = normalize_instance(&dtd, &query);
            let normalized = Solver::default().decide(&norm.dtd, &rewritten).result;
            assert_eq!(
                normalized.is_satisfiable(),
                Some(expected),
                "normalized instance on {query_text}: rewritten = {rewritten}"
            );
        }
    }

    #[test]
    fn recursion_elimination_requires_nonrecursive_dtds() {
        let recursive = parse_dtd("r -> c; c -> c | #;").unwrap();
        assert!(eliminate_recursion_for(&recursive, &parse_path("**/c").unwrap()).is_none());
        let flat = parse_dtd("r -> a; a -> b; b -> #;").unwrap();
        let rewritten = eliminate_recursion_for(&flat, &parse_path("**/b").unwrap()).unwrap();
        assert!(!xpsat_xpath::Features::of_path(&rewritten).descendant);
    }
}
