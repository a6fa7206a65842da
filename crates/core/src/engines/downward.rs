//! Theorem 4.1: `SAT(X(↓, ↓*, ∪))` is in PTIME.
//!
//! The algorithm is the dynamic program from the paper's proof: for every sub-query `p'`
//! (in ascending order) and element type `A`, compute `reach(p', A)` — the element types
//! reachable from an `A` node via `p'` in the DTD graph.  The instance is satisfiable
//! iff `reach(p, r)` is nonempty.  A witness is obtained by realising one reachability
//! chain in the DTD graph and expanding it to a conforming document (the `Tree(p, D)`
//! construction of the proof).
//!
//! Element types are interned [`Sym`]s and the `reach` table is a dense matrix of bitset
//! rows (`table[sub-query][type]`), filled from the precomputed reachability closure of
//! the [`DtdArtifacts`] — no per-call graph construction or string keying.

use crate::sat::{SatError, Satisfiability};
use std::collections::BTreeMap;
use xpsat_automata::BitSet;
use xpsat_dtd::{CompiledDtd, DtdArtifacts, Sym};
use xpsat_xpath::{closure, Fragment, Path};

const ENGINE: &str = "downward (Theorem 4.1)";

/// Decide `(query, dtd)` against precompiled artifacts; complete exactly for
/// [`Fragment::downward_no_qualifiers`], and queries outside it are rejected.
pub fn decide_with(artifacts: &DtdArtifacts, query: &Path) -> Result<Satisfiability, SatError> {
    if !Fragment::downward_no_qualifiers().permits_path(query) {
        return Err(SatError::UnsupportedFragment {
            engine: ENGINE,
            detail: format!("query {query} uses operators outside X(child, desc, union)"),
        });
    }
    let Some(compiled) = artifacts.compiled() else {
        return Ok(Satisfiability::Unsatisfiable);
    };
    let graph = compiled.graph();
    let n = compiled.num_elements();
    let subqueries = closure::sub_paths_ascending(query);

    // reach[subquery index][type] = element types reachable via the subquery.
    let index_of: BTreeMap<&Path, usize> =
        subqueries.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut reach: Vec<Vec<BitSet>> = vec![vec![BitSet::new(); n]; subqueries.len()];

    for (i, sub) in subqueries.iter().enumerate() {
        for a_index in 0..n {
            let a = Sym::from_index(a_index);
            let set = match sub {
                Path::Empty => [a_index].into_iter().collect(),
                Path::Label(l) => match compiled.elem_sym(l) {
                    Some(target) if graph.has_edge(a, target) => {
                        [target.index()].into_iter().collect()
                    }
                    _ => BitSet::new(),
                },
                Path::Wildcard => graph.succ_bits(a).clone(),
                Path::DescendantOrSelf => {
                    let mut s = graph.reach_bits(a).clone();
                    s.insert(a_index);
                    s
                }
                Path::Union(p1, p2) => {
                    let mut s = lookup(&reach, &index_of, p1, a).clone();
                    s.union_with(lookup(&reach, &index_of, p2, a));
                    s
                }
                Path::Seq(p1, p2) => {
                    let mut s = BitSet::new();
                    for b in lookup(&reach, &index_of, p1, a).iter() {
                        s.union_with(lookup(&reach, &index_of, p2, Sym::from_index(b)));
                    }
                    s
                }
                other => {
                    return Err(SatError::UnsupportedFragment {
                        engine: ENGINE,
                        detail: format!("unexpected sub-expression {other}"),
                    })
                }
            };
            reach[i][a_index] = set;
        }
    }

    let root = compiled.root();
    let root_reach = lookup(&reach, &index_of, query, root);
    let Some(target) = root_reach.iter().next().map(Sym::from_index) else {
        return Ok(Satisfiability::Unsatisfiable);
    };

    // Witness: realise a chain of element types from the root to `target` and expand it
    // into a conforming document.
    let chain = realize_chain(query, root, target, &reach, &index_of, compiled)
        .expect("reachability table promised a chain");
    let doc = crate::witness::materialize_chain_compiled(compiled, &chain)
        .expect("chain uses terminating types only");
    Ok(Satisfiability::Satisfiable(doc))
}

fn lookup<'t>(
    reach: &'t [Vec<BitSet>],
    index_of: &BTreeMap<&Path, usize>,
    sub: &Path,
    a: Sym,
) -> &'t BitSet {
    static EMPTY: BitSet = BitSet::new();
    index_of
        .get(sub)
        .map(|&i| &reach[i][a.index()])
        .unwrap_or(&EMPTY)
}

/// The `path(p', A, B)` construction of the proof: a chain of element types (excluding
/// `A`, ending at `B`) realising `p'` in the DTD graph.
fn realize_chain(
    sub: &Path,
    from: Sym,
    to: Sym,
    reach: &[Vec<BitSet>],
    index_of: &BTreeMap<&Path, usize>,
    compiled: &CompiledDtd,
) -> Option<Vec<Sym>> {
    if !lookup(reach, index_of, sub, from).contains(to.index()) {
        return None;
    }
    let graph = compiled.graph();
    match sub {
        Path::Empty => Some(Vec::new()),
        Path::Label(_) | Path::Wildcard => Some(vec![to]),
        Path::DescendantOrSelf => {
            if from == to {
                return Some(Vec::new());
            }
            // Shortest path from `from` to `to` in the DTD graph (BFS).
            let mut pred: BTreeMap<Sym, Sym> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(from);
            while let Some(cur) = queue.pop_front() {
                for &succ in graph.succ_syms(cur) {
                    if succ != from && !pred.contains_key(&succ) {
                        pred.insert(succ, cur);
                        queue.push_back(succ);
                    }
                }
            }
            let mut chain = vec![to];
            let mut cur = to;
            while let Some(&prev) = pred.get(&cur) {
                if prev == from {
                    break;
                }
                chain.push(prev);
                cur = prev;
            }
            chain.reverse();
            Some(chain)
        }
        Path::Union(p1, p2) => realize_chain(p1, from, to, reach, index_of, compiled)
            .or_else(|| realize_chain(p2, from, to, reach, index_of, compiled)),
        Path::Seq(p1, p2) => {
            for mid in lookup(reach, index_of, p1, from)
                .iter()
                .map(Sym::from_index)
            {
                if lookup(reach, index_of, p2, mid).contains(to.index()) {
                    let mut chain = realize_chain(p1, from, mid, reach, index_of, compiled)?;
                    chain.extend(realize_chain(p2, mid, to, reach, index_of, compiled)?);
                    return Some(chain);
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::verify_witness;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    fn check(dtd_text: &str, query_text: &str, expected: bool) {
        let dtd = parse_dtd(dtd_text).unwrap();
        let query = parse_path(query_text).unwrap();
        match decide_with(&DtdArtifacts::build(&dtd), &query).unwrap() {
            Satisfiability::Satisfiable(doc) => {
                assert!(
                    expected,
                    "{query_text} should be unsatisfiable under {dtd_text}"
                );
                verify_witness(&doc, &dtd, &query).unwrap();
            }
            Satisfiability::Unsatisfiable => {
                assert!(
                    !expected,
                    "{query_text} should be satisfiable under {dtd_text}"
                )
            }
            Satisfiability::Unknown => panic!("PTIME engine must be definite"),
        }
    }

    #[test]
    fn example_2_3_unsatisfiable_label() {
        check("r -> a*; a -> #;", "b", false);
        check("r -> a*; a -> #;", "a", true);
    }

    #[test]
    fn descendants_and_unions() {
        let dtd = "r -> a; a -> b?; b -> c*; c -> #;";
        check(dtd, "**/c", true);
        check(dtd, "**/c/b", false);
        check(dtd, "a/b | a/c", true);
        check(dtd, "a/c", false);
        check(dtd, "a/*/c", true);
        check(dtd, "*/*/*/*", false);
    }

    #[test]
    fn nonterminating_types_are_ignored() {
        // b never terminates, so a query reaching b is unsatisfiable even though the
        // DTD graph has an edge to it.
        check("r -> a | b; a -> #; b -> b;", "b", false);
        check("r -> a | b; a -> #; b -> b;", "a", true);
    }

    #[test]
    fn recursive_dtd_deep_reachability() {
        check("r -> c; c -> (c, x) | #; x -> #;", "c/c/c/x", true);
        check("r -> c; c -> (c, x) | #; x -> #;", "x", false);
        check("r -> c; c -> (c, x) | #; x -> #;", "**/x", true);
    }

    #[test]
    fn artifacts_can_be_reused_across_queries() {
        let dtd = parse_dtd("r -> a; a -> b?; b -> c*; c -> #;").unwrap();
        let artifacts = DtdArtifacts::build(&dtd);
        for (q, expected) in [("**/c", true), ("a/c", false), ("a/b | a/c", true)] {
            let verdict = decide_with(&artifacts, &parse_path(q).unwrap()).unwrap();
            assert_eq!(
                matches!(verdict, Satisfiability::Satisfiable(_)),
                expected,
                "{q}"
            );
        }
    }

    #[test]
    fn unsupported_fragment_is_rejected() {
        let artifacts = DtdArtifacts::build(&parse_dtd("r -> a;").unwrap());
        assert!(decide_with(&artifacts, &parse_path("a[b]").unwrap()).is_err());
        assert!(decide_with(&artifacts, &parse_path("a/..").unwrap()).is_err());
    }
}
