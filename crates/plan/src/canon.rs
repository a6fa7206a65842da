//! Structural canonicalisation of parsed XPath queries.
//!
//! Two spellings that differ only by associativity, qualifier order, duplicate union
//! branches, filter placement along a composition, or trivially-true filters denote the
//! same node relation.  [`canonicalize`] maps every member of such an equivalence class
//! to one representative, so caches can key on the class instead of the spelling:
//!
//! * compositions are flattened, `ε` steps dropped, and rebuilt right-associated;
//! * union branches are canonicalised, sorted and deduplicated;
//! * `p[q1][q2]` becomes `p[q1 and q2]`, and a filter over a composition attaches to
//!   the last step (`(a/b)[q]` ≡ `a/(b[q])`);
//! * conjunctions and disjunctions are flattened, sorted and deduplicated, `not(not q)`
//!   collapses, disjunctions of path qualifiers merge into one union qualifier, and
//!   trivially-true conjuncts (`[.]`, `[descendant-or-self]`, …) are dropped.
//!
//! Two hashes come out of the canonical form: [`canonical_hash`] (FNV-1a of the
//! canonical text — the cross-tenant cache key) and [`structural_hash`], which erases
//! labels and combines commutative children order-insensitively, so queries that are
//! isomorphic up to step labels collide intentionally (the dedup-opportunity signal
//! reported by `classify`).

use xpsat_xpath::{CmpOp, Path, Qualifier};

/// A query together with its canonical form and both hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// The canonical representative of the query's equivalence class.
    pub path: Path,
    /// Display rendering of the canonical form (the text hashed by `canonical_hash`).
    pub text: String,
    /// FNV-1a of `text`: equal exactly when the canonical forms are equal.
    pub canonical_hash: u64,
    /// Label-erased, commutativity-insensitive hash of the canonical form.
    pub structural_hash: u64,
}

impl CanonicalQuery {
    /// Canonicalise `path` and compute both hashes.
    pub fn of(path: &Path) -> CanonicalQuery {
        let canon = canonicalize(path);
        let text = canon.to_string();
        let canonical_hash = fnv64(text.as_bytes());
        let structural_hash = structural_hash(&canon);
        CanonicalQuery {
            path: canon,
            text,
            canonical_hash,
            structural_hash,
        }
    }
}

/// Rewrite `path` to the canonical representative of its equivalence class.
pub fn canonicalize(path: &Path) -> Path {
    let mut atoms = Vec::new();
    push_canon(path, &mut atoms);
    rebuild_seq(atoms)
}

/// FNV-1a-64 over `bytes`: the canonical-text hash, and also the artifact store's
/// file key and entry checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is `p` trivially nonempty from *every* context node of *every* document?  Only such
/// paths may be dropped as filter conjuncts.  Conservative: `false` means "don't know".
pub fn path_is_trivial(p: &Path) -> bool {
    match p {
        Path::Empty
        | Path::DescendantOrSelf
        | Path::AncestorOrSelf
        | Path::FollowingSiblingOrSelf
        | Path::PrecedingSiblingOrSelf => true,
        Path::Seq(a, b) => path_is_trivial(a) && path_is_trivial(b),
        Path::Union(a, b) => path_is_trivial(a) || path_is_trivial(b),
        Path::Filter(p, q) => path_is_trivial(p) && qual_is_trivial(q),
        _ => false,
    }
}

/// Is `q` trivially true at every node?  Conservative companion of [`path_is_trivial`].
pub fn qual_is_trivial(q: &Qualifier) -> bool {
    match q {
        Qualifier::Path(p) => path_is_trivial(p),
        Qualifier::And(a, b) => qual_is_trivial(a) && qual_is_trivial(b),
        Qualifier::Or(a, b) => qual_is_trivial(a) || qual_is_trivial(b),
        _ => false,
    }
}

/// Append the canonical atoms of `path` (non-`Seq`, non-`Empty` steps) to `out`.
fn push_canon(path: &Path, out: &mut Vec<Path>) {
    match path {
        Path::Empty => {}
        Path::Seq(a, b) => {
            push_canon(a, out);
            push_canon(b, out);
        }
        Path::Union(_, _) => {
            let mut branches = Vec::new();
            collect_union(path, &mut branches);
            let mut canon: Vec<Path> = Vec::new();
            for b in branches {
                // Canonicalising a branch can surface a new top-level union (e.g. from
                // `ε/(a|b)`); splice such branches back in rather than nesting them.
                let cb = canonicalize(b);
                if matches!(cb, Path::Union(_, _)) {
                    collect_union_owned(cb, &mut canon);
                } else {
                    canon.push(cb);
                }
            }
            canon.sort();
            canon.dedup();
            if canon.len() == 1 {
                push_canon(&canon.pop().unwrap(), out);
            } else {
                out.push(rebuild_union(canon));
            }
        }
        Path::Filter(p, q) => {
            push_canon(p, out);
            let mut conjs = canon_conjuncts(q);
            if conjs.is_empty() {
                return; // trivially-true filter
            }
            // Attach the filter to the last step of the flattened composition, merging
            // with a filter already sitting there.
            match out.pop() {
                None => out.push(Path::Filter(
                    Box::new(Path::Empty),
                    Box::new(rebuild_and(conjs)),
                )),
                Some(Path::Filter(base, q0)) => {
                    collect_and_owned(*q0, &mut conjs);
                    conjs.sort();
                    conjs.dedup();
                    out.push(Path::Filter(base, Box::new(rebuild_and(conjs))));
                }
                Some(atom) => out.push(Path::Filter(Box::new(atom), Box::new(rebuild_and(conjs)))),
            }
        }
        step => out.push(step.clone()),
    }
}

fn collect_union<'a>(p: &'a Path, out: &mut Vec<&'a Path>) {
    match p {
        Path::Union(a, b) => {
            collect_union(a, out);
            collect_union(b, out);
        }
        other => out.push(other),
    }
}

fn collect_union_owned(p: Path, out: &mut Vec<Path>) {
    match p {
        Path::Union(a, b) => {
            collect_union_owned(*a, out);
            collect_union_owned(*b, out);
        }
        other => out.push(other),
    }
}

fn collect_and<'a>(q: &'a Qualifier, out: &mut Vec<&'a Qualifier>) {
    match q {
        Qualifier::And(a, b) => {
            collect_and(a, out);
            collect_and(b, out);
        }
        other => out.push(other),
    }
}

fn collect_and_owned(q: Qualifier, out: &mut Vec<Qualifier>) {
    match q {
        Qualifier::And(a, b) => {
            collect_and_owned(*a, out);
            collect_and_owned(*b, out);
        }
        other => out.push(other),
    }
}

fn collect_or<'a>(q: &'a Qualifier, out: &mut Vec<&'a Qualifier>) {
    match q {
        Qualifier::Or(a, b) => {
            collect_or(a, out);
            collect_or(b, out);
        }
        other => out.push(other),
    }
}

/// The sorted, deduplicated canonical conjuncts of `q` with trivially-true ones
/// dropped.  An empty result means `q` is trivially true.
fn canon_conjuncts(q: &Qualifier) -> Vec<Qualifier> {
    let mut raw = Vec::new();
    collect_and(q, &mut raw);
    let mut out = Vec::new();
    for c in raw {
        if let Some(cq) = canon_qual(c) {
            out.push(cq);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Canonicalise one qualifier; `None` means trivially true.
fn canon_qual(q: &Qualifier) -> Option<Qualifier> {
    match q {
        Qualifier::Path(p) => {
            let cp = canonicalize(p);
            if path_is_trivial(&cp) {
                None
            } else {
                Some(Qualifier::Path(cp))
            }
        }
        Qualifier::LabelIs(l) => Some(Qualifier::LabelIs(l.clone())),
        Qualifier::AttrCmp {
            path,
            attr,
            op,
            value,
        } => Some(Qualifier::AttrCmp {
            path: canonicalize(path),
            attr: attr.clone(),
            op: *op,
            value: value.clone(),
        }),
        Qualifier::AttrJoin {
            left,
            left_attr,
            op,
            right,
            right_attr,
        } => Some(Qualifier::AttrJoin {
            left: canonicalize(left),
            left_attr: left_attr.clone(),
            op: *op,
            right: canonicalize(right),
            right_attr: right_attr.clone(),
        }),
        Qualifier::And(_, _) => {
            let conjs = canon_conjuncts(q);
            if conjs.is_empty() {
                None
            } else {
                Some(rebuild_and(conjs))
            }
        }
        Qualifier::Or(_, _) => {
            let mut raw = Vec::new();
            collect_or(q, &mut raw);
            let mut paths: Vec<Path> = Vec::new();
            let mut others: Vec<Qualifier> = Vec::new();
            for d in raw {
                match canon_qual(d) {
                    None => return None, // one trivially-true disjunct makes the Or true
                    Some(Qualifier::Path(p)) => paths.push(p),
                    Some(cq) => others.push(cq),
                }
            }
            // `[p1 or p2]` tests nonemptiness of a union: merge path disjuncts into one
            // union qualifier so `[a or b]` and `[a|b]` share a representative.
            if !paths.is_empty() {
                let merged = canonicalize(&Path::union_all(paths));
                if path_is_trivial(&merged) {
                    return None;
                }
                others.push(Qualifier::Path(merged));
            }
            others.sort();
            others.dedup();
            if others.len() == 1 {
                others.pop()
            } else {
                Some(rebuild_or(others))
            }
        }
        Qualifier::Not(inner) => match canon_qual(inner) {
            // `not(true)` is unsatisfiable but there is no false constant; keep the
            // shape with a canonical trivial body.
            None => Some(Qualifier::Not(Box::new(Qualifier::Path(Path::Empty)))),
            // `not(not q)` collapses to `q` — and when the inner negation was the
            // canonical `not(true)` shape above, the double negation is itself
            // trivially true and must drop like any other trivial conjunct.
            Some(Qualifier::Not(x)) => {
                if qual_is_trivial(&x) {
                    None
                } else {
                    Some(*x)
                }
            }
            Some(cq) => Some(Qualifier::Not(Box::new(cq))),
        },
    }
}

fn rebuild_seq(atoms: Vec<Path>) -> Path {
    let mut it = atoms.into_iter().rev();
    let Some(last) = it.next() else {
        return Path::Empty;
    };
    it.fold(last, |acc, a| Path::Seq(Box::new(a), Box::new(acc)))
}

fn rebuild_union(branches: Vec<Path>) -> Path {
    let mut it = branches.into_iter().rev();
    let last = it.next().expect("union of at least one branch");
    it.fold(last, |acc, b| Path::Union(Box::new(b), Box::new(acc)))
}

fn rebuild_and(conjs: Vec<Qualifier>) -> Qualifier {
    let mut it = conjs.into_iter().rev();
    let last = it.next().expect("conjunction of at least one qualifier");
    it.fold(last, |acc, c| Qualifier::And(Box::new(c), Box::new(acc)))
}

fn rebuild_or(disjs: Vec<Qualifier>) -> Qualifier {
    let mut it = disjs.into_iter().rev();
    let last = it.next().expect("disjunction of at least one qualifier");
    it.fold(last, |acc, d| Qualifier::Or(Box::new(d), Box::new(acc)))
}

// ---- structural hash --------------------------------------------------------------

/// Label-erased hash of a canonical form: step/attribute names contribute nothing, and
/// the children of commutative nodes (`Union`, `and`, `or`) combine by wrapping sum, so
/// any two queries isomorphic up to labels hash equal regardless of how the sort order
/// interleaved their commutative children.
pub fn structural_hash(canonical: &Path) -> u64 {
    mix64(hash_path(canonical) ^ 0x5851_f42d_4c95_7f2d)
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

fn hash_path(p: &Path) -> u64 {
    match p {
        Path::Empty => mix64(1),
        Path::Label(_) => mix64(2),
        Path::Wildcard => mix64(3),
        Path::DescendantOrSelf => mix64(4),
        Path::Parent => mix64(5),
        Path::AncestorOrSelf => mix64(6),
        Path::NextSibling => mix64(7),
        Path::FollowingSiblingOrSelf => mix64(8),
        Path::PrevSibling => mix64(9),
        Path::PrecedingSiblingOrSelf => mix64(10),
        Path::Seq(a, b) => ordered(11, hash_path(a), hash_path(b)),
        Path::Union(_, _) => {
            let mut branches = Vec::new();
            collect_union(p, &mut branches);
            commutative(12, branches.iter().map(|b| hash_path(b)))
        }
        Path::Filter(base, q) => ordered(13, hash_path(base), hash_qual(q)),
    }
}

fn hash_qual(q: &Qualifier) -> u64 {
    match q {
        Qualifier::Path(p) => ordered(20, hash_path(p), 0),
        Qualifier::LabelIs(_) => mix64(21),
        Qualifier::AttrCmp { path, op, .. } => ordered(22, hash_path(path), hash_op(*op)),
        Qualifier::AttrJoin {
            left, op, right, ..
        } => ordered(
            23,
            hash_path(left),
            ordered(24, hash_op(*op), hash_path(right)),
        ),
        Qualifier::And(_, _) => {
            let mut conjs = Vec::new();
            collect_and(q, &mut conjs);
            commutative(25, conjs.iter().map(|c| hash_qual(c)))
        }
        Qualifier::Or(_, _) => {
            let mut disjs = Vec::new();
            collect_or(q, &mut disjs);
            commutative(26, disjs.iter().map(|d| hash_qual(d)))
        }
        Qualifier::Not(inner) => ordered(27, hash_qual(inner), 0),
    }
}

fn hash_op(op: CmpOp) -> u64 {
    mix64(0x40 + op as u64)
}

fn ordered(tag: u64, a: u64, b: u64) -> u64 {
    mix64(
        mix64(tag)
            .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(b.rotate_left(31)),
    )
}

fn commutative(tag: u64, children: impl Iterator<Item = u64>) -> u64 {
    let mut acc = 0u64;
    let mut n = 0u64;
    for h in children {
        acc = acc.wrapping_add(mix64(h));
        n += 1;
    }
    mix64(mix64(tag).wrapping_add(acc).wrapping_add(n.rotate_left(17)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_xpath::parse_path;

    fn canon(s: &str) -> Path {
        canonicalize(&parse_path(s).expect("parse"))
    }

    #[test]
    fn fnv64_matches_the_published_fnv1a_vectors() {
        // Canonical hashes, store keys and store checksums all depend on these.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let query = CanonicalQuery::of(&parse_path("a[c][b]").expect("parse"));
        assert_eq!(query.canonical_hash, fnv64(query.text.as_bytes()));
    }

    #[test]
    fn qualifier_order_is_normalised() {
        assert_eq!(canon("a[b and c]/d"), canon("a[c and b]/d"));
        assert_eq!(canon("a[b][c]"), canon("a[c and b]"));
    }

    #[test]
    fn double_negation_of_a_trivial_qualifier_drops_entirely() {
        // `not(not(**))` ≡ `**` ≡ true: the collapsed double negation must drop
        // like any other trivially-true conjunct, not survive as `[.]`.
        assert_eq!(canon("a[not(not(**))]"), canon("a"));
        assert_eq!(canon("a[not(not(b))]"), canon("a[b]"));
        // Single negation of a trivial body stays: `not(true)` is unsatisfiable.
        assert_ne!(canon("a[not(**)]"), canon("a"));
    }

    #[test]
    fn composition_flattens_and_filter_attaches_to_last_step() {
        assert_eq!(canon("(a/b)[c]"), canon("a/b[c]"));
        assert_eq!(canon("a/(b/c)"), canon("(a/b)/c"));
        assert_eq!(canon("./a/."), canon("a"));
    }

    #[test]
    fn union_sorts_and_dedups() {
        assert_eq!(canon("b|a"), canon("a|b"));
        assert_eq!(canon("a|a|b"), canon("a|b"));
        assert_eq!(canon("a[b or c]"), canon("a[c or b]"));
        assert_eq!(canon("a[b or c]"), canon("a[b|c]"));
    }

    #[test]
    fn trivial_filters_drop_and_double_negation_collapses() {
        assert_eq!(canon("a[.]"), canon("a"));
        assert_eq!(canon("a[**]"), canon("a"));
        assert_eq!(canon("a[not(not(b))]"), canon("a[b]"));
        assert_eq!(canon("a[b and .]"), canon("a[b]"));
    }

    #[test]
    fn canonical_hash_tracks_canonical_form() {
        let x = CanonicalQuery::of(&parse_path("a[b and c]/d").unwrap());
        let y = CanonicalQuery::of(&parse_path("a[c][b]/d").unwrap());
        let z = CanonicalQuery::of(&parse_path("a[c]/d").unwrap());
        assert_eq!(x.canonical_hash, y.canonical_hash);
        assert_eq!(x.path, y.path);
        assert_ne!(x.canonical_hash, z.canonical_hash);
    }

    #[test]
    fn structural_hash_erases_labels_and_commutes() {
        let a = CanonicalQuery::of(&parse_path("a[b/* and c/d]").unwrap());
        let b = CanonicalQuery::of(&parse_path("x[y/z and w/*]").unwrap());
        assert_eq!(a.structural_hash, b.structural_hash);
        let c = CanonicalQuery::of(&parse_path("x[y/z and w]").unwrap());
        assert_ne!(a.structural_hash, c.structural_hash);
    }
}
