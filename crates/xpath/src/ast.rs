//! Abstract syntax of the XPath class studied in the paper.
//!
//! The class `X(↓, ↓*, ↑, ↑*, →, →*, ←, ←*, ∪, [], =, ¬)` is defined in Sections 2.2
//! and 7.1:
//!
//! ```text
//! p ::= ε | l | ↓ | ↓* | ↑ | ↑* | → | →* | ← | ←* | p/p | p ∪ p | p[q]
//! q ::= p | lab() = A | p/@a op 'c' | p/@a op p'/@b | q ∧ q | q ∨ q | ¬q
//! ```
//!
//! where `op ∈ {=, ≠}`.  Fragments are obtained by restricting the allowed operators;
//! see [`crate::features`].

use std::fmt;

/// Comparison operator on attribute values (`=` or `≠`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// Equality of data values.
    Eq,
    /// Disequality of data values.
    Ne,
}

impl CmpOp {
    /// Apply the comparison to two string values.
    pub fn eval(self, left: &str, right: &str) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
        }
    }

    /// The complementary operator.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Eq => write!(f, "="),
            CmpOp::Ne => write!(f, "!="),
        }
    }
}

/// A path expression: a binary predicate over the nodes of a document.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Path {
    /// `ε` — the self axis (identity relation).
    Empty,
    /// `l` — move to a child labelled `l`.
    Label(String),
    /// `↓` — move to any child (the wildcard).
    Wildcard,
    /// `↓*` — the descendant-or-self axis.
    DescendantOrSelf,
    /// `↑` — move to the parent.
    Parent,
    /// `↑*` — the ancestor-or-self axis.
    AncestorOrSelf,
    /// `→` — move to the immediate right sibling.
    NextSibling,
    /// `→*` — the following-sibling-or-self axis.
    FollowingSiblingOrSelf,
    /// `←` — move to the immediate left sibling.
    PrevSibling,
    /// `←*` — the preceding-sibling-or-self axis.
    PrecedingSiblingOrSelf,
    /// `p1/p2` — relational composition.
    Seq(Box<Path>, Box<Path>),
    /// `p1 ∪ p2` — union.
    Union(Box<Path>, Box<Path>),
    /// `p[q]` — filter the targets of `p` by qualifier `q`.
    Filter(Box<Path>, Box<Qualifier>),
}

/// A qualifier: a unary predicate over the nodes of a document.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Qualifier {
    /// `p` — some node is reachable via `p`.
    Path(Path),
    /// `lab() = A` — the node is labelled `A`.
    LabelIs(String),
    /// `p/@a op 'c'` — some node reachable via `p` has attribute `a` standing in
    /// relation `op` to the constant `c`.
    AttrCmp {
        /// Navigation to the attribute-carrying node.
        path: Path,
        /// Attribute name.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant being compared against.
        value: String,
    },
    /// `p/@a op p'/@b` — a data-value join between two reachable nodes.
    AttrJoin {
        /// Navigation to the left node.
        left: Path,
        /// Left attribute name.
        left_attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Navigation to the right node.
        right: Path,
        /// Right attribute name.
        right_attr: String,
    },
    /// Conjunction.
    And(Box<Qualifier>, Box<Qualifier>),
    /// Disjunction.
    Or(Box<Qualifier>, Box<Qualifier>),
    /// Negation.
    Not(Box<Qualifier>),
}

impl Path {
    /// A child step with the given label.
    pub fn label(name: impl Into<String>) -> Path {
        Path::Label(name.into())
    }

    /// `p1/p2`, simplifying `ε` units away.
    pub fn seq(p1: Path, p2: Path) -> Path {
        match (p1, p2) {
            (Path::Empty, p) | (p, Path::Empty) => p,
            (a, b) => Path::Seq(Box::new(a), Box::new(b)),
        }
    }

    /// Compose a whole sequence of steps (right-associated).
    pub fn seq_all<I: IntoIterator<Item = Path>>(parts: I) -> Path {
        let mut parts: Vec<Path> = parts.into_iter().collect();
        if parts.is_empty() {
            return Path::Empty;
        }
        let mut acc = parts.pop().expect("nonempty");
        while let Some(p) = parts.pop() {
            acc = Path::seq(p, acc);
        }
        acc
    }

    /// `p1 ∪ p2`.
    pub fn union(p1: Path, p2: Path) -> Path {
        Path::Union(Box::new(p1), Box::new(p2))
    }

    /// Union of a nonempty sequence of alternatives (right-associated).
    pub fn union_all<I: IntoIterator<Item = Path>>(parts: I) -> Path {
        let mut parts: Vec<Path> = parts.into_iter().collect();
        let mut acc = parts
            .pop()
            .expect("union_all requires at least one alternative");
        while let Some(p) = parts.pop() {
            acc = Path::union(p, acc);
        }
        acc
    }

    /// `p[q]`.
    pub fn filter(self, q: Qualifier) -> Path {
        Path::Filter(Box::new(self), Box::new(q))
    }

    /// `↓^n` — the n-fold wildcard chain (`ε` when `n = 0`), as used throughout the
    /// paper's reductions (e.g. `↓2/C1/↑3/...` in Proposition 4.3).
    pub fn wildcard_chain(n: usize) -> Path {
        Path::seq_all(std::iter::repeat_n(Path::Wildcard, n))
    }

    /// `↑^n` — the n-fold parent chain.
    pub fn parent_chain(n: usize) -> Path {
        Path::seq_all(std::iter::repeat_n(Path::Parent, n))
    }

    /// An n-fold chain of child steps with the same label (`l/l/.../l`).
    pub fn label_chain(name: &str, n: usize) -> Path {
        Path::seq_all(std::iter::repeat_n(Path::label(name), n))
    }

    /// Number of AST nodes of the path (counting embedded qualifiers), the `|p|` of the
    /// paper's complexity statements.
    pub fn size(&self) -> usize {
        match self {
            Path::Empty
            | Path::Label(_)
            | Path::Wildcard
            | Path::DescendantOrSelf
            | Path::Parent
            | Path::AncestorOrSelf
            | Path::NextSibling
            | Path::FollowingSiblingOrSelf
            | Path::PrevSibling
            | Path::PrecedingSiblingOrSelf => 1,
            Path::Seq(a, b) | Path::Union(a, b) => 1 + a.size() + b.size(),
            Path::Filter(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// Re-associate all `Seq` spines to the right: `(a/b)/c` becomes `a/(b/c)`.
    ///
    /// The satisfiability engines rely on right-nesting so that the "tail" of every
    /// composition is itself a sub-expression of the closure.
    pub fn right_assoc(&self) -> Path {
        match self {
            Path::Seq(a, b) => {
                let a = a.right_assoc();
                let b = b.right_assoc();
                match a {
                    Path::Seq(a1, a2) => {
                        Path::Seq(a1, Box::new(Path::Seq(a2, Box::new(b)).right_assoc()))
                    }
                    other => Path::Seq(Box::new(other), Box::new(b)),
                }
            }
            Path::Union(a, b) => Path::Union(Box::new(a.right_assoc()), Box::new(b.right_assoc())),
            Path::Filter(p, q) => {
                Path::Filter(Box::new(p.right_assoc()), Box::new(q.right_assoc()))
            }
            other => other.clone(),
        }
    }

    /// All labels mentioned anywhere in the path (child steps, label tests).
    pub fn mentioned_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_labels(&self, out: &mut Vec<String>) {
        match self {
            Path::Label(l) => out.push(l.clone()),
            Path::Seq(a, b) | Path::Union(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
            Path::Filter(p, q) => {
                p.collect_labels(out);
                q.collect_labels(out);
            }
            _ => {}
        }
    }

    /// All attribute names mentioned in qualifiers of the path.
    pub fn mentioned_attributes(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<String>) {
        match self {
            Path::Seq(a, b) | Path::Union(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Path::Filter(p, q) => {
                p.collect_attrs(out);
                q.collect_attrs(out);
            }
            _ => {}
        }
    }
}

impl Qualifier {
    /// Conjunction of a nonempty list of qualifiers (right-associated).
    pub fn and_all<I: IntoIterator<Item = Qualifier>>(parts: I) -> Qualifier {
        let mut parts: Vec<Qualifier> = parts.into_iter().collect();
        let mut acc = parts.pop().expect("and_all requires at least one conjunct");
        while let Some(q) = parts.pop() {
            acc = Qualifier::And(Box::new(q), Box::new(acc));
        }
        acc
    }

    /// Disjunction of a nonempty list of qualifiers (right-associated).
    pub fn or_all<I: IntoIterator<Item = Qualifier>>(parts: I) -> Qualifier {
        let mut parts: Vec<Qualifier> = parts.into_iter().collect();
        let mut acc = parts.pop().expect("or_all requires at least one disjunct");
        while let Some(q) = parts.pop() {
            acc = Qualifier::Or(Box::new(q), Box::new(acc));
        }
        acc
    }

    /// Negation.  (An associated constructor, not `std::ops::Not` — it consumes a
    /// qualifier and is called as `Qualifier::not(..)` throughout the workspace.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(q: Qualifier) -> Qualifier {
        Qualifier::Not(Box::new(q))
    }

    /// A path-existence qualifier.
    pub fn path(p: Path) -> Qualifier {
        Qualifier::Path(p)
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Qualifier::Path(p) => p.size(),
            Qualifier::LabelIs(_) => 1,
            Qualifier::AttrCmp { path, .. } => 1 + path.size(),
            Qualifier::AttrJoin { left, right, .. } => 1 + left.size() + right.size(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => 1 + a.size() + b.size(),
            Qualifier::Not(q) => 1 + q.size(),
        }
    }

    /// Re-associate every embedded `Seq` to the right (see [`Path::right_assoc`]).
    pub fn right_assoc(&self) -> Qualifier {
        match self {
            Qualifier::Path(p) => Qualifier::Path(p.right_assoc()),
            Qualifier::LabelIs(l) => Qualifier::LabelIs(l.clone()),
            Qualifier::AttrCmp {
                path,
                attr,
                op,
                value,
            } => Qualifier::AttrCmp {
                path: path.right_assoc(),
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
                left: left.right_assoc(),
                left_attr: left_attr.clone(),
                op: *op,
                right: right.right_assoc(),
                right_attr: right_attr.clone(),
            },
            Qualifier::And(a, b) => {
                Qualifier::And(Box::new(a.right_assoc()), Box::new(b.right_assoc()))
            }
            Qualifier::Or(a, b) => {
                Qualifier::Or(Box::new(a.right_assoc()), Box::new(b.right_assoc()))
            }
            Qualifier::Not(q) => Qualifier::Not(Box::new(q.right_assoc())),
        }
    }

    pub(crate) fn collect_labels(&self, out: &mut Vec<String>) {
        match self {
            Qualifier::Path(p) => p.collect_labels(out),
            Qualifier::LabelIs(l) => out.push(l.clone()),
            Qualifier::AttrCmp { path, .. } => path.collect_labels(out),
            Qualifier::AttrJoin { left, right, .. } => {
                left.collect_labels(out);
                right.collect_labels(out);
            }
            Qualifier::And(a, b) | Qualifier::Or(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
            Qualifier::Not(q) => q.collect_labels(out),
        }
    }

    pub(crate) fn collect_attrs(&self, out: &mut Vec<String>) {
        match self {
            Qualifier::Path(p) => p.collect_attrs(out),
            Qualifier::LabelIs(_) => {}
            Qualifier::AttrCmp { path, attr, .. } => {
                path.collect_attrs(out);
                out.push(attr.clone());
            }
            Qualifier::AttrJoin {
                left,
                left_attr,
                right,
                right_attr,
                ..
            } => {
                left.collect_attrs(out);
                right.collect_attrs(out);
                out.push(left_attr.clone());
                out.push(right_attr.clone());
            }
            Qualifier::And(a, b) | Qualifier::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Qualifier::Not(q) => q.collect_attrs(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_simplifies_epsilon() {
        assert_eq!(Path::seq(Path::Empty, Path::label("a")), Path::label("a"));
        assert_eq!(Path::seq(Path::label("a"), Path::Empty), Path::label("a"));
        assert_eq!(Path::seq_all(vec![]), Path::Empty);
    }

    #[test]
    fn chains() {
        assert_eq!(Path::wildcard_chain(0), Path::Empty);
        assert_eq!(Path::wildcard_chain(1), Path::Wildcard);
        assert_eq!(Path::wildcard_chain(2).size(), 3);
        assert_eq!(Path::label_chain("X", 3).mentioned_labels(), vec!["X"]);
    }

    #[test]
    fn right_assoc_normalises_spines() {
        let left = Path::Seq(
            Box::new(Path::Seq(
                Box::new(Path::label("a")),
                Box::new(Path::label("b")),
            )),
            Box::new(Path::label("c")),
        );
        let right = left.right_assoc();
        match &right {
            Path::Seq(a, rest) => {
                assert_eq!(**a, Path::label("a"));
                match &**rest {
                    Path::Seq(b, c) => {
                        assert_eq!(**b, Path::label("b"));
                        assert_eq!(**c, Path::label("c"));
                    }
                    other => panic!("expected right nesting, got {other:?}"),
                }
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn size_counts_qualifiers() {
        let p = Path::label("a").filter(Qualifier::And(
            Box::new(Qualifier::path(Path::label("b"))),
            Box::new(Qualifier::LabelIs("a".into())),
        ));
        assert_eq!(p.size(), 1 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn mentioned_labels_and_attributes() {
        let p = Path::seq(
            Path::label("a"),
            Path::Wildcard.filter(Qualifier::AttrCmp {
                path: Path::label("b"),
                attr: "id".into(),
                op: CmpOp::Eq,
                value: "1".into(),
            }),
        );
        assert_eq!(p.mentioned_labels(), vec!["a", "b"]);
        assert_eq!(p.mentioned_attributes(), vec!["id"]);
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval("x", "x"));
        assert!(!CmpOp::Eq.eval("x", "y"));
        assert!(CmpOp::Ne.eval("x", "y"));
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
    }
}
