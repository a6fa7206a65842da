//! Operator-usage analysis and the fragment lattice of Section 2.2.
//!
//! The paper denotes a fragment by listing its operators, e.g. `X(↓, [], ¬)` or
//! `X(↓, ↓*, ↑, ↑*, ∪, [], =)`.  [`Features`] records which operators a concrete query
//! uses; [`Fragment`] records which operators a fragment permits.  The solver façade in
//! `xpsat-core` uses both to pick a decision procedure and to report which complexity
//! regime an input falls into.

use crate::ast::{Path, Qualifier};
use std::fmt;

/// The set of XPath operators used by a query (or permitted by a fragment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Features {
    /// Child steps by label (`l`).
    pub label: bool,
    /// The wildcard child axis `↓`.
    pub wildcard: bool,
    /// The descendant-or-self axis `↓*`.
    pub descendant: bool,
    /// The parent axis `↑`.
    pub parent: bool,
    /// The ancestor-or-self axis `↑*`.
    pub ancestor: bool,
    /// Immediate sibling axes `→` / `←`.
    pub sibling: bool,
    /// Transitive sibling axes `→*` / `←*`.
    pub sibling_star: bool,
    /// Union `∪` or disjunction `∨` in qualifiers.
    pub union: bool,
    /// Qualifiers `[q]`.
    pub qualifier: bool,
    /// Label tests `lab() = A` inside qualifiers.
    pub label_test: bool,
    /// Data-value comparisons (`=` / `≠` against constants or joins).
    pub data_value: bool,
    /// Negation `¬` in qualifiers.
    pub negation: bool,
}

impl Features {
    /// The features used by a path expression.
    pub fn of_path(p: &Path) -> Features {
        let mut f = Features::default();
        f.scan_path(p);
        f
    }

    fn scan_path(&mut self, p: &Path) {
        match p {
            Path::Empty => {}
            Path::Label(_) => self.label = true,
            Path::Wildcard => self.wildcard = true,
            Path::DescendantOrSelf => self.descendant = true,
            Path::Parent => self.parent = true,
            Path::AncestorOrSelf => self.ancestor = true,
            Path::NextSibling | Path::PrevSibling => self.sibling = true,
            Path::FollowingSiblingOrSelf | Path::PrecedingSiblingOrSelf => self.sibling_star = true,
            Path::Seq(a, b) => {
                self.scan_path(a);
                self.scan_path(b);
            }
            Path::Union(a, b) => {
                self.union = true;
                self.scan_path(a);
                self.scan_path(b);
            }
            Path::Filter(a, q) => {
                self.qualifier = true;
                self.scan_path(a);
                self.scan_qualifier(q);
            }
        }
    }

    fn scan_qualifier(&mut self, q: &Qualifier) {
        match q {
            Qualifier::Path(p) => self.scan_path(p),
            Qualifier::LabelIs(_) => self.label_test = true,
            Qualifier::AttrCmp { path, .. } => {
                self.data_value = true;
                self.scan_path(path);
            }
            Qualifier::AttrJoin { left, right, .. } => {
                self.data_value = true;
                self.scan_path(left);
                self.scan_path(right);
            }
            Qualifier::And(a, b) => {
                self.scan_qualifier(a);
                self.scan_qualifier(b);
            }
            Qualifier::Or(a, b) => {
                self.union = true;
                self.scan_qualifier(a);
                self.scan_qualifier(b);
            }
            Qualifier::Not(inner) => {
                self.negation = true;
                self.scan_qualifier(inner);
            }
        }
    }

    /// Does the query use any upward axis?
    pub fn has_upward(&self) -> bool {
        self.parent || self.ancestor
    }

    /// Does the query use any recursive (transitive) vertical axis?
    pub fn has_recursion(&self) -> bool {
        self.descendant || self.ancestor
    }

    /// Does the query use any sibling axis?
    pub fn has_sibling(&self) -> bool {
        self.sibling || self.sibling_star
    }

    /// Is every feature of `self` also present in `other`?
    pub fn subset_of(&self, other: &Features) -> bool {
        (!self.label || other.label)
            && (!self.wildcard || other.wildcard)
            && (!self.descendant || other.descendant)
            && (!self.parent || other.parent)
            && (!self.ancestor || other.ancestor)
            && (!self.sibling || other.sibling)
            && (!self.sibling_star || other.sibling_star)
            && (!self.union || other.union)
            && (!self.qualifier || other.qualifier)
            && (!self.label_test || other.label_test)
            && (!self.data_value || other.data_value)
            && (!self.negation || other.negation)
    }
}

/// A named fragment of the paper: a set of permitted operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// The operators the fragment permits.
    pub allowed: Features,
    /// A short, paper-style name such as `"X(dn, dn*, un)"`.
    pub name: &'static str,
}

impl Fragment {
    /// Does the fragment permit this query?
    pub fn permits_path(&self, p: &Path) -> bool {
        Features::of_path(p).subset_of(&self.allowed)
    }

    /// Does the fragment permit queries with these features?
    pub fn permits(&self, f: &Features) -> bool {
        f.subset_of(&self.allowed)
    }

    /// `X(↓, ↓*, ∪)` — downward, no qualifiers (Theorem 4.1, PTIME).
    pub fn downward_no_qualifiers() -> Fragment {
        Fragment {
            name: "X(child, desc, union)",
            allowed: Features {
                label: true,
                wildcard: true,
                descendant: true,
                union: true,
                ..Features::default()
            },
        }
    }

    /// `X(↓, ↓*, ∪, [])` — downward tree patterns (Proposition 4.2, NP-complete).
    pub fn downward_positive() -> Fragment {
        Fragment {
            name: "X(child, desc, union, qualifiers)",
            allowed: Features {
                label: true,
                wildcard: true,
                descendant: true,
                union: true,
                qualifier: true,
                label_test: true,
                ..Features::default()
            },
        }
    }

    /// `X(↓, ↓*, ∪, [], =)` — downward tree patterns with data values (Theorem 4.4, NP).
    pub fn downward_positive_with_data() -> Fragment {
        Fragment {
            name: "X(child, desc, union, qualifiers, data)",
            allowed: Features {
                data_value: true,
                ..Fragment::downward_positive().allowed
            },
        }
    }

    /// `X(↓, ↓*, ↑, ↑*, ∪, [], =)` — the largest positive fragment (Theorem 4.4, NP).
    pub fn largest_positive() -> Fragment {
        Fragment {
            name: "X(child, desc, parent, anc, union, qualifiers, data)",
            allowed: Features {
                label: true,
                wildcard: true,
                descendant: true,
                parent: true,
                ancestor: true,
                union: true,
                qualifier: true,
                label_test: true,
                data_value: true,
                ..Features::default()
            },
        }
    }

    /// `X(↓, [], ¬)` — the minimal fragment with negation (Proposition 5.1, PSPACE-hard).
    pub fn downward_negation_nonrecursive() -> Fragment {
        Fragment {
            name: "X(child, qualifiers, neg)",
            allowed: Features {
                label: true,
                wildcard: true,
                union: true,
                qualifier: true,
                label_test: true,
                negation: true,
                ..Features::default()
            },
        }
    }

    /// `X(↓, ↓*, ∪, [], ¬)` — downward recursion with negation (Theorem 5.3, EXPTIME).
    pub fn downward_negation() -> Fragment {
        Fragment {
            name: "X(child, desc, union, qualifiers, neg)",
            allowed: Features {
                label: true,
                wildcard: true,
                descendant: true,
                union: true,
                qualifier: true,
                label_test: true,
                negation: true,
                ..Features::default()
            },
        }
    }

    /// `X(↓, ↑, ↓*, ↑*, ∪, [], =, ¬)` — the full class (Theorem 5.4, undecidable).
    pub fn full() -> Fragment {
        Fragment {
            name: "X(all vertical, union, qualifiers, data, neg)",
            allowed: Features {
                label: true,
                wildcard: true,
                descendant: true,
                parent: true,
                ancestor: true,
                union: true,
                qualifier: true,
                label_test: true,
                data_value: true,
                negation: true,
                ..Features::default()
            },
        }
    }

    /// `X(→, ←)` — immediate sibling axes without qualifiers (Theorem 7.1, PTIME).
    pub fn sibling_no_qualifiers() -> Fragment {
        Fragment {
            name: "X(label, next-sib, prev-sib)",
            allowed: Features {
                label: true,
                sibling: true,
                ..Features::default()
            },
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    #[test]
    fn features_of_simple_paths() {
        let p = Path::seq(Path::label("a"), Path::DescendantOrSelf);
        let f = Features::of_path(&p);
        assert!(f.label && f.descendant);
        assert!(!f.negation && !f.qualifier && !f.has_upward());
        assert!(f.has_recursion());
    }

    #[test]
    fn negation_and_data_values_detected() {
        let q = Qualifier::not(Qualifier::AttrCmp {
            path: Path::Empty,
            attr: "a".into(),
            op: CmpOp::Eq,
            value: "c".into(),
        });
        let p = Path::label("x").filter(q);
        let f = Features::of_path(&p);
        assert!(f.negation && f.data_value && f.qualifier);
    }

    #[test]
    fn fragment_permission() {
        let positive = Fragment::downward_positive();
        let with_neg = Path::label("a").filter(Qualifier::not(Qualifier::path(Path::label("b"))));
        assert!(!positive.permits_path(&with_neg));
        assert!(Fragment::downward_negation().permits_path(&with_neg));
        let upward = Path::seq(Path::label("a"), Path::Parent);
        assert!(!positive.permits_path(&upward));
        assert!(Fragment::largest_positive().permits_path(&upward));
    }

    #[test]
    fn fragment_lattice_is_monotone() {
        // Everything permitted by the positive downward fragment is permitted by the
        // largest positive fragment and by the full fragment.
        let small = Fragment::downward_positive();
        let mid = Fragment::largest_positive();
        let full = Fragment::full();
        assert!(small.allowed.subset_of(&mid.allowed));
        assert!(mid.allowed.subset_of(&full.allowed));
    }

    #[test]
    fn or_in_qualifiers_counts_as_union() {
        let q = Qualifier::Or(
            Box::new(Qualifier::path(Path::label("a"))),
            Box::new(Qualifier::path(Path::label("b"))),
        );
        let p = Path::Empty.filter(q);
        assert!(Features::of_path(&p).union);
    }
}
