//! Validation of documents against DTDs (`T ⊨ D`, Section 2.1).
//!
//! A document conforms to a DTD when (1) its root is labelled with the root type,
//! (2) every node's label is a declared element type, (3) every node's children-label
//! word belongs to the language of its type's content model, and (4) every node carries
//! exactly the attributes declared for its type, each with a value.
//!
//! Content-model membership is checked through the Glushkov NFA of the content model,
//! which keeps validation polynomial in `|T| + |D|`.

use crate::dtd::Dtd;
use std::collections::BTreeMap;
use std::fmt;
use xpsat_automata::Nfa;
use xpsat_xmltree::{Document, NodeId};

/// A reason why a document does not conform to a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root label differs from the DTD's root type.
    WrongRootLabel {
        /// The expected root type.
        expected: String,
        /// The label actually found at the root.
        found: String,
    },
    /// A node is labelled with a type that the DTD does not declare.
    UndeclaredType {
        /// The offending node.
        node: NodeId,
        /// Its (undeclared) label.
        label: String,
    },
    /// The children-label word of a node is not in the language of its content model.
    InvalidChildren {
        /// The offending node.
        node: NodeId,
        /// The node's label.
        label: String,
        /// The children labels that were found.
        children: Vec<String>,
    },
    /// A node misses a declared attribute.
    MissingAttribute {
        /// The offending node.
        node: NodeId,
        /// The attribute required by `R(label)`.
        attribute: String,
    },
    /// A node carries an attribute that its type does not declare.
    UnexpectedAttribute {
        /// The offending node.
        node: NodeId,
        /// The undeclared attribute.
        attribute: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongRootLabel { expected, found } => {
                write!(f, "root is labelled `{found}`, expected `{expected}`")
            }
            ValidationError::UndeclaredType { node, label } => {
                write!(f, "node {node:?} has undeclared element type `{label}`")
            }
            ValidationError::InvalidChildren { node, label, children } => write!(
                f,
                "children of node {node:?} (type `{label}`) do not match its content model: {children:?}"
            ),
            ValidationError::MissingAttribute { node, attribute } => {
                write!(f, "node {node:?} is missing required attribute `{attribute}`")
            }
            ValidationError::UnexpectedAttribute { node, attribute } => {
                write!(f, "node {node:?} carries undeclared attribute `{attribute}`")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check `T ⊨ D`.  Returns the first violation found (in pre-order), or `Ok(())`.
pub fn validate(doc: &Document, dtd: &Dtd) -> Result<(), ValidationError> {
    if doc.label(doc.root()) != dtd.root() {
        return Err(ValidationError::WrongRootLabel {
            expected: dtd.root().to_string(),
            found: doc.label(doc.root()).to_string(),
        });
    }
    // Cache one Glushkov automaton per element type actually used.
    let mut automata: BTreeMap<String, Nfa<String>> = BTreeMap::new();
    for node in doc.all_nodes() {
        let label = doc.label(node).to_string();
        let Some(decl) = dtd.element(&label) else {
            return Err(ValidationError::UndeclaredType { node, label });
        };
        let nfa = automata
            .entry(label.clone())
            .or_insert_with(|| Nfa::glushkov(&decl.content));
        let children = doc.child_labels(node);
        if !nfa.accepts(&children) {
            return Err(ValidationError::InvalidChildren {
                node,
                label,
                children,
            });
        }
        for attr in &decl.attributes {
            if doc.attr(node, attr).is_none() {
                return Err(ValidationError::MissingAttribute {
                    node,
                    attribute: attr.clone(),
                });
            }
        }
        for present in doc.attrs(node).keys() {
            if !decl.attributes.contains(present) {
                return Err(ValidationError::UnexpectedAttribute {
                    node,
                    attribute: present.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dtd;

    fn bookstore() -> Dtd {
        parse_dtd(
            "root store;\n\
             store -> book*;\n\
             book -> title, author+;\n\
             title -> #; author -> #;\n\
             @book: isbn;",
        )
        .unwrap()
    }

    fn valid_doc() -> Document {
        let mut doc = Document::new("store");
        let book = doc.add_child(doc.root(), "book");
        doc.set_attr(book, "isbn", "1-55860-622-X");
        doc.add_child(book, "title");
        doc.add_child(book, "author");
        doc.add_child(book, "author");
        doc
    }

    #[test]
    fn accepts_conforming_document() {
        assert_eq!(validate(&valid_doc(), &bookstore()), Ok(()));
    }

    #[test]
    fn rejects_wrong_root() {
        let doc = Document::new("shop");
        assert!(matches!(
            validate(&doc, &bookstore()),
            Err(ValidationError::WrongRootLabel { .. })
        ));
    }

    #[test]
    fn rejects_bad_children_order_and_missing_children() {
        let dtd = bookstore();
        let mut doc = Document::new("store");
        let book = doc.add_child(doc.root(), "book");
        doc.set_attr(book, "isbn", "x");
        doc.add_child(book, "author"); // missing title, wrong order
        assert!(matches!(
            validate(&doc, &dtd),
            Err(ValidationError::InvalidChildren { .. })
        ));
    }

    #[test]
    fn rejects_undeclared_type_and_attributes() {
        let dtd = bookstore();
        let mut doc = valid_doc();
        let book = doc.children(doc.root())[0];
        doc.set_attr(book, "price", "10");
        assert!(matches!(
            validate(&doc, &dtd),
            Err(ValidationError::UnexpectedAttribute { .. })
        ));

        // An undeclared child label is caught by the parent's content model first…
        let mut doc2 = Document::new("store");
        doc2.add_child(doc2.root(), "pamphlet");
        assert!(matches!(
            validate(&doc2, &dtd),
            Err(ValidationError::InvalidChildren { .. })
        ));
        // …whereas a hand-built DTD that *references* an undeclared type reports the
        // undeclared type itself.
        let mut dangling = Dtd::new("r");
        dangling.define("r", xpsat_automata::Regex::Sym("ghost".to_string()));
        let mut doc_ghost = Document::new("r");
        doc_ghost.add_child(doc_ghost.root(), "ghost");
        assert!(matches!(
            validate(&doc_ghost, &dangling),
            Err(ValidationError::UndeclaredType { .. })
        ));

        let mut doc3 = Document::new("store");
        let book = doc3.add_child(doc3.root(), "book");
        doc3.add_child(book, "title");
        doc3.add_child(book, "author");
        assert!(matches!(
            validate(&doc3, &dtd),
            Err(ValidationError::MissingAttribute { .. })
        ));
    }
}
