//! The [`Dtd`] type: element declarations, attribute sets and the root type.

use crate::ContentModel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use xpsat_automata::Regex;

/// The declaration of one element type: its content model `P(A)` and its attribute set
/// `R(A)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// The content model (a regular expression over element-type names).
    pub content: ContentModel,
    /// The attributes every element of this type carries.
    pub attributes: BTreeSet<String>,
}

impl Default for ElementDecl {
    fn default() -> Self {
        ElementDecl {
            content: Regex::Epsilon,
            attributes: BTreeSet::new(),
        }
    }
}

/// A DTD `(Ele, Att, P, R, r)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    root: String,
    elements: BTreeMap<String, ElementDecl>,
}

impl Dtd {
    /// Create a DTD with the given root type, declared (for the moment) with content `ε`.
    pub fn new(root: impl Into<String>) -> Dtd {
        let root = root.into();
        let mut elements = BTreeMap::new();
        elements.insert(root.clone(), ElementDecl::default());
        Dtd { root, elements }
    }

    /// The root element type `r`.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Declare (or redefine) the content model of an element type.
    pub fn define(&mut self, name: impl Into<String>, content: ContentModel) -> &mut Self {
        let name = name.into();
        self.elements.entry(name).or_default().content = content;
        self
    }

    /// Declare an element type with content `ε` if it is not declared yet.
    pub fn declare_empty(&mut self, name: impl Into<String>) -> &mut Self {
        self.elements.entry(name.into()).or_default();
        self
    }

    /// Add attributes to an element type (declaring the type if necessary).
    pub fn add_attributes<I, T>(&mut self, name: impl Into<String>, attrs: I) -> &mut Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let decl = self.elements.entry(name.into()).or_default();
        decl.attributes.extend(attrs.into_iter().map(Into::into));
        self
    }

    /// Is this element type declared?
    pub fn contains(&self, name: &str) -> bool {
        self.elements.contains_key(name)
    }

    /// The declaration of an element type.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    /// The content model `P(A)`, if `A` is declared.
    pub fn content(&self, name: &str) -> Option<&ContentModel> {
        self.elements.get(name).map(|d| &d.content)
    }

    /// The attribute set `R(A)` (empty for undeclared types).
    pub fn attributes(&self, name: &str) -> BTreeSet<String> {
        self.elements
            .get(name)
            .map(|d| d.attributes.clone())
            .unwrap_or_default()
    }

    /// All declared element-type names, in sorted order.
    pub fn element_names(&self) -> Vec<String> {
        self.elements.keys().cloned().collect()
    }

    /// All declared element types with their declarations.
    pub fn elements(&self) -> impl Iterator<Item = (&String, &ElementDecl)> {
        self.elements.iter()
    }

    /// All attribute names mentioned anywhere (`Att`).
    pub fn all_attributes(&self) -> BTreeSet<String> {
        self.elements
            .values()
            .flat_map(|d| d.attributes.iter().cloned())
            .collect()
    }

    /// `|D|`: the size of the DTD, measured as the total size of all content models
    /// plus the number of declared attributes.
    pub fn size(&self) -> usize {
        self.elements
            .values()
            .map(|d| d.content.size() + d.attributes.len())
            .sum::<usize>()
            + self.elements.len()
    }

    /// Element types referenced in some content model but never declared.
    ///
    /// The parser and the reduction generators always declare every referenced type;
    /// this check guards hand-built DTDs in user code and tests.
    pub fn undeclared_references(&self) -> BTreeSet<String> {
        let mut missing = BTreeSet::new();
        for decl in self.elements.values() {
            for sym in decl.content.symbols() {
                if !self.elements.contains_key(&sym) {
                    missing.insert(sym);
                }
            }
        }
        missing
    }
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "root {};", self.root)?;
        for (name, decl) in &self.elements {
            writeln!(f, "{name} -> {};", decl.content)?;
            if !decl.attributes.is_empty() {
                let attrs: Vec<&str> = decl.attributes.iter().map(String::as_str).collect();
                writeln!(f, "@{name}: {};", attrs.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> ContentModel {
        Regex::sym(s.to_string())
    }

    #[test]
    fn build_and_inspect() {
        let mut dtd = Dtd::new("r");
        dtd.define("r", Regex::star(Regex::alt(vec![sym("a"), sym("b")])))
            .declare_empty("a")
            .declare_empty("b")
            .add_attributes("a", ["id", "name"]);

        assert_eq!(dtd.root(), "r");
        assert!(dtd.contains("a"));
        assert!(!dtd.contains("z"));
        assert_eq!(dtd.attributes("a").len(), 2);
        assert_eq!(dtd.attributes("b").len(), 0);
        assert_eq!(dtd.element_names(), vec!["a", "b", "r"]);
        assert!(dtd.all_attributes().contains("id"));
        assert!(dtd.undeclared_references().is_empty());
        assert!(dtd.size() > 0);
    }

    #[test]
    fn undeclared_references_detected() {
        let mut dtd = Dtd::new("r");
        dtd.define("r", sym("ghost"));
        assert_eq!(
            dtd.undeclared_references().into_iter().collect::<Vec<_>>(),
            vec!["ghost"]
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        let mut dtd = Dtd::new("store");
        dtd.define(
            "store",
            Regex::star(Regex::alt(vec![sym("book"), sym("magazine")])),
        )
        .define(
            "book",
            Regex::concat(vec![
                sym("title"),
                Regex::plus(sym("author")),
                Regex::opt(sym("price")),
            ]),
        )
        .declare_empty("title")
        .declare_empty("author")
        .declare_empty("price")
        .declare_empty("magazine")
        .add_attributes("book", ["isbn"]);

        let text = dtd.to_string();
        let parsed = crate::parse::parse_dtd(&text).unwrap();
        assert_eq!(parsed, dtd);
    }
}
