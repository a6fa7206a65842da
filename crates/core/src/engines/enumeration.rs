//! Instance enumeration: the decision procedure of Proposition 6.4 and the bounded-model
//! oracle of the test suite.
//!
//! For a *nonrecursive, star-free* DTD the set of conforming documents is finite, and
//! satisfiability of **any** query — including upward axes, sibling axes, data values
//! and negation — can be decided by enumerating the documents and evaluating the query
//! on each (this is exactly how Proposition 6.4 obtains PTIME for fixed DTDs, and how
//! Theorem 5.5's NEXPTIME procedure guesses a small model).
//!
//! For general DTDs the same enumeration, truncated at a configurable depth, children
//! length and tree count, yields a *bounded-model search*: a found witness is always
//! genuine, exhausting the budget without finding one returns
//! [`Satisfiability::Unknown`] unless the search provably covered every conforming
//! document (no truncation happened), in which case `Unsatisfiable` is sound.
//!
//! The subtree memo is keyed by `(element Sym, depth)` and the children words come from
//! the precompiled content-model automata of the [`DtdArtifacts`] — the earlier version
//! keyed the memo by `String` label and rebuilt a Glushkov automaton per content model
//! per call.
//!
//! Attribute values are enumerated over the constants mentioned in the query plus
//! enough fresh values to realise every equality pattern among the document's attribute
//! slots; queries without data-value comparisons skip that enumeration entirely.

use crate::budget::{BudgetMeter, Exhausted};
use crate::sat::Satisfiability;
use std::collections::BTreeMap;
use xpsat_dtd::{CompiledDtd, Dtd, DtdArtifacts, DtdClass, Sym};
use xpsat_xmltree::{Document, NodeId};
use xpsat_xpath::{eval, Features, Path, Qualifier};

/// Budgets for the bounded search.
#[derive(Debug, Clone)]
pub struct EnumerationLimits {
    /// Maximum document depth explored (root has depth 0).
    pub max_depth: usize,
    /// Maximum length of any children word.
    pub max_word_len: usize,
    /// Maximum number of distinct subtrees kept per (element type, depth) pair.
    pub max_variants: usize,
    /// Maximum number of candidate documents evaluated.
    pub max_documents: usize,
    /// Maximum number of attribute-value assignments evaluated per document.
    pub max_valuations: usize,
}

impl Default for EnumerationLimits {
    fn default() -> Self {
        EnumerationLimits {
            max_depth: 6,
            max_word_len: 4,
            max_variants: 200,
            max_documents: 5_000,
            max_valuations: 2_000,
        }
    }
}

/// Decide `(query, dtd)` by bounded enumeration of conforming documents, against
/// precompiled artifacts and under a step/deadline budget.  The meter is charged per
/// subtree assembled and per candidate document evaluated; on exhaustion the search
/// stops where it stands and reports [`Exhausted`] (any witness found before that
/// point would already have been returned).
pub fn decide_with_budget(
    artifacts: &DtdArtifacts,
    query: &Path,
    limits: &EnumerationLimits,
    meter: &BudgetMeter,
) -> Result<Satisfiability, Exhausted> {
    let Some(compiled) = artifacts.compiled() else {
        // No conforming document exists at all.
        return Ok(Satisfiability::Unsatisfiable);
    };
    let original_dtd = artifacts.dtd();
    let mut enumerator = Enumerator {
        compiled,
        original_dtd,
        limits,
        meter,
        truncated: false,
        cache: BTreeMap::new(),
    };
    // For nonrecursive DTDs, raising the depth budget to the DTD's own depth bound makes
    // the enumeration exhaustive (when the other budgets suffice).
    let depth = match compiled.graph().depth_bound() {
        Some(bound) => bound.max(limits.max_depth).min(24),
        None => limits.max_depth,
    };
    let candidates = enumerator.subtrees(compiled.root(), depth)?;
    let needs_values = Features::of_path(query).data_value;
    let constants = query_constants(query);

    for (examined, candidate) in candidates.iter().enumerate() {
        if examined >= limits.max_documents {
            enumerator.truncated = true;
            break;
        }
        meter.spend(1)?;
        if needs_values {
            match try_valuations(candidate, original_dtd, query, &constants, limits, meter)? {
                ValuationOutcome::Found(doc) => return Ok(Satisfiability::Satisfiable(doc)),
                ValuationOutcome::Exhausted => {}
                ValuationOutcome::Truncated => enumerator.truncated = true,
            }
        } else if eval::satisfies(candidate, query) {
            return Ok(Satisfiability::Satisfiable(candidate.clone()));
        }
    }
    Ok(
        if enumerator.truncated || candidates.len() > limits.max_documents {
            Satisfiability::Unknown
        } else {
            Satisfiability::Unsatisfiable
        },
    )
}

/// Is the bounded search exhaustive for DTDs of this class under the given limits (so
/// that an `Unsatisfiable` answer is definitive)?  This is a quick syntactic check used
/// by the solver façade to report completeness; [`decide_with_budget`] itself tracks
/// truncation exactly.
pub fn is_exhaustive_for_class(class: &DtdClass, limits: &EnumerationLimits) -> bool {
    !class.recursive && !class.has_star && class.depth_bound.is_some_and(|d| d <= limits.max_depth)
}

struct Enumerator<'a> {
    compiled: &'a CompiledDtd,
    original_dtd: &'a Dtd,
    limits: &'a EnumerationLimits,
    meter: &'a BudgetMeter,
    truncated: bool,
    cache: BTreeMap<(Sym, usize), Vec<Document>>,
}

impl<'a> Enumerator<'a> {
    /// All conforming subtrees rooted at an element of type `label`, up to the depth and
    /// variant budgets.  Attribute slots are filled with the placeholder `"0"`.
    fn subtrees(&mut self, label: Sym, depth: usize) -> Result<Vec<Document>, Exhausted> {
        if let Some(cached) = self.cache.get(&(label, depth)) {
            return Ok(cached.clone());
        }
        let mut result = Vec::new();
        let label_name = self.compiled.name(label).to_string();
        let words = self.children_words(label)?;
        for word in words {
            if depth == 0 && !word.is_empty() {
                self.truncated = true;
                continue;
            }
            // Cartesian product of child subtree choices.
            let mut assemblies: Vec<Vec<Document>> = vec![Vec::new()];
            for &child_label in &word {
                let options = self.subtrees(child_label, depth.saturating_sub(1))?;
                if options.is_empty() {
                    assemblies.clear();
                    break;
                }
                let mut next = Vec::new();
                for assembly in &assemblies {
                    for option in &options {
                        // One partial assembly cloned: the unit the cartesian
                        // product's blow-up is made of.
                        self.meter.spend(1)?;
                        if next.len() + result.len() > self.limits.max_variants {
                            self.truncated = true;
                            break;
                        }
                        let mut extended = assembly.clone();
                        extended.push(option.clone());
                        next.push(extended);
                    }
                }
                assemblies = next;
            }
            for assembly in assemblies {
                self.meter.spend(1)?;
                if result.len() >= self.limits.max_variants {
                    self.truncated = true;
                    break;
                }
                let mut doc = Document::new(&label_name);
                for attr in &self.original_dtd.attributes(&label_name) {
                    doc.set_attr(doc.root(), attr.clone(), "0");
                }
                for subtree in &assembly {
                    doc.graft(doc.root(), subtree, subtree.root());
                }
                result.push(doc);
            }
        }
        self.cache.insert((label, depth), result.clone());
        Ok(result)
    }

    /// All words of the content language up to the length budget; sets the truncation
    /// flag when longer words exist.  The precompiled automaton is walked directly.
    fn children_words(&mut self, label: Sym) -> Result<Vec<Vec<Sym>>, Exhausted> {
        let nfa = self.compiled.automaton(label);
        let mut words = Vec::new();
        // BFS over (state, word) pairs up to the length budget.
        let mut frontier: Vec<(usize, Vec<Sym>)> = vec![(nfa.start(), Vec::new())];
        for len in 0..=self.limits.max_word_len {
            let mut next = Vec::new();
            for (state, word) in &frontier {
                self.meter.spend(1)?;
                if nfa.is_accepting(*state) {
                    words.push(word.clone());
                }
                if len == self.limits.max_word_len {
                    if nfa.transitions_from(*state).next().is_some() {
                        self.truncated = true;
                    }
                    continue;
                }
                for (sym, succs) in nfa.transitions_from(*state) {
                    for &succ in succs {
                        let mut extended = word.clone();
                        extended.push(*sym);
                        next.push((succ, extended));
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        words.sort();
        words.dedup();
        Ok(words)
    }
}

enum ValuationOutcome {
    Found(Document),
    Exhausted,
    Truncated,
}

/// Constants mentioned in attribute comparisons of the query.
fn query_constants(path: &Path) -> Vec<String> {
    fn walk_path(p: &Path, out: &mut Vec<String>) {
        match p {
            Path::Seq(a, b) | Path::Union(a, b) => {
                walk_path(a, out);
                walk_path(b, out);
            }
            Path::Filter(a, q) => {
                walk_path(a, out);
                walk_qual(q, out);
            }
            _ => {}
        }
    }
    fn walk_qual(q: &Qualifier, out: &mut Vec<String>) {
        match q {
            Qualifier::Path(p) => walk_path(p, out),
            Qualifier::LabelIs(_) => {}
            Qualifier::AttrCmp { path, value, .. } => {
                walk_path(path, out);
                out.push(value.clone());
            }
            Qualifier::AttrJoin { left, right, .. } => {
                walk_path(left, out);
                walk_path(right, out);
            }
            Qualifier::And(a, b) | Qualifier::Or(a, b) => {
                walk_qual(a, out);
                walk_qual(b, out);
            }
            Qualifier::Not(inner) => walk_qual(inner, out),
        }
    }
    let mut out = Vec::new();
    walk_path(path, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Enumerate attribute valuations over the constants plus enough fresh values to realise
/// any equality pattern among the document's attribute slots.
fn try_valuations(
    doc: &Document,
    dtd: &Dtd,
    query: &Path,
    constants: &[String],
    limits: &EnumerationLimits,
    meter: &BudgetMeter,
) -> Result<ValuationOutcome, Exhausted> {
    // Collect attribute slots in a fixed order.
    let mut slots: Vec<(NodeId, String)> = Vec::new();
    for node in doc.all_nodes() {
        for attr in dtd.attributes(doc.label(node)) {
            slots.push((node, attr));
        }
    }
    if slots.is_empty() {
        return Ok(if eval::satisfies(doc, query) {
            ValuationOutcome::Found(doc.clone())
        } else {
            ValuationOutcome::Exhausted
        });
    }
    let mut domain: Vec<String> = constants.to_vec();
    for i in 0..slots.len() {
        domain.push(format!("_fresh{i}"));
    }
    let total: usize = domain
        .len()
        .checked_pow(slots.len() as u32)
        .unwrap_or(usize::MAX);
    let budget = total.min(limits.max_valuations);
    let truncated = total > limits.max_valuations;

    let mut counters = vec![0usize; slots.len()];
    for _ in 0..budget {
        meter.spend(1)?;
        let mut candidate = doc.clone();
        for (slot, &value_index) in slots.iter().zip(&counters) {
            candidate.set_attr(slot.0, slot.1.clone(), domain[value_index].clone());
        }
        if eval::satisfies(&candidate, query) {
            return Ok(ValuationOutcome::Found(candidate));
        }
        // Increment the mixed-radix counter.
        for digit in counters.iter_mut() {
            *digit += 1;
            if *digit < domain.len() {
                break;
            }
            *digit = 0;
        }
    }
    Ok(if truncated {
        ValuationOutcome::Truncated
    } else {
        ValuationOutcome::Exhausted
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::verify_witness;
    use xpsat_dtd::{classify, parse_dtd};
    use xpsat_xpath::parse_path;

    fn limits() -> EnumerationLimits {
        EnumerationLimits::default()
    }

    fn decide(dtd: &Dtd, query: &Path, limits: &EnumerationLimits) -> Satisfiability {
        decide_with_budget(
            &DtdArtifacts::build(dtd),
            query,
            limits,
            &BudgetMeter::unlimited(),
        )
        .expect("unlimited meter never exhausts")
    }

    #[test]
    fn example_2_3_from_the_paper_is_not_satisfiable() {
        // D: r -> a*, query B: no tree of D satisfies B.  The starred content model
        // makes the bounded enumeration non-exhaustive, so the honest answers are
        // "unknown" here and "unsatisfiable" on the star-free variant.
        let dtd = parse_dtd("r -> a*; a -> #;").unwrap();
        let query = parse_path("b").unwrap();
        assert_ne!(decide(&dtd, &query, &limits()).is_satisfiable(), Some(true));
        let star_free = parse_dtd("r -> a?, a?; a -> #;").unwrap();
        assert!(matches!(
            decide(&star_free, &query, &limits()),
            Satisfiability::Unsatisfiable
        ));
    }

    #[test]
    fn simple_satisfiable_instance_returns_verified_witness() {
        let dtd = parse_dtd("r -> a*; a -> b?; b -> #;").unwrap();
        let query = parse_path("a[b]").unwrap();
        match decide(&dtd, &query, &limits()) {
            Satisfiability::Satisfiable(doc) => {
                verify_witness(&doc, &dtd, &query).unwrap();
            }
            other => panic!("expected satisfiable, got {other}"),
        }
    }

    #[test]
    fn negation_and_upward_axes_are_supported() {
        let dtd = parse_dtd("r -> a, b; a -> c?; b -> c?; c -> #;").unwrap();
        // an a with a c child whose parent has a sibling b without a c child
        let query = parse_path("a[c]/..[b[not(c)]]").unwrap();
        match decide(&dtd, &query, &limits()) {
            Satisfiability::Satisfiable(doc) => verify_witness(&doc, &dtd, &query).unwrap(),
            other => panic!("expected satisfiable, got {other}"),
        }
        // ... but requiring c under both while negating one is contradictory
        let bad = parse_path(".[a[c] and not(a[c])]").unwrap();
        assert!(matches!(
            decide(&dtd, &bad, &limits()),
            Satisfiability::Unsatisfiable
        ));
    }

    #[test]
    fn data_values_use_constants_and_fresh_values() {
        let dtd = parse_dtd("r -> a, a; a -> #; @a: id;").unwrap();
        let same = parse_path(".[a/@id = \"7\"]").unwrap();
        match decide(&dtd, &same, &limits()) {
            Satisfiability::Satisfiable(doc) => verify_witness(&doc, &dtd, &same).unwrap(),
            other => panic!("expected satisfiable, got {other}"),
        }
        // two a-children with different ids (a data-value join at the root)
        let diff = parse_path(".[a/@id != a/@id]").unwrap();
        match decide(&dtd, &diff, &limits()) {
            Satisfiability::Satisfiable(doc) => verify_witness(&doc, &dtd, &diff).unwrap(),
            other => panic!("expected satisfiable, got {other}"),
        }
    }

    #[test]
    fn sibling_axes_are_supported() {
        let dtd = parse_dtd("r -> a, b, c; a -> #; b -> #; c -> #;").unwrap();
        let query = parse_path("a/>[lab() = b]/>[lab() = c]").unwrap();
        assert!(matches!(
            decide(&dtd, &query, &limits()),
            Satisfiability::Satisfiable(_)
        ));
        let bad = parse_path("b/>[lab() = a]").unwrap();
        assert!(matches!(
            decide(&dtd, &bad, &limits()),
            Satisfiability::Unsatisfiable
        ));
    }

    #[test]
    fn recursive_dtd_with_tight_budget_reports_unknown_when_nothing_found() {
        let dtd = parse_dtd("r -> c; c -> (c, x) | #; x -> #;").unwrap();
        // Needs a chain of 10 c's: deeper than the budget below.
        let query = parse_path("c/".repeat(10).trim_end_matches('/')).unwrap();
        let tight = EnumerationLimits {
            max_depth: 3,
            ..EnumerationLimits::default()
        };
        assert!(matches!(
            decide(&dtd, &query, &tight),
            Satisfiability::Unknown
        ));
        // With a budget that is large enough the witness is found.
        let generous = EnumerationLimits {
            max_depth: 12,
            max_variants: 400,
            ..EnumerationLimits::default()
        };
        assert!(matches!(
            decide(&dtd, &query, &generous),
            Satisfiability::Satisfiable(_)
        ));
    }

    #[test]
    fn exhaustiveness_classification() {
        let exhaustive =
            |text: &str| is_exhaustive_for_class(&classify(&parse_dtd(text).unwrap()), &limits());
        assert!(exhaustive("r -> a, b?; a -> #; b -> #;"));
        assert!(!exhaustive("r -> a*; a -> #;"));
        assert!(!exhaustive("r -> c; c -> c | #;"));
    }
}
