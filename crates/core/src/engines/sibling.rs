//! Theorem 7.1: `SAT(X(→, ←))` is in PTIME.
//!
//! Queries of this fragment have the shape `A1/η1/…/An/ηn`: a downward step to a child
//! with a given label, followed by a sequence of immediate-sibling hops, repeated.  The
//! paper decides satisfiability by walking over the Glushkov automata of the content
//! models: entering a level at some position whose symbol is `Ai`, a `→` hop follows a
//! forward transition between positions and a `←` hop a backward one, and a further
//! downward step descends into the content model of the position's symbol.
//!
//! The walk is implemented as a DFS over configurations `(parent type, position)` with
//! back-pointers, from which a witness document is reconstructed by laying out, per
//! level, one children word containing all visited positions.  The automata and their
//! useful-state masks come precomputed from [`DtdArtifacts`]; the walk itself only
//! touches interned [`Sym`]s and position indices.

use crate::sat::{SatError, Satisfiability};
use crate::witness::fill_missing_attributes;
use std::collections::BTreeMap;
use xpsat_dtd::{CompiledDtd, DtdArtifacts, Sym, SymNfa};
use xpsat_xmltree::Document;
use xpsat_xpath::Path;

const ENGINE: &str = "sibling (Theorem 7.1)";

/// One primitive step of the fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Down(String),
    Right,
    Left,
}

/// The query's steps, or `None` when it lies outside `X(→, ←)`: exactly the queries
/// [`xpsat_xpath::Fragment::sibling_no_qualifiers`] permits.
fn flatten(query: &Path) -> Option<Vec<Step>> {
    let mut steps = Vec::new();
    if collect(query, &mut steps) {
        Some(steps)
    } else {
        None
    }
}

fn collect(p: &Path, out: &mut Vec<Step>) -> bool {
    match p {
        Path::Seq(a, b) => collect(a, out) && collect(b, out),
        Path::Empty => true,
        Path::Label(l) => {
            out.push(Step::Down(l.clone()));
            true
        }
        Path::NextSibling => {
            out.push(Step::Right);
            true
        }
        Path::PrevSibling => {
            out.push(Step::Left);
            true
        }
        _ => false,
    }
}

/// A down-step with its label resolved against the symbol table (`None` when the label
/// is not a declared element type, which makes the step unsatisfiable).
#[derive(Debug, Clone, Copy)]
enum SymStep {
    Down(Option<Sym>),
    Right,
    Left,
}

/// Decide `(query, dtd)` against precompiled artifacts; complete for `X(→, ←)`, and
/// queries outside it are rejected.
pub fn decide_with(artifacts: &DtdArtifacts, query: &Path) -> Result<Satisfiability, SatError> {
    let Some(steps) = flatten(query) else {
        return Err(SatError::UnsupportedFragment {
            engine: ENGINE,
            detail: format!("query {query} uses operators outside X(label, next-sib, prev-sib)"),
        });
    };
    let Some(compiled) = artifacts.compiled() else {
        return Ok(Satisfiability::Unsatisfiable);
    };
    // A query that starts with a sibling hop is unsatisfiable at the root (the root has
    // no siblings).
    if matches!(steps.first(), Some(Step::Right) | Some(Step::Left)) {
        return Ok(Satisfiability::Unsatisfiable);
    }
    let steps: Vec<SymStep> = steps
        .iter()
        .map(|s| match s {
            Step::Down(label) => SymStep::Down(compiled.elem_sym(label)),
            Step::Right => SymStep::Right,
            Step::Left => SymStep::Left,
        })
        .collect();

    // A level of the search: the parent element type and the walk over the positions of
    // its content model.  `laid` is the sequence of consecutive positions materialised
    // so far, `cursor` the index of the current node within it.
    #[derive(Debug, Clone)]
    struct Level {
        parent: Sym,
        laid: Vec<usize>,
        cursor: usize,
    }

    // Depth-first search over the steps; levels form a stack (outer levels are frozen
    // once we descend, because the fragment cannot go back up).
    fn search(
        steps: &[SymStep],
        compiled: &CompiledDtd,
        level: &mut Level,
    ) -> Option<Vec<(Sym, Vec<usize>, usize)>> {
        let Some(step) = steps.first() else {
            return Some(vec![(level.parent, level.laid.clone(), level.cursor)]);
        };
        let rest = &steps[1..];
        let nfa = compiled.automaton(level.parent);
        let useful = compiled.useful_states(level.parent);
        match step {
            SymStep::Down(label) => {
                let label = (*label)?;
                // Descend into the content model of the current position's symbol.
                let current_symbol = *nfa
                    .symbol_of(level.laid[level.cursor])
                    .expect("positions carry symbols");
                let child_nfa = compiled.automaton(current_symbol);
                let child_useful = compiled.useful_states(current_symbol);
                for position in 1..child_nfa.num_states() {
                    if !child_useful.contains(position)
                        || child_nfa.symbol_of(position) != Some(&label)
                    {
                        continue;
                    }
                    let mut child_level = Level {
                        parent: current_symbol,
                        laid: vec![position],
                        cursor: 0,
                    };
                    if let Some(mut tail) = search(rest, compiled, &mut child_level) {
                        let mut result = vec![(level.parent, level.laid.clone(), level.cursor)];
                        result.append(&mut tail);
                        return Some(result);
                    }
                }
                None
            }
            SymStep::Right => {
                if level.cursor + 1 < level.laid.len() {
                    level.cursor += 1;
                    let result = search(rest, compiled, level);
                    level.cursor -= 1;
                    return result;
                }
                // Extend the laid word to the right with any useful successor position.
                let last = *level.laid.last().expect("laid is nonempty");
                let successors: Vec<usize> = nfa
                    .transitions_from(last)
                    .flat_map(|(_, succs)| succs.iter().copied())
                    .filter(|s| useful.contains(*s))
                    .collect();
                for succ in successors {
                    level.laid.push(succ);
                    level.cursor += 1;
                    if let Some(result) = search(rest, compiled, level) {
                        return Some(result);
                    }
                    level.cursor -= 1;
                    level.laid.pop();
                }
                None
            }
            SymStep::Left => {
                if level.cursor > 0 {
                    level.cursor -= 1;
                    let result = search(rest, compiled, level);
                    level.cursor += 1;
                    return result;
                }
                // Prepend a useful predecessor position.
                let first = level.laid[0];
                let predecessors: Vec<usize> = (1..nfa.num_states())
                    .filter(|&q| {
                        useful.contains(q)
                            && nfa
                                .step(q, nfa.symbol_of(first).expect("position"))
                                .any(|t| t == first)
                    })
                    .collect();
                for pred in predecessors {
                    level.laid.insert(0, pred);
                    if let Some(result) = search(rest, compiled, level) {
                        return Some(result);
                    }
                    level.laid.remove(0);
                }
                None
            }
        }
    }

    // The first step must be a Down into the root's content model.
    let Some(SymStep::Down(first_label)) = steps.first().copied() else {
        // Empty query: trivially satisfiable by any conforming document.
        let doc = compiled
            .generator()
            .minimal_tree(compiled.name(compiled.root()))
            .map(|mut d| {
                fill_missing_attributes(&mut d, compiled.dtd());
                d
            })
            .ok_or(SatError::NonTerminatingRoot)?;
        return Ok(Satisfiability::Satisfiable(doc));
    };
    let Some(first_label) = first_label else {
        // The first label is not a declared element type.
        return Ok(Satisfiability::Unsatisfiable);
    };

    let root = compiled.root();
    let root_nfa = compiled.automaton(root);
    let root_useful = compiled.useful_states(root);
    for position in 1..root_nfa.num_states() {
        if !root_useful.contains(position) || root_nfa.symbol_of(position) != Some(&first_label) {
            continue;
        }
        let mut level = Level {
            parent: root,
            laid: vec![position],
            cursor: 0,
        };
        if let Some(levels) = search(&steps[1..], compiled, &mut level) {
            if let Some(doc) = build_witness(compiled, &levels) {
                return Ok(Satisfiability::Satisfiable(doc));
            }
        }
    }
    Ok(Satisfiability::Unsatisfiable)
}

/// Materialise the per-level laid positions into a conforming document.
fn build_witness(compiled: &CompiledDtd, levels: &[(Sym, Vec<usize>, usize)]) -> Option<Document> {
    let generator = compiled.generator();
    let mut doc = Document::new(compiled.name(compiled.root()));
    let mut current = doc.root();
    for (parent_type, laid, cursor) in levels {
        debug_assert_eq!(doc.label(current), compiled.name(*parent_type));
        let nfa = compiled.automaton(*parent_type);
        // Full children word: shortest prefix from the start state to laid[0] (the
        // prefix *ends* at laid[0]), the remaining laid positions, and a shortest
        // suffix to acceptance.
        let prefix = shortest_state_path(nfa, nfa.start(), laid[0])?;
        let cursor_index = prefix.len() - 1 + cursor;
        let mut word_positions: Vec<usize> = prefix;
        word_positions.extend(laid.iter().skip(1).copied());
        let suffix = shortest_suffix_to_acceptance(nfa, *word_positions.last()?)?;
        word_positions.extend(suffix);

        let mut next_current = None;
        for (i, position) in word_positions.iter().enumerate() {
            let label = compiled.name(*nfa.symbol_of(*position)?);
            let child = doc.add_child(current, label);
            if i == cursor_index {
                next_current = Some(child);
            }
        }
        // Expand all children except the one we descend into.
        let children: Vec<_> = doc.children(current).to_vec();
        let descend_into = next_current?;
        for child in children {
            if child != descend_into {
                generator.expand_minimal(&mut doc, child);
            }
        }
        current = descend_into;
    }
    generator.expand_minimal(&mut doc, current);
    fill_missing_attributes(&mut doc, compiled.dtd());
    Some(doc)
}

/// Shortest sequence of positions from `from` (exclusive) to `to` (inclusive) following
/// forward transitions; when `from == to`, returns just `[to]` if `to` is an entry
/// position... — for our use `from` is the initial state, so the result is the prefix of
/// a word ending at `to`.
fn shortest_state_path(nfa: &SymNfa, from: usize, to: usize) -> Option<Vec<usize>> {
    use std::collections::VecDeque;
    if from == to {
        return Some(vec![]);
    }
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(q) = queue.pop_front() {
        for (_, succs) in nfa.transitions_from(q) {
            for &next in succs {
                if next != from && !pred.contains_key(&next) {
                    pred.insert(next, q);
                    queue.push_back(next);
                }
            }
        }
        if pred.contains_key(&to) {
            break;
        }
    }
    if !pred.contains_key(&to) {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while let Some(&prev) = pred.get(&cur) {
        if prev == from {
            break;
        }
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

/// Shortest sequence of positions continuing from `state` to an accepting state.
fn shortest_suffix_to_acceptance(nfa: &SymNfa, state: usize) -> Option<Vec<usize>> {
    use std::collections::VecDeque;
    if nfa.is_accepting(state) {
        return Some(vec![]);
    }
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(state);
    let mut goal = None;
    'outer: while let Some(q) = queue.pop_front() {
        for (_, succs) in nfa.transitions_from(q) {
            for &next in succs {
                if next != state && !pred.contains_key(&next) {
                    pred.insert(next, q);
                    if nfa.is_accepting(next) {
                        goal = Some(next);
                        break 'outer;
                    }
                    queue.push_back(next);
                }
            }
        }
    }
    let mut cur = goal?;
    let mut path = vec![cur];
    while let Some(&prev) = pred.get(&cur) {
        if prev == state {
            break;
        }
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    Some(path)
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
                    "{query_text} should be unsatisfiable under `{dtd_text}`"
                );
                verify_witness(&doc, &dtd, &query).unwrap();
            }
            Satisfiability::Unsatisfiable => assert!(
                !expected,
                "{query_text} should be satisfiable under `{dtd_text}`"
            ),
            Satisfiability::Unknown => panic!("sibling engine must be definite"),
        }
    }

    #[test]
    fn sibling_order_is_respected() {
        let dtd = "r -> a, b, c; a -> #; b -> #; c -> #;";
        check(dtd, "a/>/>", true);
        check(dtd, "b/>", true);
        check(dtd, "c/>", false);
        check(dtd, "a/<", false);
        check(dtd, "c/</<", true);
        check(dtd, "b/</>", true);
    }

    #[test]
    fn descent_after_sibling_hops() {
        let dtd = "r -> a, b; a -> #; b -> x?; x -> #;";
        check(dtd, "a/>/x", true);
        check(dtd, "b/>/x", false);
        check(dtd, "a/x", false);
    }

    #[test]
    fn starred_content_models() {
        let dtd = "r -> (a | b)*; a -> #; b -> #;";
        check(dtd, "a/>", true);
        check(dtd, "a/>/>/>", true);
        check(dtd, "b/</>", true);
    }

    #[test]
    fn undeclared_labels_are_unsatisfiable() {
        let dtd = "r -> a; a -> #;";
        check(dtd, "ghost", false);
        check(dtd, "a/ghost", false);
    }

    #[test]
    fn queries_starting_with_sibling_hops_are_unsatisfiable() {
        check("r -> a; a -> #;", ">/a", false);
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let artifacts = DtdArtifacts::build(&parse_dtd("r -> a; a -> #;").unwrap());
        assert!(decide_with(&artifacts, &parse_path("a[b]").unwrap()).is_err());
        assert!(decide_with(&artifacts, &parse_path("a/>>").unwrap()).is_err());
    }
}
