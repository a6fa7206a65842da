//! Helpers for turning the engines' abstract witnesses (chains of element types, chosen
//! children words) into complete documents that conform to the DTD.

use std::collections::BTreeSet;
use xpsat_automata::CoverDemand;
use xpsat_dtd::{CompiledDtd, Dtd, Sym};
use xpsat_xmltree::{Document, NodeId};

/// Build a conforming document containing a root-to-leaf chain of elements whose labels
/// are `chain`, given in interned symbols (the root is the DTD's root and is not part of
/// `chain`).
///
/// Every node along the chain gets a children word, taken from the precompiled
/// content-model automata, that contains the next chain label (plus whatever siblings
/// its content model forces); all other nodes are expanded minimally.  Returns `None`
/// when some step of the chain cannot be realised — which cannot happen for chains
/// produced by the reachability analyses.
pub fn materialize_chain_compiled(compiled: &CompiledDtd, chain: &[Sym]) -> Option<Document> {
    let mut doc = Document::new(compiled.name(compiled.root()));
    let mut current = doc.root();
    let mut current_sym = compiled.root();
    for &step in chain {
        let nfa = compiled.automaton(current_sym);
        let demand = CoverDemand::none().require(step, 1);
        let word = xpsat_automata::shortest_covering_word(nfa, &demand)?;
        let mut chain_child = None;
        for sym in word {
            let child = doc.add_child(current, compiled.name(sym));
            if chain_child.is_none() && sym == step {
                chain_child = Some(child);
            }
        }
        let children: Vec<NodeId> = doc.children(current).to_vec();
        for child in children {
            if Some(child) != chain_child {
                compiled.generator().expand_minimal(&mut doc, child);
            }
        }
        current = chain_child?;
        current_sym = step;
    }
    compiled.generator().expand_minimal(&mut doc, current);
    fill_missing_attributes(&mut doc, compiled.dtd());
    Some(doc)
}

/// Give every node exactly the attributes its element type declares, filling missing
/// ones with the placeholder value `"0"` and removing none (engines never add undeclared
/// attributes).
pub fn fill_missing_attributes(doc: &mut Document, dtd: &Dtd) {
    let nodes = doc.all_nodes();
    for node in nodes {
        let declared: BTreeSet<String> = dtd.attributes(doc.label(node));
        for attr in declared {
            if doc.attr(node, &attr).is_none() {
                doc.set_attr(node, attr, "0");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_dtd::{parse_dtd, validate, DtdArtifacts};

    #[test]
    fn chains_are_materialised_into_conforming_documents() {
        let dtd =
            parse_dtd("r -> head, (a | b)*; a -> c, d; b -> #; c -> #; d -> #; head -> #; @c: id;")
                .unwrap();
        let artifacts = DtdArtifacts::build(&dtd);
        let compiled = artifacts.compiled().unwrap();
        let chain = ["a", "c"].map(|name| compiled.elem_sym(name).unwrap());
        let doc = materialize_chain_compiled(compiled, &chain).unwrap();
        assert_eq!(validate(&doc, &dtd), Ok(()));
        // The chain r/a/c exists.
        let query = xpsat_xpath::parse_path("a/c").unwrap();
        assert!(xpsat_xpath::eval::satisfies(&doc, &query));
    }

    #[test]
    fn impossible_chains_are_rejected() {
        let dtd = parse_dtd("r -> a; a -> #; b -> #;").unwrap();
        let artifacts = DtdArtifacts::build(&dtd);
        let compiled = artifacts.compiled().unwrap();
        let b = compiled.elem_sym("b").unwrap();
        assert!(materialize_chain_compiled(compiled, &[b]).is_none());
    }
}
