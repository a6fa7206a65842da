//! Shared workload-corpus generators.
//!
//! One source of truth for the seeded DTD/query corpora used by the benchmark harness
//! (`xpsat-bench`) and the service CLI's `bench-gen` command (`xpsat-service`).  The
//! service crate sits below the bench crate in the dependency graph, so the generators
//! live here — the deepest crate that sees both DTDs and XPath — and both consumers
//! import them; a fixed seed then yields byte-identical corpora everywhere.

use rand::rngs::StdRng;
use rand::Rng;
use xpsat_dtd::{parse_dtd, Dtd};
use xpsat_xpath::{Path, Qualifier};

/// A chain-and-branch DTD with `width` sibling types per level and `depth` levels,
/// used to scale `|D|` for the PTIME engines.
pub fn layered_dtd(depth: usize, width: usize) -> Dtd {
    let mut text = String::from("root l0;\n");
    let level_types =
        |level: usize| -> Vec<String> { (0..width).map(|w| format!("l{level}_{w}")).collect() };
    text.push_str(&format!("l0 -> ({})*;\n", level_types(1).join(" | ")));
    for level in 1..=depth {
        for name in level_types(level) {
            if level == depth {
                text.push_str(&format!("{name} -> #;\n"));
            } else {
                text.push_str(&format!(
                    "{name} -> ({})*;\n",
                    level_types(level + 1).join(" | ")
                ));
            }
        }
    }
    parse_dtd(&text).expect("layered DTD is well-formed")
}

/// A deep chain query `* / * / … / l{depth}_0` of the given length over [`layered_dtd`].
pub fn chain_query(depth: usize) -> Path {
    let mut steps: Vec<Path> =
        std::iter::repeat_n(Path::Wildcard, depth.saturating_sub(1)).collect();
    steps.push(Path::label(format!("l{depth}_0")));
    Path::seq_all(steps)
}

/// A realistic XHTML-1.0-scale document grammar (~80 element types, deeply mutually
/// recursive inline/block structure).  Unlike the synthetic generators above, its
/// content models have the shape real schemas do — wide alternations under `*`,
/// optional-then-required sequences, attribute lists — which is what the artifact
/// pipeline and the hostile-input corpus need to be exercised against.
pub fn xhtml_dtd() -> Dtd {
    parse_dtd(include_str!("../corpus/xhtml1.dtd")).expect("xhtml corpus DTD is well-formed")
}

/// A DocBook-scale book grammar (~170 element types, recursive sections, table and
/// admonition models).  The largest fixture in the repo; used by the realistic-DTD
/// perf bucket to measure artifact build cost and warm decide latency at schema
/// sizes real deployments see.
pub fn docbook_dtd() -> Dtd {
    parse_dtd(include_str!("../corpus/docbook-lite.dtd"))
        .expect("docbook corpus DTD is well-formed")
}

/// A random positive query with qualifiers over the labels of a DTD.
pub fn random_positive_query(rng: &mut StdRng, dtd: &Dtd, depth: usize) -> Path {
    let labels: Vec<String> = dtd.element_names();
    fn go(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
        if depth == 0 {
            return Path::label(labels[rng.gen_range(0..labels.len())].clone());
        }
        match rng.gen_range(0..5) {
            0 => Path::label(labels[rng.gen_range(0..labels.len())].clone()),
            1 => Path::DescendantOrSelf,
            2 => Path::seq(go(rng, labels, depth - 1), go(rng, labels, depth - 1)),
            3 => Path::union(go(rng, labels, depth - 1), go(rng, labels, depth - 1)),
            _ => go(rng, labels, depth - 1).filter(Qualifier::path(go(rng, labels, depth - 1))),
        }
    }
    go(rng, &labels, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn layered_dtd_shape() {
        let dtd = layered_dtd(2, 3);
        assert_eq!(dtd.root(), "l0");
        assert_eq!(dtd.element_names().len(), 7);
        assert!(dtd.contains("l2_2"));
    }

    #[test]
    fn realistic_dtds_parse_and_classify() {
        let xhtml = xhtml_dtd();
        assert_eq!(xhtml.root(), "html");
        assert!(
            xhtml.element_names().len() >= 75,
            "{}",
            xhtml.element_names().len()
        );
        let docbook = docbook_dtd();
        assert_eq!(docbook.root(), "book");
        assert!(
            docbook.element_names().len() >= 150,
            "{}",
            docbook.element_names().len()
        );
        // Both are recursive (div-in-div, section-in-section) and answer queries.
        let solver = crate::Solver::default();
        let q = xpsat_xpath::parse_path("body/**/div[table]").unwrap();
        assert!(solver.decide(&xhtml, &q).result.is_definite());
        let q = xpsat_xpath::parse_path("**/section[not(title)]").unwrap();
        assert!(solver.decide(&docbook, &q).result.is_definite());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let dtd = layered_dtd(2, 2);
        let a: Vec<String> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..10)
                .map(|_| random_positive_query(&mut r, &dtd, 3).to_string())
                .collect()
        };
        let b: Vec<String> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..10)
                .map(|_| random_positive_query(&mut r, &dtd, 3).to_string())
                .collect()
        };
        assert_eq!(a, b);
        assert_eq!(chain_query(3).to_string(), "*/*/l3_0");
    }
}
