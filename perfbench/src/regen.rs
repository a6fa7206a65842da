//! `regen`: generate each workload's query classes and confirm their verdicts
//! independently of the served path, writing `expected/<workload>.tsv`.
//!
//! * A SAT entry is confirmed by [`xpsat_core::sat::verify_witness`] — DTD
//!   validation plus `xpath::eval` on an in-process witness (from the compiled VM
//!   when the class compiles, else from the AST solver).
//! * An UNSAT entry is confirmed by the compiled VM and the AST solver agreeing
//!   within [`AGREE_STEPS`].
//!
//! Classes neither check can confirm are dropped and counted in the file header:
//! VM-bailing classes the AST solver cannot finish within [`AST_STEPS`] (the
//! served path would spend its whole budget on them), VM-bailing UNSAT classes
//! (no second decision procedure to agree with, so AST-route classes are SAT
//! only), and UNSAT classes the AST solver cannot confirm within [`AGREE_STEPS`].
//! A wrong answer is never dropped: a SAT witness that fails verification, or a
//! VM and an AST verdict that differ, fails the regeneration.
//!
//! Every budget counts steps, not time, so the pools do not depend on the speed
//! of the machine that wrote them.

use crate::workload::{Class, Kind, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use xpsat_core::{Budget, Satisfiability, Solver};
use xpsat_dtd::{Dtd, DtdArtifacts, Sym};
use xpsat_plan::{compile_with_reason, vm, CanonicalQuery, CompileLimits, Scratch};
use xpsat_xpath::parse_path;

/// Seed of the class generators; the pools are fixed data, `--seed` only picks
/// request streams over them.
const POOL_SEED: u64 = 2005;
/// Step budget within which a VM-bailing class must be decided by the AST solver.
/// Slower classes would make one run's mix of classes decide its latency tail.
/// On XHTML and DocBook a negation-fixpoint step costs 2-4 us on a 2-vCPU x86-64
/// virtual machine, so this admits classes of up to about 20 ms.
const AST_STEPS: u64 = 4_000;
/// Step budget of the VM decision and of the UNSAT cross-check.  Enumeration and
/// positive-engine steps cost more (10-30 us), so a cross-check that cannot
/// finish costs the pool one candidate and regen well under a second.
/// Regenerating all three pools takes about 2.5 minutes.
const AGREE_STEPS: u64 = 16_000;

/// Pool sizes: classes per DTD.  `realistic_fresh` sends each class once, so its
/// pool must outlast a run: see `Stream::fresh_left`.
fn pool_size(kind: Kind) -> usize {
    match kind {
        Kind::TenantRepeat => 16,
        Kind::RealisticFresh => 4500,
        Kind::WitnessRepeat => 12,
    }
}

/// Share of each realistic pool that bails out of the compiled fragment but
/// completes on the AST solver.
const AST_SHARE: f64 = 0.15;

#[derive(Default)]
struct Dropped {
    vm_fallback: u64,
    vm_over_budget: u64,
    unsat_over_budget: u64,
    ast_over_budget: u64,
    ast_unsat: u64,
    ast_unknown: u64,
    unparsable: u64,
}

/// Confirm one candidate: `Ok(Some((verdict, route)))` when confirmed,
/// `Ok(None)` when dropped (the reason counted in `dropped`), `Err` on a wrong
/// answer.
fn confirm(
    dtd: &Dtd,
    artifacts: &DtdArtifacts,
    solver: &Solver,
    scratch: &mut Scratch,
    text: &str,
    dropped: &mut Dropped,
) -> Result<Option<(Verdict, &'static str)>, String> {
    let Ok(path) = parse_path(text) else {
        dropped.unparsable += 1;
        return Ok(None);
    };
    let canon = CanonicalQuery::of(&path);
    let program = compile_with_reason(artifacts, &canon.path, &CompileLimits::default()).ok();
    let verify = |result: &Satisfiability, engine: &str| -> Result<(), String> {
        let doc = result
            .witness()
            .ok_or_else(|| format!("{text}: {engine} says SAT without a witness"))?;
        xpsat_core::sat::verify_witness(doc, dtd, &path)
            .map_err(|e| format!("{text}: {engine} witness fails verification: {e}"))
    };
    let Some(program) = program else {
        let ast = solver.decide_budgeted(artifacts, &canon.path, &Budget::steps(AST_STEPS));
        if ast.exhausted.is_some() {
            dropped.ast_over_budget += 1;
            return Ok(None);
        }
        return match ast.result {
            Satisfiability::Satisfiable(_) => {
                verify(&ast.result, "AST solver")?;
                Ok(Some((Verdict::Sat, "ast")))
            }
            Satisfiability::Unsatisfiable => {
                dropped.ast_unsat += 1;
                Ok(None)
            }
            _ => {
                dropped.ast_unknown += 1;
                Ok(None)
            }
        };
    };
    // `None`: the VM could not realise a witness and the server falls back to
    // the AST solver for this class.
    let Some(decision) = vm::decide(&program, artifacts, scratch, &Budget::steps(AGREE_STEPS))
    else {
        dropped.vm_fallback += 1;
        return Ok(None);
    };
    match decision.result {
        Satisfiability::Satisfiable(_) => {
            verify(&decision.result, "compiled VM")?;
            Ok(Some((Verdict::Sat, "vm")))
        }
        Satisfiability::Unsatisfiable => {
            let ast = solver.decide_budgeted(artifacts, &canon.path, &Budget::steps(AGREE_STEPS));
            match ast.result {
                Satisfiability::Unsatisfiable if ast.complete => Ok(Some((Verdict::Unsat, "vm"))),
                Satisfiability::Satisfiable(_) => Err(format!(
                    "{text}: compiled VM says UNSAT, AST solver says SAT ({})",
                    match verify(&ast.result, "AST solver") {
                        Ok(()) => "its witness verifies".to_string(),
                        Err(e) => e,
                    }
                )),
                _ => {
                    dropped.unsat_over_budget += 1;
                    Ok(None)
                }
            }
        }
        _ => {
            dropped.vm_over_budget += 1;
            Ok(None)
        }
    }
}

/// Labels of the children `sym` may have.
fn children(artifacts: &DtdArtifacts, name: &str) -> Vec<String> {
    let compiled = artifacts.compiled().expect("corpus DTDs compile");
    let Some(sym) = compiled.elem_sym(name) else {
        return Vec::new();
    };
    compiled
        .graph()
        .succ_bits(sym)
        .iter()
        .map(|i| compiled.name(Sym::from_index(i)).to_string())
        .collect()
}

/// A realistic query candidate: one of the `perf_report` realistic-mix shapes
/// (downward, disjunctive, locally negated, sibling) with labels drawn mostly from
/// the DTD's parent/child structure, or — when `bailing` — a shape outside the
/// compiled fragment (nested negation, upward steps).
fn realistic_candidate(rng: &mut StdRng, artifacts: &DtdArtifacts, bailing: bool) -> String {
    let labels = artifacts.dtd().element_names();
    let pick = |rng: &mut StdRng, from: &[String]| from[rng.gen_range(0..from.len())].clone();
    let x = pick(rng, &labels);
    let kids = children(artifacts, &x);
    // Mostly structural children (likely SAT), sometimes any label (likely UNSAT).
    let child = |rng: &mut StdRng| {
        if !kids.is_empty() && rng.gen_bool(0.9) {
            pick(rng, &kids)
        } else {
            pick(rng, &labels)
        }
    };
    let (c, d) = (child(rng), child(rng));
    let grand = {
        let g = children(artifacts, &c);
        if !g.is_empty() && rng.gen_bool(0.9) {
            pick(rng, &g)
        } else {
            pick(rng, &labels)
        }
    };
    if bailing {
        return match rng.gen_range(0..4) {
            0 => format!("**/{x}[not({c}[{grand}])]"),
            1 => format!("**/{x}/{c}/.."),
            2 => format!("**/{x}[{c}/../{d}]"),
            _ => format!("**/{x}[not({c}/{grand})]"),
        };
    }
    let y = pick(rng, &labels);
    let top = pick(rng, &children(artifacts, artifacts.dtd().root()));
    match rng.gen_range(0..12) {
        0 => format!("**/{x}/{c}"),
        1 => format!("**/{x}[{c}]"),
        2 => format!("**/{x}[{c} and {d}]"),
        3 => format!("**/{x}[{c}[{grand}]]"),
        4 => format!("**/{x}/{c}[{grand}]"),
        5 => format!("{top}/**/{x}[{c}]"),
        6 => format!("**/{x}[{c} or {d}]"),
        7 => format!("**/{x}/{c} | **/{y}/{d}"),
        8 => format!("**[lab() = {x} and not({c})]"),
        9 => format!("**/{x}[{c} and not({d})]"),
        10 => format!("**/{x}/{c}/>[lab() = {d}]"),
        _ => format!("**/{x}/{c}/>"),
    }
}

/// Generate and confirm the pool of `kind`, returning the file text, or the first
/// wrong answer met.
pub fn regen(kind: Kind) -> Result<String, String> {
    let dtds = kind.dtds();
    let solver = Solver::default();
    let mut scratch = Scratch::new();
    let mut rng = StdRng::seed_from_u64(POOL_SEED ^ kind.name().len() as u64);
    let mut dropped = Dropped::default();
    let mut pool: Vec<Class> = Vec::new();
    let per_dtd = pool_size(kind);
    for (d, dtd) in dtds.iter().enumerate() {
        let artifacts = DtdArtifacts::build(dtd);
        artifacts.warm();
        let mut seen = BTreeSet::new();
        let mut taken: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut attempts = 0usize;
        while taken.values().sum::<usize>() < per_dtd {
            attempts += 1;
            assert!(
                attempts < per_dtd * 200,
                "{}: generator cannot fill the pool",
                kind.name()
            );
            let ast_quota = match kind {
                Kind::TenantRepeat => per_dtd,
                Kind::RealisticFresh => (per_dtd as f64 * AST_SHARE).round() as usize,
                Kind::WitnessRepeat => 2,
            };
            let want_ast =
                taken.get("ast").copied().unwrap_or(0) < ast_quota && rng.gen_bool(AST_SHARE * 2.0);
            let text = match kind {
                Kind::TenantRepeat => {
                    xpsat_core::corpus::random_positive_query(&mut rng, dtd, 3).to_string()
                }
                _ => realistic_candidate(&mut rng, &artifacts, want_ast),
            };
            let Ok(path) = parse_path(&text) else {
                dropped.unparsable += 1;
                continue;
            };
            if !seen.insert(CanonicalQuery::of(&path).text) {
                continue;
            }
            let began = std::time::Instant::now();
            let confirmed = confirm(dtd, &artifacts, &solver, &mut scratch, &text, &mut dropped)?;
            let took = began.elapsed();
            if took > std::time::Duration::from_secs(1) {
                eprintln!(
                    "slow candidate ({:.0} ms): {text}",
                    took.as_secs_f64() * 1e3
                );
            }
            let Some((verdict, route)) = confirmed else {
                continue;
            };
            let quota_left = match route {
                "ast" => taken.get("ast").copied().unwrap_or(0) < ast_quota,
                _ => taken.get("vm").copied().unwrap_or(0) < per_dtd - ast_quota.min(per_dtd),
            };
            let wanted = quota_left && (kind != Kind::WitnessRepeat || verdict == Verdict::Sat);
            if kind == Kind::TenantRepeat || wanted {
                *taken.entry(route).or_insert(0) += 1;
                pool.push(Class {
                    dtd: d,
                    verdict,
                    route,
                    text,
                });
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} query classes; written by `python3 perfbench/run.py --regen`",
        kind.name()
    );
    let _ = writeln!(
        out,
        "# generator seed {POOL_SEED}; {} classes kept; dropped: \
         {} VM-bailing over the AST budget ({AST_STEPS} steps), \
         {} VM-bailing UNSAT (no VM to agree), {} VM-bailing unknown, \
         {} compiled UNSAT the AST solver cannot confirm in {AGREE_STEPS} steps, \
         {} compiled over {AGREE_STEPS} steps, {} VM witness fallbacks, {} unparsable",
        pool.len(),
        dropped.ast_over_budget,
        dropped.ast_unsat,
        dropped.ast_unknown,
        dropped.unsat_over_budget,
        dropped.vm_over_budget,
        dropped.vm_fallback,
        dropped.unparsable
    );
    let _ = writeln!(
        out,
        "# AST-route classes are SAT only; every SAT witness passed verify_witness and every \
         UNSAT had VM and AST agree"
    );
    let _ = writeln!(out, "# dtd\tverdict\troute\tquery");
    for class in &pool {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            class.dtd,
            class.verdict.as_str(),
            class.route,
            class.text
        );
    }
    Ok(out)
}
