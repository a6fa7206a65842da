//! `perf_report`: the reproducible performance harness behind `BENCH_xpsat.json`.
//!
//! For every engine of the solver façade the binary times a fixed, seeded query corpus
//! against one DTD in two modes:
//!
//! * **cold** — `Solver::decide`, which compiles the per-DTD artifacts inside every
//!   call.  This reproduces the pre-artifact-pipeline behaviour (classification, graph
//!   reachability, pruning and Glushkov construction re-derived per query), so the
//!   committed baseline keeps an honest "what recompute costs" column.
//! * **warm** — `Solver::decide_budgeted` (unlimited) against artifacts built once, the
//!   one-compile-many-queries flow the service uses.
//!
//! It also times:
//!
//! * a **negation-heavy bucket** — a larger corpus of nested-negation queries over
//!   richer DTDs, all dispatching to the EXPTIME fixpoint engine (the engine the
//!   dirty-worklist rework targets);
//! * the warm-workspace batch path: `Workspace::decide_batch` over a corpus of 100+
//!   distinct queries on one registered DTD (single-threaded, empty decision cache)
//!   against the cold per-query loop;
//! * a **compiled-VM bucket** — the batch corpus' in-fragment queries lowered once to
//!   flat decision programs and replayed in the VM, against the AST solver's warm
//!   dispatch on the same artifacts (compile cost reported separately, since it is
//!   paid once per equivalence class and amortised by the program cache);
//! * a **canonical-cache bucket** — the cross-tenant drill: one workspace decides the
//!   corpus and publishes to a shared [`CanonicalCache`]; a second workspace (fresh
//!   interner, nothing served yet) then answers the same corpus entirely from
//!   shared canonical hits, against the solve-everything cost a lone tenant pays;
//! * a **realistic-DTD bucket** — XHTML and DocBook: `build_ns` times
//!   `DtdArtifacts::build` alone and `register_ns` the build plus `warm()` (automata,
//!   useful-state masks, tree generator), which is what a registration pays for its
//!   artifacts; `decode_ns` is `Json::parse` of the DTD's `register_dtd` request
//!   line, what every registration pays before it is admitted; then warm AST and VM
//!   decides over a fixed query mix.
//!
//! The medians (nanoseconds per query) are written as JSON to `BENCH_xpsat.json` at the
//! repo root so successive PRs have a trajectory to compare against:
//!
//! ```text
//! cargo run --release -p xpsat-bench --bin perf_report
//! cargo run --release -p xpsat-bench --bin perf_report -- --iters 3 --out /tmp/b.json
//! ```
//!
//! Absolute numbers are machine-dependent; the tracked signals are the per-engine
//! trend across commits and the cold/warm ratio (artifact reuse paying off).  The CI
//! perf-regression step compares the warm medians of a fresh run against the committed
//! baseline and fails on >25% regressions.

use std::sync::Arc;
use std::time::Instant;
use xpsat_bench::{chain_query, random_positive_query, rng};
use xpsat_core::{Budget, Solver};
use xpsat_dtd::{parse_dtd, Dtd, DtdArtifacts};
use xpsat_plan::{compile, vm, CanonicalQuery, CompileLimits, DecisionProgram, Scratch};
use xpsat_service::{engine_slug, CanonicalCache, Json, Workspace};
use xpsat_xpath::{parse_path, Path};

struct EngineCorpus {
    slug: &'static str,
    dtd: Dtd,
    queries: Vec<Path>,
}

fn corpus() -> Vec<EngineCorpus> {
    let layered = xpsat_bench::layered_dtd(4, 3);
    let sibling_dtd =
        parse_dtd("r -> k0, k1, k2, k3, k4; k0 -> #; k1 -> #; k2 -> #; k3 -> #; k4 -> #;").unwrap();
    let djfree_dtd = parse_dtd(
        "r -> book*; book -> title, author+, price; title -> #; author -> #; price -> #;",
    )
    .unwrap();
    let threesat_dtd =
        parse_dtd("r -> x1, x2, x3; x1 -> t | f; x2 -> t | f; x3 -> t | f; t -> #; f -> #;")
            .unwrap();
    let nonrec_dtd = parse_dtd("r -> a; a -> b?; b -> c?; c -> #;").unwrap();
    let enum_dtd = parse_dtd("r -> a, b?; a -> c?; b -> #; c -> #;").unwrap();

    let paths =
        |texts: &[&str]| -> Vec<Path> { texts.iter().map(|t| parse_path(t).unwrap()).collect() };

    vec![
        EngineCorpus {
            slug: "downward",
            dtd: layered.clone(),
            queries: {
                let mut qs: Vec<Path> = (1..=4).map(chain_query).collect();
                qs.extend(paths(&[
                    "**/l4_0",
                    "**/l2_1/**/l4_2",
                    "l1_0/l2_0 | l1_1/l2_1",
                ]));
                qs
            },
        },
        EngineCorpus {
            slug: "sibling",
            dtd: sibling_dtd,
            queries: paths(&["k0/>/>", "k4/</</<", "k2/>/<", "k0/>/>/>/>", "k3/<"]),
        },
        EngineCorpus {
            slug: "disjunction-free",
            dtd: djfree_dtd,
            queries: paths(&[
                "book[title and isbn]",
                "book[price and missing]",
                ".[book/ghost]",
                "book[title][editor]",
                "book[author and title and price and missing]",
            ]),
        },
        EngineCorpus {
            slug: "positive",
            dtd: threesat_dtd.clone(),
            queries: paths(&[
                ".[x1[t] and x2[f] and x3[t]]",
                ".[x1[t] and x1[f]]",
                "x1[t or f]",
                ".[x1[t] and x2[t] and x3[t] and x1[t]]",
            ]),
        },
        EngineCorpus {
            slug: "negation-fixpoint",
            dtd: threesat_dtd,
            queries: paths(&[
                ".[not(x1/t)]",
                ".[not(x1/t) and not(x2/f)]",
                ".[x1[t] and not(x2[t])]",
            ]),
        },
        EngineCorpus {
            slug: "rewritten",
            dtd: nonrec_dtd,
            queries: paths(&["a/b/..", "a/b/c/../..", "a/.."]),
        },
        EngineCorpus {
            slug: "enumeration",
            dtd: enum_dtd,
            queries: paths(&["a/>[lab() = b]", ".[a and not(b)]/a/..", "b/<[c]"]),
        },
    ]
}

/// The negation-heavy bucket: nested and conjoined negations over two DTD shapes that
/// stress the fixpoint (wide independent choices and a recursive chain), all within
/// `X(↓, ↓*, ∪, [], ¬)` so every query dispatches to the negation-fixpoint engine.
fn negation_heavy_corpus() -> (Dtd, Vec<Path>) {
    let dtd = parse_dtd(
        "r -> x1, x2, x3, x4, chain; x1 -> t | f; x2 -> t | f; x3 -> t | f; x4 -> t | f; \
         t -> #; f -> #; chain -> (chain, leaf) | leaf; leaf -> a?, b?; a -> #; b -> #;",
    )
    .unwrap();
    let texts = [
        ".[not(x1/t)]",
        ".[not(x1/t) and not(x2/t) and not(x3/t) and not(x4/t)]",
        ".[not(x1/t) and x1/f and not(x2/f)]",
        ".[not(x1/t) and not(x1/f)]",
        "**[lab() = leaf and not(a)]",
        "**[lab() = leaf and not(a) and not(b)]",
        "**[lab() = chain and not(chain[leaf[a]])]",
        ".[chain and not(chain/leaf/a) and not(chain/leaf/b)]",
        ".[not(**[lab() = leaf and a])]",
        ".[not(x1[t]) and not(x2[f]) and **[lab() = leaf and not(b)]]",
    ];
    let queries = texts.iter().map(|t| parse_path(t).unwrap()).collect();
    (dtd, queries)
}

/// The distinct-query corpus for the batch benchmark: seeded random positive queries
/// over one layered DTD.
fn batch_corpus(count: usize) -> (Dtd, Vec<Path>) {
    let dtd = xpsat_bench::layered_dtd(3, 3);
    let mut r = rng(42);
    let mut queries: Vec<Path> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    while queries.len() < count {
        let q = random_positive_query(&mut r, &dtd, 3);
        if seen.insert(q.to_string()) {
            queries.push(q);
        }
    }
    (dtd, queries)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Median per-query nanoseconds over `iters` runs of `run` (which processes the whole
/// corpus of `len` queries once).
fn time_per_query(iters: usize, len: usize, mut run: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as f64 / len as f64
        })
        .collect();
    median(samples)
}

fn json_f64(value: f64) -> String {
    format!("{value:.1}")
}

fn main() {
    // The realistic buckets drive the AST dispatch over schema-sized DTDs, where
    // the positive engine recurses to its Lemma 4.5 depth bound — deeper than the
    // default main-thread stack.  Run the harness on a thread sized like the
    // service's decide workers.
    std::thread::Builder::new()
        .stack_size(xpsat_core::DECIDE_STACK_BYTES)
        .spawn(run)
        .expect("spawn harness thread")
        .join()
        .expect("harness panicked");
}

fn run() {
    let mut iters = 25usize;
    let mut batch_queries = 120usize;
    let mut out = "BENCH_xpsat.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters takes a number");
            }
            "--batch-queries" => {
                i += 1;
                batch_queries = args[i].parse().expect("--batch-queries takes a number");
            }
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            other => {
                eprintln!("unknown argument {other}; usage: perf_report [--iters N] [--batch-queries N] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let iters = iters.max(1);
    let batch_queries = batch_queries.max(100); // the acceptance bar: >= 100 queries

    let solver = Solver::default();
    let unlimited = Budget::unlimited();
    let mut engine_sections = Vec::new();
    for corpus in corpus() {
        // Sanity: the warm path must dispatch every query to the corpus's engine.
        let artifacts = DtdArtifacts::build(&corpus.dtd);
        let dispatch_ok = corpus.queries.iter().all(|q| {
            engine_slug(solver.decide_budgeted(&artifacts, q, &unlimited).engine) == corpus.slug
        });
        if !dispatch_ok {
            eprintln!(
                "warning: corpus `{}` has queries dispatching elsewhere",
                corpus.slug
            );
        }
        let cold_ns = time_per_query(iters, corpus.queries.len(), || {
            for q in &corpus.queries {
                std::hint::black_box(solver.decide(&corpus.dtd, q));
            }
        });
        let warm_ns = time_per_query(iters, corpus.queries.len(), || {
            for q in &corpus.queries {
                std::hint::black_box(solver.decide_budgeted(&artifacts, q, &unlimited));
            }
        });
        println!(
            "{:<18} cold {:>12} ns/q   warm {:>12} ns/q   speedup {:>5.2}x   dispatch_ok {}",
            corpus.slug,
            json_f64(cold_ns),
            json_f64(warm_ns),
            cold_ns / warm_ns,
            dispatch_ok
        );
        engine_sections.push(format!(
            "    \"{}\": {{\"queries\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.2}, \"dispatch_ok\": {}}}",
            corpus.slug,
            corpus.queries.len(),
            json_f64(cold_ns),
            json_f64(warm_ns),
            cold_ns / warm_ns,
            dispatch_ok
        ));
    }

    // Negation-heavy bucket: the EXPTIME fixpoint engine under a workload an order of
    // magnitude wider than its per-engine corpus row.
    let (neg_dtd, neg_qs) = negation_heavy_corpus();
    let neg_artifacts = DtdArtifacts::build(&neg_dtd);
    let neg_dispatch_ok = neg_qs.iter().all(|q| {
        engine_slug(solver.decide_budgeted(&neg_artifacts, q, &unlimited).engine)
            == "negation-fixpoint"
    });
    if !neg_dispatch_ok {
        eprintln!("warning: negation-heavy corpus has queries dispatching elsewhere");
    }
    let neg_cold_ns = time_per_query(iters, neg_qs.len(), || {
        for q in &neg_qs {
            std::hint::black_box(solver.decide(&neg_dtd, q));
        }
    });
    let neg_warm_ns = time_per_query(iters, neg_qs.len(), || {
        for q in &neg_qs {
            std::hint::black_box(solver.decide_budgeted(&neg_artifacts, q, &unlimited));
        }
    });
    println!(
        "negation-heavy ({} queries)  cold {} ns/q   warm {} ns/q   speedup {:.2}x   dispatch_ok {}",
        neg_qs.len(),
        json_f64(neg_cold_ns),
        json_f64(neg_warm_ns),
        neg_cold_ns / neg_warm_ns,
        neg_dispatch_ok
    );

    // Warm-workspace batch path vs the cold per-query loop.
    let (batch_dtd, batch_qs) = batch_corpus(batch_queries);
    let batch_text = batch_dtd.to_string();
    let register = |ws: &Workspace| {
        ws.register_dtd(&batch_text)
            .expect("canonical DTD text round-trips")
    };
    let cold_loop_ns = time_per_query(iters, batch_qs.len(), || {
        for q in &batch_qs {
            std::hint::black_box(solver.decide(&batch_dtd, q));
        }
    });
    let warm_workspace_ns = median(
        (0..iters)
            .map(|_| {
                // Fresh workspace per iteration so the decision cache is empty and the
                // measurement covers real solver work over shared artifacts.
                let ws = Workspace::default();
                let dtd_id = register(&ws);
                let ids: Vec<_> = batch_qs.iter().map(|q| ws.intern_path(q.clone())).collect();
                let start = Instant::now();
                std::hint::black_box(ws.decide_batch(dtd_id, &ids, 1, None, None).unwrap());
                start.elapsed().as_nanos() as f64 / batch_qs.len() as f64
            })
            .collect(),
    );
    println!(
        "batch ({} queries)  cold-loop {} ns/q   warm-workspace {} ns/q   speedup {:.2}x",
        batch_qs.len(),
        json_f64(cold_loop_ns),
        json_f64(warm_workspace_ns),
        cold_loop_ns / warm_workspace_ns
    );

    // The host's parallelism, recorded so readers can interpret every timing.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Compiled-VM bucket: lower the batch corpus' in-fragment queries to decision
    // programs once, then replay them in the VM against the AST solver's warm
    // dispatch on the same artifacts.
    let vm_artifacts = DtdArtifacts::build(&batch_dtd);
    let limits = CompileLimits::default();
    let canon_paths: Vec<Path> = batch_qs
        .iter()
        .map(|q| CanonicalQuery::of(q).path)
        .collect();
    let programs: Vec<(usize, DecisionProgram)> = canon_paths
        .iter()
        .enumerate()
        .filter_map(|(i, p)| compile(&vm_artifacts, p, &limits).map(|prog| (i, prog)))
        .collect();
    let compile_ns = time_per_query(iters, programs.len().max(1), || {
        for (i, _) in &programs {
            std::hint::black_box(compile(&vm_artifacts, &canon_paths[*i], &limits));
        }
    });
    let mut scratch = Scratch::new();
    let vm_warm_ns = time_per_query(iters, programs.len().max(1), || {
        for (_, program) in &programs {
            std::hint::black_box(vm::decide(program, &vm_artifacts, &mut scratch, &unlimited));
        }
    });
    let ast_warm_ns = time_per_query(iters, programs.len().max(1), || {
        for (i, _) in &programs {
            std::hint::black_box(solver.decide_budgeted(&vm_artifacts, &batch_qs[*i], &unlimited));
        }
    });
    let batch_vm_coverage = programs.len() as f64 / batch_qs.len() as f64;
    println!(
        "compiled-vm ({}/{} queries in fragment, coverage {:.2})  compile {} ns/q   vm-warm {} ns/q   ast-warm {} ns/q   speedup {:.2}x",
        programs.len(),
        batch_qs.len(),
        batch_vm_coverage,
        json_f64(compile_ns),
        json_f64(vm_warm_ns),
        json_f64(ast_warm_ns),
        ast_warm_ns / vm_warm_ns
    );

    // Canonical-cache bucket: tenant A decides the corpus and publishes; tenant B
    // (fresh workspace sharing only the canonical cache) answers it from shared hits.
    let mut shared_hits = 0u64;
    let mut shared_recomputes = 0u64;
    let mut shared_classes = 0usize;
    let shared_hit_samples: Vec<f64> = (0..iters)
        .map(|_| {
            let shared = Arc::new(CanonicalCache::new());
            let publisher = Workspace::default().with_canonical_cache(Arc::clone(&shared));
            let d = register(&publisher);
            let ids: Vec<_> = batch_qs
                .iter()
                .map(|q| publisher.intern_path(q.clone()))
                .collect();
            publisher.decide_batch(d, &ids, 1, None, None).unwrap();
            shared_classes = shared.len();

            let subscriber = Workspace::default().with_canonical_cache(Arc::clone(&shared));
            let d = register(&subscriber);
            let ids: Vec<_> = batch_qs
                .iter()
                .map(|q| subscriber.intern_path(q.clone()))
                .collect();
            let start = Instant::now();
            std::hint::black_box(subscriber.decide_batch(d, &ids, 1, None, None).unwrap());
            let per_query = start.elapsed().as_nanos() as f64 / batch_qs.len() as f64;
            shared_hits = subscriber.stats().canonical_hits;
            shared_recomputes = subscriber.stats().decisions_computed;
            per_query
        })
        .collect();
    let shared_hit_ns = median(shared_hit_samples);
    println!(
        "canonical-cache ({} classes)  lone-tenant {} ns/q   shared-hit {} ns/q   speedup {:.2}x   hits {}   recomputes {}",
        shared_classes,
        json_f64(warm_workspace_ns),
        json_f64(shared_hit_ns),
        warm_workspace_ns / shared_hit_ns,
        shared_hits,
        shared_recomputes
    );

    // Realistic-DTD bucket: schema-sized grammars (XHTML- and DocBook-scale) measuring
    // what a tenant pays to register a real schema (artifact build), the warm decide
    // latency once artifacts exist, and — since the compiler became DTD-property-aware
    // — how much of a realistic query mix the compiled VM carries (`vm_coverage`).
    // The mix deliberately includes disjunctive qualifiers, locally negated child
    // labels and sibling chains: the fragments the property analysis unlocks.  The
    // AST reference runs under the same step budget the service applies to untrusted
    // input, because several of these queries only terminate usefully under one.
    let realistic = [
        (
            "xhtml",
            xpsat_bench::xhtml_dtd(),
            vec![
                "body/**/div[table]",
                "**/table[thead and tbody]",
                "**/form[fieldset[legend]]",
                "**[lab() = div and not(p)]",
                "**/dl[dt or dd]",
                "**/ul[li or ol]",
                "**[lab() = tr and not(th)]",
                "**/tr/td/>[lab() = td]",
                "**/li/>",
                "**/colgroup/col/>",
            ],
        ),
        (
            "docbook",
            xpsat_bench::docbook_dtd(),
            vec![
                "**/chapter/section[title]",
                "**/section[not(title)]",
                "**/listitem[para]",
                "book/chapter[qandaset]",
                "**/chapter[section or simplesect]",
                "**[lab() = listitem and not(para)]",
                "**/qandaentry[question and answer]",
                "**/row/entry/>",
                "**/step/>[lab() = step]",
                "**/varlistentry[term]",
            ],
        ),
    ];
    let realistic_budget = Budget::steps(1_000_000);
    let mut realistic_sections = Vec::new();
    for (slug, dtd, query_texts) in realistic {
        let queries: Vec<Path> = query_texts.iter().map(|t| parse_path(t).unwrap()).collect();
        let build_ns = median(
            (0..iters)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(DtdArtifacts::build(&dtd));
                    start.elapsed().as_nanos() as f64
                })
                .collect(),
        );
        // What a registration pays for its artifacts: the build plus `warm()`, which
        // forces the automata, their useful-state masks and the tree generator.
        let register_ns = median(
            (0..iters)
                .map(|_| {
                    let start = Instant::now();
                    let artifacts = DtdArtifacts::build(&dtd);
                    artifacts.warm();
                    std::hint::black_box(artifacts);
                    start.elapsed().as_nanos() as f64
                })
                .collect(),
        );
        // The request line a client sends to register this DTD, decoded the way
        // every front end decodes it.
        let register_line = Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(dtd.to_string())),
            ("tenant", Json::Str("perf".into())),
        ])
        .to_string();
        const DECODES: usize = 100;
        let decode_ns = time_per_query(iters, DECODES, || {
            for _ in 0..DECODES {
                std::hint::black_box(Json::parse(std::hint::black_box(&register_line)).unwrap());
            }
        });
        let artifacts = DtdArtifacts::build(&dtd);
        // Split the mix by what the budgeted AST dispatch can finish: timing a
        // budget-exhausted decision only measures the budget, so `warm_ns` covers
        // the completing queries and `ast_complete` records how many those are.
        // The VM columns run over everything that compiles — including the
        // queries whose AST route exhausts, which is the point of the fast path.
        let completing: Vec<&Path> = queries
            .iter()
            .filter(|q| {
                solver
                    .decide_budgeted(&artifacts, q, &realistic_budget)
                    .exhausted
                    .is_none()
            })
            .collect();
        let warm_ns = time_per_query(iters, completing.len().max(1), || {
            for q in &completing {
                std::hint::black_box(solver.decide_budgeted(&artifacts, q, &realistic_budget));
            }
        });
        let programs: Vec<DecisionProgram> = queries
            .iter()
            .filter_map(|q| compile(&artifacts, &CanonicalQuery::of(q).path, &limits))
            .collect();
        let vm_coverage = programs.len() as f64 / queries.len() as f64;
        let vm_warm_ns = time_per_query(iters, programs.len().max(1), || {
            for program in &programs {
                std::hint::black_box(vm::decide(program, &artifacts, &mut scratch, &unlimited));
            }
        });
        println!(
            "realistic-dtd {:<8} ({} elements)  build {:>12} ns   register {:>12} ns   decode {:>10} ns   warm {:>12} ns/q ({}/{} complete in budget)   vm-coverage {}/{} ({:.2})   vm-warm {:>10} ns/q",
            slug,
            dtd.element_names().len(),
            json_f64(build_ns),
            json_f64(register_ns),
            json_f64(decode_ns),
            json_f64(warm_ns),
            completing.len(),
            queries.len(),
            programs.len(),
            queries.len(),
            vm_coverage,
            json_f64(vm_warm_ns)
        );
        realistic_sections.push(format!(
            "    \"{}\": {{\"elements\": {}, \"queries\": {}, \"ast_complete\": {}, \"build_ns\": {}, \"register_ns\": {}, \"decode_ns\": {}, \"warm_ns\": {}, \"compiled\": {}, \"vm_coverage\": {:.2}, \"vm_warm_ns\": {}}}",
            slug,
            dtd.element_names().len(),
            queries.len(),
            completing.len(),
            json_f64(build_ns),
            json_f64(register_ns),
            json_f64(decode_ns),
            json_f64(warm_ns),
            programs.len(),
            vm_coverage,
            json_f64(vm_warm_ns)
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"xpsat-perf-v4\",\n  \"iters\": {iters},\n  \"cpus\": {cpus},\n  \"engines\": {{\n{}\n  }},\n  \"negation_heavy\": {{\"queries\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.2}, \"dispatch_ok\": {}}},\n  \"batch\": {{\"queries\": {}, \"cold_loop_ns\": {}, \"warm_workspace_ns\": {}, \"speedup\": {:.2}}},\n  \"compiled_vm\": {{\"queries\": {}, \"compiled\": {}, \"vm_coverage\": {:.2}, \"compile_ns\": {}, \"vm_warm_ns\": {}, \"ast_warm_ns\": {}, \"speedup\": {:.2}}},\n  \"canonical_cache\": {{\"queries\": {}, \"classes\": {}, \"hits\": {}, \"recomputes\": {}, \"lone_tenant_ns\": {}, \"shared_hit_ns\": {}, \"speedup\": {:.2}}},\n  \"realistic_dtds\": {{\n{}\n  }}\n}}\n",
        engine_sections.join(",\n"),
        neg_qs.len(),
        json_f64(neg_cold_ns),
        json_f64(neg_warm_ns),
        neg_cold_ns / neg_warm_ns,
        neg_dispatch_ok,
        batch_qs.len(),
        json_f64(cold_loop_ns),
        json_f64(warm_workspace_ns),
        cold_loop_ns / warm_workspace_ns,
        batch_qs.len(),
        programs.len(),
        batch_vm_coverage,
        json_f64(compile_ns),
        json_f64(vm_warm_ns),
        json_f64(ast_warm_ns),
        ast_warm_ns / vm_warm_ns,
        batch_qs.len(),
        shared_classes,
        shared_hits,
        shared_recomputes,
        json_f64(warm_workspace_ns),
        json_f64(shared_hit_ns),
        warm_workspace_ns / shared_hit_ns,
        realistic_sections.join(",\n")
    );
    std::fs::write(&out, json).expect("write perf report");
    println!("wrote {out}");
}
