//! The traced run: replay a workload's exact request stream in-process, in the same
//! cache state, and time the calls into each layer's public functions as spans.
//!
//! Nothing inside the program is instrumented.  Each request is first handled by
//! `ProtocolServer::handle_line` on an in-process replica of the server's tenants
//! (same shared canonical cache, same kind of artifact store), which advances the
//! cache state exactly as the served request did; its duration is
//! `protocol.handle_us`.  Then the layers that the *served* response says the
//! request crossed (`engine`, `cached`) are replayed one public call at a time:
//!
//! * every request: `Json::parse` of the line, `Json::to_string` of the response;
//! * every query: `Workspace::intern` on a shadow workspace of the same tenant,
//!   and inside it `parse_path` and `CanonicalQuery::of`;
//! * `cached`: `Workspace::decide` on the shadow (a cache hit there too);
//! * not `cached`: `compile_with_reason`, then `vm::run` and `vm::decide` for
//!   compiled classes (witness building = decide − run on SAT programs) or
//!   `Solver::decide_budgeted` for classes that bailed to the AST engines.
//!
//! Three spans are probes of a path the request did not take, so that every
//! workload reports them: `store.program_load_us` reads back the program the
//! replica just wrote, `store.artifact_load_ms` reads back a registered DTD, and
//! `witness.serialize_us` is `handle_line` with `witness:true` minus without, on a
//! cached SAT `check`.  They are roots of their own, not children of a request.

use crate::client::Outcome;
use crate::workload::{Kind, Req};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpsat_core::{Budget, Solver};
use xpsat_dtd::{parse_dtd, DtdArtifacts};
use xpsat_plan::{compile_with_reason, vm, CanonicalQuery, CompileLimits, Scratch};
use xpsat_service::{
    canonical_key, engine_slug, ArtifactStore, CanonicalCache, DtdId, Json, ProtocolServer,
    Workspace,
};
use xpsat_xpath::parse_path;

/// One timed call.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let value = std::hint::black_box(f());
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        (value, self.spans.len() - 1)
    }

    /// A span whose duration was derived (a difference of two measured calls).
    fn derived(
        &mut self,
        name: &'static str,
        start: Duration,
        length: Duration,
        parent: Option<usize>,
        request: usize,
    ) {
        self.spans.push(Span {
            name,
            start,
            end: start + length,
            parent,
            request,
        });
    }

    fn duration(&self, id: usize) -> Duration {
        self.spans[id].end.saturating_sub(self.spans[id].start)
    }
}

/// A registration the served set-up performed, with what the server reported.
pub struct Registration {
    pub tenant: usize,
    pub dtd: usize,
    pub from_store: bool,
    pub reused: bool,
}

/// A request the client sent, with its served outcome.
pub struct Record {
    pub req: Req,
    pub outcome: Outcome,
    /// Part of a timed phase (warm-up requests are replayed but not timed).
    pub timed: bool,
}

pub struct TraceReport {
    /// `(name, value, unit)` per-layer metrics.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The human-readable self-time table.
    pub table: String,
}

/// Layers timed as spans, in report order, with their unit.
const SPAN_LAYERS: [&str; 18] = [
    "protocol.handle_us",
    "server.overhead_us",
    "json.decode_us",
    "json.encode_us",
    "xpath.parse_us",
    "canon.canonicalize_us",
    "workspace.intern_us",
    "workspace.decide_hit_us",
    "compile.compile_us",
    "store.program_load_us",
    "store.artifact_load_ms",
    "vm.run_us",
    "witness.build_us",
    "witness.serialize_us",
    "solver.ast_us",
    "dtd.parse_ms",
    "artifacts.build_ms",
    "artifacts.warm_ms",
];

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else {
        "us"
    }
}

fn in_unit(name: &str, d: Duration) -> f64 {
    let ns = d.as_nanos() as f64;
    if name.ends_with("_ms") {
        ns / 1e6
    } else {
        ns / 1e3
    }
}

/// Replay `records` (after `registrations`) for `kind` and report per-layer
/// metrics.  Spans are kept in memory and written to `spans_path` at the end.
pub fn replay(
    kind: Kind,
    registrations: &[Registration],
    records: &[Record],
    store_dir: &FsPath,
    spans_path: &FsPath,
) -> Result<TraceReport, String> {
    let tenants = kind.tenants();
    let dtds = kind.dtds();
    let dtd_texts: Vec<String> = dtds.iter().map(|d| d.to_string()).collect();
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("replay store: {e}"))?;
    let shared = Arc::new(CanonicalCache::new());
    // The replica mirrors the server's tenant map; the shadow workspaces mirror
    // each tenant's interner and decision cache for the per-call spans.
    let replicas: Vec<ProtocolServer> = tenants
        .iter()
        .map(|_| {
            let workspace = Workspace::default()
                .with_canonical_cache(Arc::clone(&shared))
                .with_store(store.clone());
            ProtocolServer::with_workspace(workspace, 0)
        })
        .collect();
    let mut shadows: Vec<Workspace> = tenants
        .iter()
        .map(|_| Workspace::default().with_canonical_cache(Arc::clone(&shared)))
        .collect();
    let mut dtd_ids: Vec<Vec<Option<DtdId>>> = vec![vec![None; dtds.len()]; tenants.len()];
    let solver = Solver::default();
    let mut scratch = Scratch::new();
    let limits = CompileLimits::default();
    let unlimited = Budget::unlimited();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut ast_by_engine: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    let mut divergent = 0u64;
    let mut request = 0usize;

    for reg in registrations {
        request += 1;
        let text = &dtd_texts[reg.dtd];
        let line = Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(text.clone())),
            ("tenant", Json::Str(tenants[reg.tenant].clone())),
        ])
        .to_string();
        let (_, root) = tracer.time("protocol.register_ms", None, request, || {
            replicas[reg.tenant].handle_line(&line)
        });
        let (dtd, _) = tracer.time("dtd.parse_ms", Some(root), request, || parse_dtd(text));
        let dtd = dtd.map_err(|e| format!("workload DTD does not parse: {e}"))?;
        if !reg.reused {
            if reg.from_store {
                let (loaded, _) =
                    tracer.time("store.artifact_load_ms", Some(root), request, || {
                        store.load(&dtd.to_string())
                    });
                let loaded = loaded.map_err(|e| format!("artifact store miss on replay: {e:?}"))?;
                tracer.time("artifacts.warm_ms", Some(root), request, || {
                    loaded.compiled.warm()
                });
            } else {
                let (built, _) = tracer.time("artifacts.build_ms", Some(root), request, || {
                    DtdArtifacts::build(&dtd)
                });
                tracer.time("artifacts.warm_ms", Some(root), request, || built.warm());
                // The server wrote these artifacts; reading them back is what a
                // restart (or a second tenant) pays instead.
                let (loaded, _) = tracer.time("store.artifact_load_ms", None, request, || {
                    store.load(&dtd.to_string())
                });
                loaded.map_err(|e| format!("artifact store miss on replay: {e:?}"))?;
            }
        }
        let id = shadows[reg.tenant]
            .register_dtd(text)
            .map_err(|e| e.to_string())?;
        dtd_ids[reg.tenant][reg.dtd] = Some(id);
    }

    let mut overheads: Vec<Duration> = Vec::new();
    for record in records {
        request += 1;
        let Some(served) = record.outcome.response.as_ref().filter(|r| r.ok) else {
            continue;
        };
        let req = &record.req;
        let replica = &replicas[req.tenant];
        let line = req.line(&tenants);
        let (response, root) = tracer.time("protocol.handle_us", None, request, || {
            replica.handle_line(&line)
        });
        if let (true, Some(rtt)) = (record.timed, record.outcome.round_trip()) {
            overheads.push(rtt.saturating_sub(tracer.duration(root)));
        }
        let (request_json, _) =
            tracer.time("json.decode_us", Some(root), request, || Json::parse(&line));
        request_json.map_err(|e| e.to_string())?;
        let dtd = dtd_ids[req.tenant][req.dtd].ok_or("request before its registration")?;
        let artifacts = shadows[req.tenant]
            .artifacts(dtd)
            .map_err(|e| e.to_string())?;
        let fingerprint = canonical_key(&artifacts.canonical);
        for (k, text) in req.texts.iter().enumerate() {
            let Some(item) = served.items.get(k) else {
                break;
            };
            let shadow = &mut shadows[req.tenant];
            let (query, intern) = tracer.time("workspace.intern_us", Some(root), request, || {
                shadow.intern(text)
            });
            let query = query.map_err(|e| e.to_string())?;
            let (path, _) =
                tracer.time("xpath.parse_us", Some(intern), request, || parse_path(text));
            let path = path.map_err(|e| e.to_string())?;
            let (canon, _) = tracer.time("canon.canonicalize_us", Some(intern), request, || {
                CanonicalQuery::of(&path)
            });
            if item.cached {
                let (hit, _) = tracer.time("workspace.decide_hit_us", Some(root), request, || {
                    shadow.decide(dtd, query)
                });
                hit.map_err(|e| e.to_string())?;
                continue;
            }
            // Keep the shadow's cache in step with the server's (a canonical-cache
            // hit here: the replica has just published this class).
            shadow.decide(dtd, query).map_err(|e| e.to_string())?;
            let (program, _) = tracer.time("compile.compile_us", Some(root), request, || {
                compile_with_reason(&artifacts.compiled, &canon.path, &limits)
            });
            let served_vm = item.engine == "compiled-vm";
            if program.is_ok() != served_vm {
                divergent += 1;
            }
            match program {
                Ok(program) => {
                    let meter = unlimited.meter();
                    let (_, run) = tracer.time("vm.run_us", Some(root), request, || {
                        vm::run(&program, &artifacts.compiled, &mut scratch, &meter)
                    });
                    if item.result == "satisfiable" {
                        let start = tracer.origin.elapsed();
                        let began = Instant::now();
                        std::hint::black_box(vm::decide(
                            &program,
                            &artifacts.compiled,
                            &mut scratch,
                            &unlimited,
                        ));
                        let decide = began.elapsed();
                        let build = decide.saturating_sub(tracer.duration(run));
                        tracer.derived("witness.build_us", start, build, Some(root), request);
                    }
                    let (loaded, _) = tracer.time("store.program_load_us", None, request, || {
                        store.load_program(
                            fingerprint,
                            canon.canonical_hash,
                            &canon.text,
                            &artifacts.compiled,
                        )
                    });
                    loaded.map_err(|e| format!("program store miss on replay: {e:?}"))?;
                }
                Err(_) => {
                    let (decision, span) =
                        tracer.time("solver.ast_us", Some(root), request, || {
                            solver.decide_budgeted(&artifacts.compiled, &canon.path, &unlimited)
                        });
                    ast_by_engine
                        .entry(engine_slug(decision.engine))
                        .or_default()
                        .push(tracer.duration(span));
                }
            }
        }
        let single_sat = !req.batch
            && served
                .items
                .first()
                .is_some_and(|i| i.cached && i.result == "satisfiable");
        if single_sat {
            let with = req.line_with(&tenants, true);
            let without = req.line_with(&tenants, false);
            let start = tracer.origin.elapsed();
            let began = Instant::now();
            std::hint::black_box(replica.handle_line(&with));
            let with_time = began.elapsed();
            let began = Instant::now();
            std::hint::black_box(replica.handle_line(&without));
            let without_time = began.elapsed();
            let parent = req.witness.then_some(root);
            let serialize = with_time.saturating_sub(without_time);
            tracer.derived("witness.serialize_us", start, serialize, parent, request);
        }
        let parsed = Json::parse(&response).map_err(|e| e.to_string())?;
        tracer.time("json.encode_us", Some(root), request, || parsed.to_string());
    }

    write_spans(&tracer, spans_path)?;
    Ok(report(kind, &tracer, overheads, &ast_by_engine, divergent))
}

fn write_spans(tracer: &Tracer, path: &FsPath) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, span) in tracer.spans.iter().enumerate() {
        let parent = span
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name,
            span.start.as_nanos(),
            span.end.as_nanos(),
            span.request
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Median and p99 (nearest rank) of `values`, 0 when empty.
fn median_p99(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(|a, b| a.total_cmp(b));
    (percentile(values, 0.5), percentile(values, 0.99))
}

/// Nearest-rank percentile of sorted `values`, 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

fn report(
    kind: Kind,
    tracer: &Tracer,
    overheads: Vec<Duration>,
    ast_by_engine: &BTreeMap<&'static str, Vec<Duration>>,
    divergent: u64,
) -> TraceReport {
    let mut by_name: BTreeMap<&str, Vec<Duration>> = BTreeMap::new();
    let mut child_time: Vec<Duration> = vec![Duration::ZERO; tracer.spans.len()];
    for (id, span) in tracer.spans.iter().enumerate() {
        by_name
            .entry(span.name)
            .or_default()
            .push(tracer.duration(id));
        if let Some(parent) = span.parent {
            child_time[parent] += tracer.duration(id);
        }
    }
    by_name.insert("server.overhead_us", overheads);

    let mut metrics = Vec::new();
    for name in SPAN_LAYERS {
        let mut values: Vec<f64> = by_name
            .get(name)
            .map(|d| d.iter().map(|&d| in_unit(name, d)).collect())
            .unwrap_or_default();
        let count = values.len() as f64;
        let (median, p99) = median_p99(&mut values);
        metrics.push((name.to_string(), median, unit_of(name)));
        metrics.push((format!("{name}.p99"), p99, unit_of(name)));
        metrics.push((format!("{name}.count"), count, "count"));
    }

    // Self time per layer: its spans' durations minus the durations of their
    // direct children; the share is of all `protocol.handle_us` time.
    let mut self_time: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
    for (id, span) in tracer.spans.iter().enumerate() {
        let entry = self_time
            .entry(span.name)
            .or_insert((0, Duration::ZERO, Duration::ZERO));
        entry.0 += 1;
        entry.1 += tracer.duration(id);
        entry.2 += tracer.duration(id).saturating_sub(child_time[id]);
    }
    let handle_total: Duration = tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "protocol.handle_us")
        .map(|(id, _)| tracer.duration(id))
        .sum();
    let covered: Duration = tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.parent
                .is_some_and(|p| tracer.spans[p].name == "protocol.handle_us")
        })
        .map(|(id, _)| tracer.duration(id))
        .sum();
    let coverage = covered.as_secs_f64() / handle_total.as_secs_f64().max(1e-12);
    metrics.push(("trace.coverage".to_string(), coverage, "ratio"));

    let mut table = String::new();
    let _ = writeln!(
        table,
        "self time per layer, {} (share of protocol.handle_us total {:.1} ms):",
        kind.name(),
        handle_total.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        table,
        "  {:<26} {:>8} {:>12} {:>12} {:>8}",
        "layer", "count", "total_ms", "self_ms", "share"
    );
    for (name, (count, total, own)) in &self_time {
        let _ = writeln!(
            table,
            "  {:<26} {:>8} {:>12.3} {:>12.3} {:>7.1}%",
            name,
            count,
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3,
            100.0 * total.as_secs_f64() / handle_total.as_secs_f64().max(1e-12)
        );
    }
    for (engine, times) in ast_by_engine {
        let mut values: Vec<f64> = times.iter().map(|d| d.as_nanos() as f64 / 1e3).collect();
        let (median, p99) = median_p99(&mut values);
        let _ = writeln!(
            table,
            "  solver.ast_us[{engine}]: count {} median {median:.1} us p99 {p99:.1} us",
            values.len()
        );
    }
    let _ = writeln!(
        table,
        "  replayed child spans cover {:.1}% of protocol.handle_us; {} served routes differ from the replay's compile",
        100.0 * coverage,
        divergent
    );
    TraceReport { metrics, table }
}
