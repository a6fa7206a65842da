//! `perfbench`: the served-traffic benchmark of `xpathsat serve`.
//!
//! ```text
//! perfbench run   --workload W --seed N --seconds S --trace 0|1
//!                 --server <xpathsat binary> --bench-dir <perfbench dir> --out-dir <dir>
//! perfbench regen --workload W --bench-dir <perfbench dir>
//! ```
//!
//! `run` spawns the server with a fresh `--cache-dir` (several times, for the
//! median set-up time), warms what users would have warm, drives an open-loop
//! phase at the workload's rate and then a closed-loop phase over two
//! connections, scrapes `stats`, and checks every served verdict against
//! `expected/<workload>.tsv`.  With `--trace 1` it then replays the same stream
//! in-process and reports per-layer spans instead of the end-to-end metrics.
//! The last line of standard output is the JSON result.
//!
//! Normally started through `run.py`, which builds the server and this binary.

mod client;
mod regen;
mod server;
mod trace;
mod workload;

use client::{Client, Outcome};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use server::{is_ok, Conn, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{percentile, Record, Registration};
use workload::{Class, Kind, Req, Stream};
use xpsat_service::Json;

/// Server start-ups per run; `setup_s` is their median.  One takes 25-45 ms:
/// about 10 ms until `health` answers, the rest registering the DTDs (artifact
/// build and an fsynced store write), which a busy host stretches for seconds
/// at a time.
const SETUP_REPS: usize = 25;
/// Share of `--seconds` spent in the open-loop phase; the rest is closed loop.
const OPEN_SHARE: f64 = 0.5;
/// How long stragglers may take after a phase ends before they count as failed.
const GRACE: Duration = Duration::from_secs(20);
/// Throughput and server CPU per query are read over whole one-second windows of
/// the closed loop (the report prints each window, to show bursts).  Over a
/// whole phase, rather than as a median of windows, they average out which
/// heavy-tailed classes a window happened to meet, which lowered their spread
/// over seeds on every workload.
const CLOSED_WINDOW: Duration = Duration::from_secs(1);

struct Options {
    mode: String,
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    bench_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mode, rest) = args.split_first().ok_or("missing mode (run | regen)")?;
    let mut workload = None;
    let mut options = Options {
        mode: mode.clone(),
        workload: Kind::TenantRepeat,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        bench_dir: PathBuf::from("perfbench"),
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => options.seed = value.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => options.seconds = number()?,
            "--trace" => options.trace = value == "1",
            "--server" => options.server = PathBuf::from(value),
            "--bench-dir" => options.bench_dir = PathBuf::from(value),
            "--out-dir" => options.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    if options.seconds.is_nan() || options.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // The positive engine recurses to its Lemma 4.5 bound on schema-sized DTDs:
    // run on a thread sized like the server's decide workers.
    // Regen's UNSAT cross-checks drive the AST engines on classes the server never
    // sends them, some deeper still; give them more room.
    let stack = if options.mode == "regen" {
        16 * xpsat_core::DECIDE_STACK_BYTES
    } else {
        xpsat_core::DECIDE_STACK_BYTES
    };
    let worker = std::thread::Builder::new()
        .stack_size(stack)
        .spawn(move || match options.mode.as_str() {
            "run" => run(&options),
            "regen" => {
                let path = workload::expected_path(&options.bench_dir, options.workload);
                let text = regen::regen(options.workload)
                    .map_err(|wrong| format!("wrong answer, nothing written: {wrong}"))?;
                std::fs::write(&path, text)
                    .map(|()| {
                        println!("wrote {}", path.display());
                        true
                    })
                    .map_err(|e| format!("{}: {e}", path.display()))
            }
            other => Err(format!("unknown mode '{other}'")),
        })
        .expect("spawn benchmark thread");
    match worker.join().expect("benchmark thread panicked") {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Start a server, wait for `health`, register every DTD for every tenant.
/// Returns the server, the registrations and the set-up time.
fn set_up(
    options: &Options,
    cache_dir: &Path,
    tenants: &[String],
    dtd_texts: &[String],
) -> Result<(Server, Vec<Registration>, Duration), String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let started = Instant::now();
    let server = Server::spawn(&options.server, cache_dir)?;
    let mut conn = Conn::open(&server.addr)?;
    let healthy = conn.call_json(r#"{"op":"health"}"#)?;
    if !is_ok(&healthy) {
        return Err(format!("server unhealthy: {healthy}"));
    }
    let mut registrations = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for (d, text) in dtd_texts.iter().enumerate() {
            let line = Json::obj(vec![
                ("op", Json::Str("register_dtd".into())),
                ("dtd", Json::Str(text.clone())),
                ("tenant", Json::Str(tenant.clone())),
            ])
            .to_string();
            let response = conn.call_json(&line)?;
            if !is_ok(&response) || response.get("dtd_id").and_then(Json::as_u64) != Some(d as u64)
            {
                return Err(format!("registration failed: {response}"));
            }
            registrations.push(Registration {
                tenant: t,
                dtd: d,
                from_store: response.get("cached").and_then(Json::as_bool) == Some(true),
                reused: response.get("reused").and_then(Json::as_bool) == Some(true),
            });
        }
    }
    Ok((server, registrations, started.elapsed()))
}

/// Seeded Poisson arrival offsets for `count` requests at `rate` per second.
fn poisson_schedule(count: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771_7A15);
    let mut clock = 0.0f64;
    (0..count)
        .map(|_| {
            let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            clock += -u.ln() / rate;
            Duration::from_secs_f64(clock)
        })
        .collect()
}

/// Verdict check of one served outcome against the pool; returns
/// `(answered queries, failed, mismatches)`.
fn check(req: &Req, outcome: &Outcome, pool: &[Class]) -> (u64, bool, u64) {
    let Some(response) = outcome.response.as_ref().filter(|r| r.ok) else {
        return (0, true, 0);
    };
    if response.items.len() != req.classes.len() {
        return (0, true, 0);
    }
    let mismatches = req
        .classes
        .iter()
        .zip(&response.items)
        .filter(|(&class, item)| item.result != pool[class].verdict.protocol())
        .count() as u64;
    (response.items.len() as u64, false, mismatches)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile(values, 0.5)
}

/// Sum a workspace counter over every tenant's `stats` response.
fn sum_stat(stats: &[Json], key: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| s.get(key).and_then(Json::as_u64))
        .sum::<u64>() as f64
}

fn run(options: &Options) -> Result<bool, String> {
    let kind = options.workload;
    let pool = workload::load_pool(&workload::expected_path(&options.bench_dir, kind))?;
    let tenants = kind.tenants();
    let dtd_texts: Vec<String> = kind.dtds().iter().map(|d| d.to_string()).collect();
    let work = options.out_dir.join(format!(
        "work-{}-{}-{}",
        kind.name(),
        options.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Set-up, several times: half before the workload, where the last server
    // stays up for it, and half after, so that a slow spell of the host's disk
    // or CPU, which lasts seconds, meets only part of them.
    let timed_set_up = |rep: usize, times: &mut Vec<f64>| {
        let cache_dir = work.join(format!("cache-{rep}"));
        let (server, registrations, took) = set_up(options, &cache_dir, &tenants, &dtd_texts)?;
        times.push(took.as_secs_f64());
        Ok::<_, String>((server, registrations))
    };
    let mut setup_times = Vec::new();
    for rep in 0..SETUP_REPS / 2 {
        // Nothing of an idle set-up server is kept: kill it rather than wait
        // for a drain.
        drop(timed_set_up(rep, &mut setup_times)?);
    }
    let (server, registrations) = timed_set_up(SETUP_REPS / 2, &mut setup_times)?;

    let mut stream = Stream::new(kind, &pool, dtd_texts.len(), options.seed);
    let mut records: Vec<Record> = Vec::new();
    let mut mismatches = 0u64;

    // Untimed warm-up on a connection of its own.
    let mut conn = Conn::open(&server.addr)?;
    for req in stream.warmup(&pool) {
        let started = Instant::now();
        let line = conn.call(&req.line(&tenants))?;
        let outcome = Outcome {
            done: Some(started.elapsed()),
            response: Some(client::Response::parse(&line)),
            ..Outcome::default()
        };
        let (_, failed, wrong) = check(&req, &outcome, &pool);
        if failed {
            return Err(format!("warm-up request failed: {line}"));
        }
        mismatches += wrong;
        records.push(Record {
            req,
            outcome,
            timed: false,
        });
    }

    // Open loop at the workload's rate.
    let open_secs = options.seconds * OPEN_SHARE;
    let open_count = ((kind.rate() * open_secs).round() as usize).max(1);
    let schedule = poisson_schedule(open_count, kind.rate(), options.seed);
    let open_reqs: Vec<Req> = (0..open_count).map(|_| stream.next()).collect();
    let lines: Vec<String> = open_reqs.iter().map(|r| r.line(&tenants)).collect();
    let mut client = Client::connect(&server.addr)?;
    let open = client.open_loop(&lines, &schedule, GRACE);
    // Peak memory after the open loop, a fixed amount of work.  The closed loop
    // does more work the faster the server is, and `realistic_fresh` caches
    // every class it meets, so memory read at its end would count a faster
    // server as a bigger one.
    let peak_rss = server.peak_rss_mib()?;

    // Closed loop over the same two connections.  Server CPU per query is read
    // here, not in the open loop: at moderate open-loop rates it is dominated by
    // how often idle CPUs must be woken, which the host decides, not the server.
    let mut closed_reqs: Vec<Req> = Vec::new();
    let closed_secs = options.seconds - open_secs;
    let (closed, closed_elapsed, cpu) = client.closed_loop(
        || {
            let req = stream.next();
            let line = req.line(&tenants);
            closed_reqs.push(req);
            line
        },
        Duration::from_secs_f64(closed_secs),
        GRACE,
        CLOSED_WINDOW,
        || server.cpu_seconds().unwrap_or(f64::NAN),
    );
    let fresh_left = stream.fresh_left();

    // Server counters at workload end.
    let mut stats = Vec::new();
    for tenant in &tenants {
        let line = Json::obj(vec![
            ("op", Json::Str("stats".into())),
            ("tenant", Json::Str(tenant.clone())),
        ])
        .to_string();
        stats.push(conn.call_json(&line)?);
    }
    drop(client);
    drop(conn);
    server.stop();
    for rep in SETUP_REPS / 2 + 1..SETUP_REPS {
        drop(timed_set_up(rep, &mut setup_times)?);
    }
    let stats_path = options
        .out_dir
        .join(format!("stats-{}-{}.json", kind.name(), options.seed));
    std::fs::write(&stats_path, Json::Arr(stats.clone()).to_string() + "\n")
        .map_err(|e| format!("{}: {e}", stats_path.display()))?;

    // Outcomes: failures, verdicts, latencies.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut closed_answered = 0u64;
    let mut closed_done: Vec<Duration> = Vec::new();
    let mut errors: std::collections::BTreeMap<String, u64> = Default::default();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    for (req, outcome) in open_reqs.iter().zip(&open) {
        attempted += 1;
        let (_, fail, wrong) = check(req, outcome, &pool);
        failed += u64::from(fail);
        mismatches += wrong;
        lateness.push(outcome.sent.saturating_sub(outcome.scheduled).as_secs_f64() * 1e3);
        let latency = match (fail, outcome.latency()) {
            (false, Some(latency)) => latency.as_secs_f64() * 1e3,
            _ => f64::INFINITY, // a failed request misses every latency limit
        };
        latencies.push(latency);
    }
    for outcome in open.iter().chain(&closed) {
        let kind = match &outcome.response {
            None => Some("no_response"),
            Some(r) if !r.ok => Some(r.error_kind.as_deref().unwrap_or("unstructured")),
            Some(_) => None,
        };
        if let Some(kind) = kind {
            *errors.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    for (req, outcome) in closed_reqs.iter().zip(&closed) {
        attempted += 1;
        let (answered, fail, wrong) = check(req, outcome, &pool);
        closed_answered += answered;
        failed += u64::from(fail);
        mismatches += wrong;
        if let Some(done) = outcome.done.filter(|_| !fail) {
            closed_done.extend(std::iter::repeat_n(done, answered as usize));
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    lateness.sort_by(|a, b| a.total_cmp(b));
    let refused = stats
        .first()
        .map(|s| {
            [
                "server_requests_overloaded",
                "server_requests_shed",
                "server_requests_rate_limited",
            ]
            .iter()
            .filter_map(|k| s.get(k).and_then(Json::as_u64))
            .sum::<u64>()
        })
        .unwrap_or(0);

    let closed_windows = ((closed_secs / CLOSED_WINDOW.as_secs_f64()) as usize).max(1);
    let mut window_queries = vec![0.0f64; closed_windows];
    for done in &closed_done {
        let w = (done.as_nanos() / CLOSED_WINDOW.as_nanos()) as usize;
        if w < closed_windows {
            window_queries[w] += 1.0;
        }
    }
    let sampled = closed_windows.min(cpu.len() - 1);
    let window_qps: Vec<f64> = window_queries
        .iter()
        .map(|q| q / CLOSED_WINDOW.as_secs_f64())
        .collect();
    let window_cpu: Vec<f64> = (0..sampled)
        .map(|w| (cpu[w + 1] - cpu[w]) * 1e6 / window_queries[w].max(1.0))
        .collect();
    let throughput =
        window_queries.iter().sum::<f64>() / (closed_windows as f64 * CLOSED_WINDOW.as_secs_f64());
    let cpu_us_per_query =
        (cpu[sampled] - cpu[0]) * 1e6 / window_queries[..sampled].iter().sum::<f64>().max(1.0);
    let latency_p50 = percentile(&latencies, 0.5);
    let latency_p99 = percentile(&latencies, 0.99);

    println!(
        "{}: seed {}, {} open-loop requests at {} req/s over {:.1} s, {} closed-loop requests ({} queries) over {:.1} s, 2 connections, 1 client thread",
        kind.name(),
        options.seed,
        open_reqs.len(),
        kind.rate(),
        open_secs,
        closed_reqs.len(),
        closed_answered,
        closed_elapsed.as_secs_f64()
    );
    println!(
        "  latency samples {} ({} beyond p99); failed {}/{} {:?}; verdict mismatches {}; overloaded+shed+rate-limited {}; unsent fresh classes {}",
        latencies.len(),
        latencies.len() - (latencies.len() as f64 * 0.99).ceil() as usize,
        failed,
        attempted,
        errors,
        mismatches,
        refused,
        fresh_left
    );
    println!("  closed-loop queries/s per window {window_qps:.0?}");
    println!("  closed-loop server CPU us/query per window {window_cpu:.1?}");
    // The gated metrics (BENCHMARK.json `end_to_end`) and those only reported:
    // open-loop latency does not repeat within a 25% bound on a shared 2-CPU
    // host (its spread over seeds reached 0.3-0.7 where these stay near 0.1-0.2),
    // and `failed_frac` is 0 in a valid run, which the `failed` count carries.
    let end_to_end = vec![
        ("setup_s", median(&mut setup_times), "s"),
        ("throughput_qps", throughput, "queries/s"),
        ("server_cpu_us_per_query", cpu_us_per_query, "us"),
        ("server_peak_rss_mb", peak_rss, "MiB"),
    ];
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let reported = [
        ("latency_p50_ms", latency_p50, "ms"),
        ("latency_p99_ms", latency_p99, "ms"),
        ("failed_frac", failed_frac, "ratio"),
    ];
    for (name, value, unit) in &end_to_end {
        println!("  {name:<26} {value:>12.4} {unit}");
    }
    for (name, value, unit) in &reported {
        println!("  {name:<26} {value:>12.4} {unit}   (reported, not gated)");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if options.trace {
        let mut served = records;
        served.extend(
            open_reqs
                .into_iter()
                .zip(open)
                .map(|(req, outcome)| Record {
                    req,
                    outcome,
                    timed: true,
                }),
        );
        served.extend(
            closed_reqs
                .into_iter()
                .zip(closed)
                .map(|(req, outcome)| Record {
                    req,
                    outcome,
                    timed: true,
                }),
        );
        let spans_path =
            options
                .out_dir
                .join(format!("spans-{}-{}.jsonl", kind.name(), options.seed));
        let report = trace::replay(
            kind,
            &registrations,
            &served,
            &work.join("replay-cache"),
            &spans_path,
        )?;
        print!("{}", report.table);
        println!("  spans written to {}", spans_path.display());
        metrics.extend(report.metrics);
        let hits = sum_stat(&stats, "decision_cache_hits");
        let canonical_hits = sum_stat(&stats, "canonical_hits");
        let computed = sum_stat(&stats, "decisions_computed");
        let bailouts: f64 = stats
            .iter()
            .filter_map(|s| s.get("compile_bailouts_by_reason"))
            .filter_map(|b| match b {
                Json::Obj(fields) => {
                    Some(fields.iter().filter_map(|(_, v)| v.as_u64()).sum::<u64>())
                }
                _ => None,
            })
            .sum::<u64>() as f64;
        let server_stat = |key: &str| {
            stats
                .first()
                .and_then(|s| s.get(key).and_then(Json::as_u64))
                .unwrap_or(0) as f64
        };
        metrics.extend([
            (
                "workspace.hit_ratio".to_string(),
                (hits + canonical_hits) / (hits + canonical_hits + computed).max(1.0),
                "ratio",
            ),
            ("canonical.hits".to_string(), canonical_hits, "count"),
            (
                "compile.vm_coverage".to_string(),
                sum_stat(&stats, "vm_decides") / computed.max(1.0),
                "ratio",
            ),
            ("compile.bailouts".to_string(), bailouts, "count"),
            (
                "solver.exhausted".to_string(),
                sum_stat(&stats, "resource_exhausted"),
                "count",
            ),
            (
                "server.vm_witness_fallbacks".to_string(),
                sum_stat(&stats, "vm_witness_fallbacks"),
                "count",
            ),
            (
                "server.program_store_hits".to_string(),
                sum_stat(&stats, "program_store_hits"),
                "count",
            ),
            (
                "server.overloaded".to_string(),
                server_stat("server_requests_overloaded"),
                "count",
            ),
            (
                "server.rate_limited".to_string(),
                server_stat("server_requests_rate_limited"),
                "count",
            ),
            (
                "server.shed".to_string(),
                server_stat("server_requests_shed"),
                "count",
            ),
            (
                "loadgen.late_p99_ms".to_string(),
                percentile(&lateness, 0.99),
                "ms",
            ),
        ]);
    } else {
        metrics.extend(
            end_to_end
                .iter()
                .map(|(name, value, unit)| (name.to_string(), *value, *unit)),
        );
    }
    let _ = std::fs::remove_dir_all(&work);

    // A run is correct only if every served verdict matches and the run is valid:
    // no request failed (an `ok:false`, a refusal, a missing or short answer), the
    // server shed, refused or rate-limited nothing, and `realistic_fresh` still had
    // first-seen classes left, so its every phase measured the miss path.
    let mut invalid = Vec::new();
    if mismatches > 0 {
        invalid.push(format!("{mismatches} verdict mismatches"));
    }
    if failed > 0 {
        invalid.push(format!("{failed} failed requests {errors:?}"));
    }
    if refused > 0 {
        invalid.push(format!("server refused {refused} requests"));
    }
    if kind == Kind::RealisticFresh && fresh_left == 0 {
        invalid.push("realistic_fresh ran out of first-seen classes".to_string());
    }
    for reason in &invalid {
        eprintln!("invalid run: {reason}");
    }
    let correct = invalid.is_empty();
    let metrics_json = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json),
    ]);
    println!("{result}");
    Ok(correct)
}
