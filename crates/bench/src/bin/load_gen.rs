//! `load_gen`: an open-loop load generator for a running `xpathsat serve` daemon.
//!
//! Drives a mixed `register_dtd`/`check`/`batch` workload over several concurrent TCP
//! connections with Poisson-ish arrivals (exponential inter-arrival times from the
//! workspace's seeded RNG shim, so a given seed reproduces the same request schedule
//! and query mix).  Being *open-loop* matters: requests are sent on schedule whether
//! or not earlier responses have arrived, so server-side queueing shows up as latency
//! instead of silently throttling the offered load.
//!
//! Latency is measured per request from its *scheduled* send time to response
//! arrival (responses are in order per connection), which charges coordinated
//! omission to the server, not the client.  The report carries p50/p95/p99/max,
//! throughput and error counts, and `--merge-into BENCH_xpsat.json` records it as
//! the `served_traffic` section next to the in-process numbers.
//!
//! Failures the server marks `"retryable":true` (overload shedding, rate limits,
//! drains) can be retried client-side: `--retries N` re-submits each such request
//! closed-loop after the main run, with jittered exponential backoff
//! (`--retry-backoff-ms` base).  The report then counts `retries` (resends) and
//! `gave_up` (requests still failing after the last attempt); error counters
//! reflect final outcomes, so a flood that recovers on retry reads as success.
//!
//! ```text
//! load_gen --addr 127.0.0.1:7878 [--connections 4] [--rate 200] [--requests 100]
//!          [--seed 2005] [--dtds 3] [--tenants 1] [--deadline-ms MS]
//!          [--retries N] [--retry-backoff-ms MS]
//!          [--out FILE] [--merge-into BENCH_xpsat.json]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use xpsat_service::Json;

struct Options {
    addr: String,
    connections: usize,
    rate: f64,
    requests: usize,
    seed: u64,
    dtds: usize,
    tenants: usize,
    deadline_ms: Option<u64>,
    retries: u32,
    retry_backoff_ms: u64,
    out: Option<String>,
    merge_into: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        connections: 4,
        rate: 200.0,
        requests: 100,
        seed: 2005,
        dtds: 3,
        tenants: 1,
        deadline_ms: None,
        retries: 0,
        retry_backoff_ms: 25,
        out: None,
        merge_into: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn numeric<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
            value.parse().map_err(|_| format!("{flag} needs a number"))
        }
        match arg.as_str() {
            "--addr" => options.addr = value_of("--addr")?,
            "--connections" => {
                options.connections = numeric("--connections", value_of("--connections")?)?
            }
            "--rate" => options.rate = numeric("--rate", value_of("--rate")?)?,
            "--requests" => options.requests = numeric("--requests", value_of("--requests")?)?,
            "--seed" => options.seed = numeric("--seed", value_of("--seed")?)?,
            "--dtds" => options.dtds = numeric("--dtds", value_of("--dtds")?)?,
            "--tenants" => options.tenants = numeric("--tenants", value_of("--tenants")?)?,
            "--deadline-ms" => {
                options.deadline_ms = Some(numeric("--deadline-ms", value_of("--deadline-ms")?)?)
            }
            "--retries" => options.retries = numeric("--retries", value_of("--retries")?)?,
            "--retry-backoff-ms" => {
                options.retry_backoff_ms =
                    numeric("--retry-backoff-ms", value_of("--retry-backoff-ms")?)?
            }
            "--out" => options.out = Some(value_of("--out")?),
            "--merge-into" => options.merge_into = Some(value_of("--merge-into")?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if options.connections == 0 || options.requests == 0 || options.dtds == 0 {
        return Err("--connections, --requests and --dtds must be positive".to_string());
    }
    if !options.rate.is_finite() || options.rate <= 0.0 {
        return Err("--rate must be positive".to_string());
    }
    options.tenants = options.tenants.max(1);
    Ok(options)
}

/// A uniform draw in (0, 1] with 53 bits, for exponential inter-arrival times.
fn unit_open(rng: &mut StdRng) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    if u <= 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

/// One connection's pre-generated script: requests with scheduled send offsets.
struct Script {
    tenant: String,
    registrations: Vec<String>,
    requests: Vec<(Duration, String, u64)>, // (offset, line, query cost)
}

/// The workload corpus: a few distinct layered DTDs plus query pools.
fn build_script(options: &Options, connection: usize) -> Script {
    let mut rng = StdRng::seed_from_u64(
        options
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(connection as u64),
    );
    let tenant = format!("lg{}", connection % options.tenants);
    let dtds: Vec<_> = (0..options.dtds)
        .map(|i| xpsat_core::corpus::layered_dtd(3 + (i % 3), 2 + (i % 2)))
        .collect();
    // A pool of queries per DTD: repeats exercise the decision cache like a real
    // workload (the same queries arrive again and again) while fresh ones keep the
    // solver busy.
    let pools: Vec<Vec<String>> = dtds
        .iter()
        .map(|dtd| {
            (0..40)
                .map(|_| xpsat_core::corpus::random_positive_query(&mut rng, dtd, 3).to_string())
                .collect()
        })
        .collect();

    let registrations = dtds
        .iter()
        .map(|dtd| {
            Json::obj(vec![
                ("op", Json::Str("register_dtd".into())),
                ("dtd", Json::Str(dtd.to_string())),
                ("tenant", Json::Str(tenant.clone())),
            ])
            .to_string()
        })
        .collect();

    let mut requests = Vec::with_capacity(options.requests);
    let mut clock = 0.0f64;
    for _ in 0..options.requests {
        clock += -unit_open(&mut rng).ln() / options.rate;
        let dtd_id = rng.gen_range(0..options.dtds);
        let pool = &pools[dtd_id];
        let mut fields = vec![("op", Json::Str(String::new()))]; // placeholder, fixed below
        let cost;
        if rng.gen_bool(0.25) {
            let size = rng.gen_range(4..=12usize);
            let queries: Vec<Json> = (0..size)
                .map(|_| Json::Str(pool[rng.gen_range(0..pool.len())].clone()))
                .collect();
            cost = size as u64;
            fields[0] = ("op", Json::Str("batch".into()));
            fields.push(("dtd_id", Json::Num(dtd_id as f64)));
            fields.push(("queries", Json::Arr(queries)));
        } else {
            cost = 1;
            fields[0] = ("op", Json::Str("check".into()));
            fields.push(("dtd_id", Json::Num(dtd_id as f64)));
            fields.push((
                "query",
                Json::Str(pool[rng.gen_range(0..pool.len())].clone()),
            ));
        }
        fields.push(("tenant", Json::Str(tenant.clone())));
        if let Some(ms) = options.deadline_ms {
            fields.push(("deadline_ms", Json::Num(ms as f64)));
        }
        requests.push((
            Duration::from_secs_f64(clock),
            Json::obj(fields).to_string(),
            cost,
        ));
    }
    Script {
        tenant,
        registrations,
        requests,
    }
}

#[derive(Default)]
struct ConnReport {
    latencies_ns: Vec<u64>,
    queries: u64,
    errors: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    registered_cached: u64,
    protocol_errors: u64,
    /// Resends issued by the client-side retry pass (`--retries`).
    retries: u64,
    /// Requests still failing retryably after the final retry attempt.
    gave_up: u64,
    /// Failures tallied by the structured `error.kind` of the response
    /// (overloaded / deadline_exceeded / resource_exhausted / internal_error / …).
    /// With retries enabled these reflect *final* outcomes.
    errors_by_kind: std::collections::BTreeMap<String, u64>,
}

/// Count one final response into the report.  Returns whether it was a success.
fn tally(report: &mut ConnReport, parsed: &Json) -> bool {
    if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
        let batch = parsed
            .get("results")
            .and_then(Json::as_array)
            .map(|r| r.len() as u64);
        report.queries += batch.unwrap_or(1);
        true
    } else {
        let kind = parsed
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unstructured")
            .to_string();
        match kind.as_str() {
            "overloaded" => report.overloaded += 1,
            "deadline_exceeded" => report.deadline_exceeded += 1,
            _ => report.errors += 1,
        }
        *report.errors_by_kind.entry(kind).or_insert(0) += 1;
        false
    }
}

/// Did the server mark this failure worth retrying?
fn is_retryable_failure(parsed: &Json) -> bool {
    parsed.get("ok").and_then(Json::as_bool) == Some(false)
        && parsed
            .get("error")
            .and_then(|e| e.get("retryable"))
            .and_then(Json::as_bool)
            == Some(true)
}

/// Send one request line with a single `write_all`: under `TCP_NODELAY`,
/// `writeln!` would send the line and its newline as two segments.
fn send_line(writer: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer
        .write_all(framed.as_bytes())
        .map_err(|e| e.to_string())
}

fn drive_connection(
    addr: &str,
    script: Script,
    connection: usize,
    options: &Options,
) -> Result<ConnReport, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Request/response over small lines: without TCP_NODELAY the measured
    // latency is mostly Nagle + delayed ACK, not the server.
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut report = ConnReport::default();
    let mut response = String::new();

    // Registrations run closed-loop before the clock starts: they are setup, not
    // load, and their `cached` flags prove (or disprove) store persistence.
    for line in &script.registrations {
        send_line(&mut writer, line)?;
        response.clear();
        if reader.read_line(&mut response).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection during registration".to_string());
        }
        let parsed = Json::parse(response.trim()).map_err(|e| e.to_string())?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("registration failed: {}", response.trim()));
        }
        if parsed.get("cached").and_then(Json::as_bool) == Some(true) {
            report.registered_cached += 1;
        }
    }

    let start = Instant::now();
    let schedule: Vec<Duration> = script.requests.iter().map(|(at, _, _)| *at).collect();
    let lines: Vec<String> = script.requests.iter().map(|(_, l, _)| l.clone()).collect();
    let writer_thread = std::thread::spawn(move || -> Result<(), String> {
        for (at, line, _) in &script.requests {
            if let Some(wait) = at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            send_line(&mut writer, line)?;
        }
        Ok(())
    });

    let mut retry_queue: Vec<usize> = Vec::new();
    for (i, at) in schedule.iter().enumerate() {
        response.clear();
        if reader.read_line(&mut response).map_err(|e| e.to_string())? == 0 {
            report.protocol_errors += 1;
            break;
        }
        let now = start.elapsed();
        let latency = now.checked_sub(*at).unwrap_or_default();
        report.latencies_ns.push(latency.as_nanos() as u64);
        match Json::parse(response.trim()) {
            Err(_) => report.protocol_errors += 1,
            Ok(parsed) => {
                if options.retries > 0 && is_retryable_failure(&parsed) {
                    // Deferred: the retry pass below decides the final outcome.
                    retry_queue.push(i);
                } else {
                    tally(&mut report, &parsed);
                }
            }
        }
    }
    writer_thread
        .join()
        .map_err(|_| "writer thread panicked".to_string())??;

    // Closed-loop retry pass: jittered exponential backoff, honouring the
    // server's own `retryable` verdict.  Runs after the open-loop phase so the
    // resends never perturb the measured schedule.
    if !retry_queue.is_empty() {
        let mut rng = StdRng::seed_from_u64(
            options
                .seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(connection as u64),
        );
        let mut writer = reader
            .get_ref()
            .try_clone()
            .map_err(|e| format!("reopen writer for retries: {e}"))?;
        'requests: for i in retry_queue {
            let mut settled = false;
            for attempt in 0..options.retries {
                let backoff_ms = options.retry_backoff_ms.saturating_mul(1 << attempt.min(6));
                let jitter = 0.5 + unit_open(&mut rng); // 0.5x .. 1.5x
                std::thread::sleep(Duration::from_secs_f64(backoff_ms as f64 / 1000.0 * jitter));
                report.retries += 1;
                send_line(&mut writer, &lines[i])?;
                response.clear();
                if reader.read_line(&mut response).map_err(|e| e.to_string())? == 0 {
                    report.protocol_errors += 1;
                    break 'requests;
                }
                let Ok(parsed) = Json::parse(response.trim()) else {
                    report.protocol_errors += 1;
                    continue;
                };
                if is_retryable_failure(&parsed) && attempt + 1 < options.retries {
                    continue; // back off harder and try again
                }
                if !tally(&mut report, &parsed) && is_retryable_failure(&parsed) {
                    report.gave_up += 1;
                }
                settled = true;
                break;
            }
            if !settled {
                report.gave_up += 1;
            }
        }
    }
    let _ = script.tenant;
    Ok(report)
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64) * p).ceil().max(1.0) as usize - 1;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1e6
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

    let started = Instant::now();
    let reports: Vec<Result<ConnReport, String>> = std::thread::scope(|scope| {
        let options = &options;
        let handles: Vec<_> = (0..options.connections)
            .map(|c| {
                let script = build_script(options, c);
                scope.spawn(move || drive_connection(&options.addr, script, c, options))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let mut merged = ConnReport::default();
    for (c, report) in reports.into_iter().enumerate() {
        match report {
            Ok(report) => {
                merged.latencies_ns.extend(report.latencies_ns);
                merged.queries += report.queries;
                merged.errors += report.errors;
                merged.overloaded += report.overloaded;
                merged.deadline_exceeded += report.deadline_exceeded;
                merged.registered_cached += report.registered_cached;
                merged.protocol_errors += report.protocol_errors;
                merged.retries += report.retries;
                merged.gave_up += report.gave_up;
                for (kind, count) in report.errors_by_kind {
                    *merged.errors_by_kind.entry(kind).or_insert(0) += count;
                }
            }
            Err(message) => {
                eprintln!("error: connection {c}: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    merged.latencies_ns.sort_unstable();

    let responses = merged.latencies_ns.len() as u64;
    let qps = merged.queries as f64 / wall.as_secs_f64().max(1e-9);
    let by_kind = merged
        .errors_by_kind
        .iter()
        .map(|(kind, count)| format!("\"{kind}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    let section = format!(
        "{{\"connections\": {}, \"requests\": {}, \"responses\": {}, \"queries\": {}, \
\"rate_per_conn\": {:.1}, \"duration_s\": {:.3}, \"throughput_qps\": {:.0}, \
\"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}, \
\"errors\": {}, \"protocol_errors\": {}, \"overloaded\": {}, \"deadline_exceeded\": {}, \
\"retries\": {}, \"gave_up\": {}, \
\"errors_by_kind\": {{{by_kind}}}, \"registered_cached\": {}, \"seed\": {}}}",
        options.connections,
        options.connections * options.requests,
        responses,
        merged.queries,
        options.rate,
        wall.as_secs_f64(),
        qps,
        percentile(&merged.latencies_ns, 0.50),
        percentile(&merged.latencies_ns, 0.95),
        percentile(&merged.latencies_ns, 0.99),
        merged.latencies_ns.last().copied().unwrap_or(0) as f64 / 1e6,
        merged.errors,
        merged.protocol_errors,
        merged.overloaded,
        merged.deadline_exceeded,
        merged.retries,
        merged.gave_up,
        merged.registered_cached,
        options.seed,
    );
    println!("{section}");

    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, format!("{section}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &options.merge_into {
        if let Err(message) = merge_into_bench(path, &section) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
        println!("merged served_traffic into {path}");
    }
    ExitCode::SUCCESS
}

/// Insert (or replace) the top-level `served_traffic` section of the perf-report
/// JSON by line surgery, preserving the rest of the hand-formatted file.
fn merge_into_bench(path: &str, section: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = format!("  \"served_traffic\": {section}");
    let merged = if let Some(at) = text.find("\n  \"served_traffic\":") {
        // Replace the existing single-line section.
        let line_start = at + 1;
        let line_end = text[line_start..]
            .find('\n')
            .map(|n| line_start + n)
            .unwrap_or(text.len());
        let keep_comma = text[line_start..line_end].trim_end().ends_with(',');
        format!(
            "{}{}{}{}",
            &text[..line_start],
            line,
            if keep_comma { "," } else { "" },
            &text[line_end..]
        )
    } else {
        // Insert before the final closing brace.
        let at = text
            .rfind("\n}")
            .ok_or_else(|| format!("{path} does not look like a perf report"))?;
        format!("{},\n{}{}", &text[..at], line, &text[at..])
    };
    // The result must still be valid JSON before it replaces the report.
    Json::parse(&merged).map_err(|e| format!("merged report is not valid JSON: {e}"))?;
    std::fs::write(path, merged).map_err(|e| format!("cannot write {path}: {e}"))
}
