//! `xpathsat` — command-line front-end of the satisfiability service.
//!
//! ```text
//! xpathsat check --dtd <file|-> [--witness] <query>...
//! xpathsat batch [--threads N] [--input <file>]
//! xpathsat classify --dtd <file|-> [<query>...]
//! xpathsat bench-gen [--depth D] [--width W] [--queries N] [--seed S] [--threads T]
//! xpathsat serve [--addr A | --unix PATH] [--cache-dir DIR] [...]
//! xpathsat connect (--addr A | --unix PATH) [--input <file>]
//! xpathsat stats (--addr A | --unix PATH) [--tenant NAME]
//! ```
//!
//! `check` decides each query against one DTD and prints a human-readable verdict per
//! line.  `batch` runs the JSON-lines protocol (stdin or `--input` file → stdout), which
//! is the service's machine endpoint.  `classify` prints the DTD's structural class and
//! preprocessing summary, plus — for each query given — its canonical form, structural
//! hashes and compiled decision-program size.  `bench-gen` emits a reproducible JSON-lines workload
//! (`register_dtd` + a large `batch` + `stats`) ready to pipe back into `xpathsat
//! batch`.  `serve` runs the same protocol as a persistent multi-tenant TCP (or
//! Unix-socket) daemon with an on-disk artifact cache, tenant-fair scheduling and a
//! graceful drain lifecycle; `connect` pipes a script to a running daemon; `stats`
//! asks one for its counters; `health` probes liveness; `drain` asks it to shut
//! down gracefully (finish in-flight work, refuse new work, flush, exit).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use xpsat_server::{Bind, Server, ServerConfig};
use xpsat_service::{effective_threads, Json, ProtocolServer, ServiceError, Session};

const USAGE: &str = "xpathsat — XPath-satisfiability service CLI

USAGE:
    xpathsat check --dtd <file|-> [--witness] <query>...
    xpathsat batch [--threads N] [--input <file>]
    xpathsat classify --dtd <file|-> [<query>...]
    xpathsat bench-gen [--depth D] [--width W] [--queries N] [--seed S] [--threads T]
    xpathsat serve [--addr A | --unix PATH] [--workers N] [--queue N]
                   [--decide-workers N] [--request-queue N]
                   [--max-inflight N] [--deadline-ms MS] [--max-steps N]
                   [--tenant-rate QPS] [--tenant-burst N] [--tenant-inflight N]
                   [--tenant-weight NAME=W]... [--shed-target-ms MS]
                   [--drain-deadline-ms MS] [--watchdog-ms MS]
                   [--cache-dir DIR] [--max-line-bytes N]
                   [--threads T]
    xpathsat connect (--addr A | --unix PATH) [--input <file>]
    xpathsat stats (--addr A | --unix PATH) [--tenant NAME]
    xpathsat health (--addr A | --unix PATH)
    xpathsat drain (--addr A | --unix PATH)

SUBCOMMANDS:
    check       Decide queries against a DTD, one verdict per line
    batch       Serve the JSON-lines protocol (one request per line on stdin)
    classify    Print the DTD's structural classification and artifact summary;
                with queries, also each query's canonical form, structural
                hashes and compiled decision-program size
    bench-gen   Emit a reproducible JSON-lines workload for `xpathsat batch`
    serve       Run the protocol as a persistent TCP/Unix-socket daemon
    connect     Pipe protocol lines (stdin or --input) to a running daemon
    stats       Print a running daemon's counters as one JSON line
    health      Print a running daemon's lifecycle phase and load as one JSON line
    drain       Gracefully shut a running daemon down (it finishes in-flight work)

OPTIONS:
    --dtd <file|->     DTD in the workspace's textual syntax ('-' reads stdin)
    --witness          Include witness documents in `check` output
    --threads N        Worker threads for batch dispatch (default: CPU count)
    --input <file>     Read protocol lines from a file instead of stdin
    --depth D          bench-gen: layered-DTD depth (default 4)
    --width W          bench-gen: sibling types per level (default 3)
    --queries N        bench-gen: number of random queries (default 100)
    --seed S           bench-gen: RNG seed (default 2005)
    --addr A           serve/connect/stats: TCP address (default 127.0.0.1:7878;
                       serve with port 0 picks an ephemeral port and prints it)
    --unix PATH        serve/connect/stats: Unix-socket path instead of TCP
    --workers N        serve: connection worker threads (default: CPUs, min 4)
    --queue N          serve: pending-connection queue bound (default 32)
    --decide-workers N serve: decide worker threads (default: CPUs, min 2)
    --request-queue N  serve: fair-scheduler request queue bound (default 256)
    --max-inflight N   serve: in-flight query admission bound (default 256)
    --tenant-rate QPS  serve: per-tenant token-bucket refill rate in query cost
                       per second (default: unlimited)
    --tenant-burst N   serve: token-bucket burst capacity (default 64)
    --tenant-inflight N serve: per-tenant queued+executing cost quota (default:
                       unbounded)
    --tenant-weight NAME=W serve: scheduling weight for a tenant (repeatable;
                       unlisted tenants weigh 1)
    --shed-target-ms MS serve: CoDel shed target for queue delay (default 200;
                       0 disables adaptive shedding)
    --drain-deadline-ms MS serve: graceful-shutdown drain deadline (default 5000)
    --watchdog-ms MS   serve: stuck-worker watchdog threshold (default 30000;
                       0 disables the watchdog)
    --deadline-ms MS   serve: default per-request deadline (default: none)
    --max-steps N      serve: default per-decision solver step budget; a decision
                       that spends it answers resource_exhausted (default: none)
    --cache-dir DIR    serve: persistent artifact cache root (default: none)
    --max-line-bytes N serve: request line length cap (default 1048576)
    --tenant NAME      stats: tenant to report workspace counters for
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((subcommand, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match subcommand.as_str() {
        "check" => cmd_check(rest),
        "batch" => cmd_batch(rest),
        "classify" => cmd_classify(rest),
        "bench-gen" => cmd_bench_gen(rest),
        "serve" => cmd_serve(rest),
        "connect" => cmd_connect(rest),
        "stats" => cmd_stats(rest),
        "health" => cmd_one_shot_op(rest, "health"),
        "drain" => cmd_one_shot_op(rest, "drain"),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Runtime(e.to_string())
    }
}

/// Parsed `--flag value` / `--switch` options plus positional arguments.
struct Options {
    dtd: Option<String>,
    witness: bool,
    threads: usize,
    input: Option<String>,
    depth: usize,
    width: usize,
    queries: usize,
    seed: u64,
    addr: Option<String>,
    unix: Option<String>,
    workers: usize,
    queue: usize,
    decide_workers: usize,
    request_queue: usize,
    max_inflight: u64,
    tenant_rate: Option<f64>,
    tenant_burst: f64,
    tenant_inflight: Option<u64>,
    tenant_weights: Vec<(String, u64)>,
    shed_target_ms: Option<u64>,
    drain_deadline_ms: u64,
    watchdog_ms: Option<u64>,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    cache_dir: Option<String>,
    max_line_bytes: usize,
    tenant: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut options = Options {
        dtd: None,
        witness: false,
        threads: 0,
        input: None,
        depth: 4,
        width: 3,
        queries: 100,
        seed: 2005,
        addr: None,
        unix: None,
        workers: 0,
        queue: 32,
        decide_workers: 0,
        request_queue: 256,
        max_inflight: 256,
        tenant_rate: None,
        tenant_burst: 64.0,
        tenant_inflight: None,
        tenant_weights: Vec::new(),
        shed_target_ms: Some(200),
        drain_deadline_ms: 5_000,
        watchdog_ms: Some(30_000),
        deadline_ms: None,
        max_steps: None,
        cache_dir: None,
        max_line_bytes: xpsat_service::DEFAULT_MAX_LINE_BYTES,
        tenant: None,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        fn numeric<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, CliError> {
            value
                .parse()
                .map_err(|_| CliError::Usage(format!("{flag} needs a number")))
        }
        match arg.as_str() {
            "--dtd" => options.dtd = Some(value_of("--dtd")?),
            "--witness" => options.witness = true,
            "--threads" => options.threads = numeric("--threads", value_of("--threads")?)?,
            "--input" => options.input = Some(value_of("--input")?),
            "--depth" => options.depth = numeric("--depth", value_of("--depth")?)?,
            "--width" => options.width = numeric("--width", value_of("--width")?)?,
            "--queries" => options.queries = numeric("--queries", value_of("--queries")?)?,
            "--seed" => options.seed = numeric("--seed", value_of("--seed")?)?,
            "--addr" => options.addr = Some(value_of("--addr")?),
            "--unix" => options.unix = Some(value_of("--unix")?),
            "--workers" => options.workers = numeric("--workers", value_of("--workers")?)?,
            "--queue" => options.queue = numeric("--queue", value_of("--queue")?)?,
            "--decide-workers" => {
                options.decide_workers = numeric("--decide-workers", value_of("--decide-workers")?)?
            }
            "--request-queue" => {
                options.request_queue = numeric("--request-queue", value_of("--request-queue")?)?
            }
            "--max-inflight" => {
                options.max_inflight = numeric("--max-inflight", value_of("--max-inflight")?)?
            }
            "--tenant-rate" => {
                options.tenant_rate = Some(numeric("--tenant-rate", value_of("--tenant-rate")?)?)
            }
            "--tenant-burst" => {
                options.tenant_burst = numeric("--tenant-burst", value_of("--tenant-burst")?)?
            }
            "--tenant-inflight" => {
                options.tenant_inflight = Some(numeric(
                    "--tenant-inflight",
                    value_of("--tenant-inflight")?,
                )?)
            }
            "--tenant-weight" => {
                let spec = value_of("--tenant-weight")?;
                let (name, weight) = spec.split_once('=').ok_or_else(|| {
                    CliError::Usage("--tenant-weight needs NAME=WEIGHT".to_string())
                })?;
                let weight: u64 = weight.parse().map_err(|_| {
                    CliError::Usage("--tenant-weight needs an integer weight".to_string())
                })?;
                options
                    .tenant_weights
                    .push((name.to_string(), weight.max(1)));
            }
            "--shed-target-ms" => {
                let ms: u64 = numeric("--shed-target-ms", value_of("--shed-target-ms")?)?;
                options.shed_target_ms = (ms > 0).then_some(ms);
            }
            "--drain-deadline-ms" => {
                options.drain_deadline_ms =
                    numeric("--drain-deadline-ms", value_of("--drain-deadline-ms")?)?
            }
            "--watchdog-ms" => {
                let ms: u64 = numeric("--watchdog-ms", value_of("--watchdog-ms")?)?;
                options.watchdog_ms = (ms > 0).then_some(ms);
            }
            "--deadline-ms" => {
                options.deadline_ms = Some(numeric("--deadline-ms", value_of("--deadline-ms")?)?)
            }
            "--max-steps" => {
                options.max_steps = Some(numeric("--max-steps", value_of("--max-steps")?)?)
            }
            "--cache-dir" => options.cache_dir = Some(value_of("--cache-dir")?),
            "--max-line-bytes" => {
                options.max_line_bytes = numeric("--max-line-bytes", value_of("--max-line-bytes")?)?
            }
            "--tenant" => options.tenant = Some(value_of("--tenant")?),
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{other}'")))
            }
            other => options.positional.push(other.to_string()),
        }
    }
    Ok(options)
}

fn read_dtd(options: &Options) -> Result<String, CliError> {
    let source = options
        .dtd
        .as_deref()
        .ok_or_else(|| CliError::Usage("--dtd is required".into()))?;
    if source == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(source)
            .map_err(|e| CliError::Runtime(format!("cannot read {source}: {e}")))
    }
}

/// Render the source line containing a parse-error span with a caret run under the
/// offending bytes.  Pathologically long lines (hostile single-line inputs) are
/// windowed around the span so the terminal stays readable.
fn caret_snippet(source: &str, offset: usize, len: usize) -> String {
    let offset = offset.min(source.len());
    let line_start = source[..offset].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[offset..]
        .find('\n')
        .map_or(source.len(), |i| offset + i);
    const WINDOW: usize = 60;
    let mut start = line_start.max(offset.saturating_sub(WINDOW));
    while !source.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = line_end.min(offset.saturating_add(len.max(1)).saturating_add(WINDOW));
    while end < line_end && !source.is_char_boundary(end) {
        end += 1;
    }
    let prefix = if start > line_start { "…" } else { "" };
    let suffix = if end < line_end { "…" } else { "" };
    let caret_col = prefix.chars().count() + source[start..offset].chars().count();
    let caret_len = source[offset..(offset + len).min(end).max(offset)]
        .chars()
        .count()
        .max(1);
    format!(
        "  {prefix}{}{suffix}\n  {:caret_col$}{}",
        &source[start..end],
        "",
        "^".repeat(caret_len),
    )
}

/// Turn a service error into a CLI error, attaching a caret snippet against `source`
/// when the error carries a span into it.
fn service_error_to_cli(e: ServiceError, source: &str) -> CliError {
    match &e {
        ServiceError::DtdParse { span, .. } | ServiceError::QueryParse { span, .. } => {
            CliError::Runtime(format!("{e}\n{}", caret_snippet(source, span.0, span.1)))
        }
        _ => CliError::Runtime(e.to_string()),
    }
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if options.positional.is_empty() {
        return Err(CliError::Usage("check needs at least one query".into()));
    }
    let dtd_text = read_dtd(&options)?;
    let mut session = Session::new();
    session
        .load_dtd(&dtd_text)
        .map_err(|e| service_error_to_cli(e, &dtd_text))?;
    let threads = effective_threads(options.threads);
    let served = session
        .check_batch(&options.positional, threads)
        .map_err(|e| {
            // A batch parse error does not say which query failed; re-parse to find it
            // so the caret lands on the right source text.
            if matches!(e, ServiceError::QueryParse { .. }) {
                if let Some(query) = options
                    .positional
                    .iter()
                    .find(|q| xpsat_xpath::parse_path(q).is_err())
                {
                    return service_error_to_cli(e, query);
                }
            }
            CliError::Runtime(e.to_string())
        })?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut any_unknown = false;
    for (query, one) in options.positional.iter().zip(&served) {
        let decision = &one.decision;
        writeln!(
            out,
            "{query}: {} [engine: {}; complete: {}; cached: {}]",
            decision.result,
            xpsat_service::engine_slug(decision.engine),
            decision.complete,
            one.cached,
        )?;
        if options.witness {
            if let xpsat_core::Satisfiability::Satisfiable(doc) = &decision.result {
                writeln!(out, "  witness: {}", xpsat_xmltree::serialize::to_xml(doc))?;
            }
        }
        any_unknown |= !decision.result.is_definite();
    }
    if any_unknown {
        Err(CliError::Runtime("some verdicts were 'unknown'".into()))
    } else {
        Ok(())
    }
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if !options.positional.is_empty() {
        return Err(CliError::Usage(
            "batch takes no positional arguments".into(),
        ));
    }
    let server = ProtocolServer::new(options.threads);
    let stdout = std::io::stdout();
    match &options.input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
            server.serve(BufReader::new(file), stdout.lock())?;
        }
        None => {
            let stdin = std::io::stdin();
            server.serve(stdin.lock(), stdout.lock())?;
        }
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let dtd_text = read_dtd(&options)?;
    let mut session = Session::new();
    let id = session
        .load_dtd(&dtd_text)
        .map_err(|e| service_error_to_cli(e, &dtd_text))?;
    let artifacts = session
        .workspace()
        .artifacts(id)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let (dtd, class) = (artifacts.compiled.dtd(), artifacts.compiled.class());
    println!("root:               {}", dtd.root());
    println!("element types:      {}", dtd.element_names().len());
    println!("size |D|:           {}", dtd.size());
    println!("recursive:          {}", class.recursive);
    println!("disjunction-free:   {}", class.disjunction_free);
    println!("has star:           {}", class.has_star);
    println!("normalized:         {}", class.normalized);
    match class.depth_bound {
        Some(depth) => println!("depth bound:        {depth}"),
        None => println!("depth bound:        unbounded (recursive)"),
    }
    println!(
        "normalisation N(D): {} fresh types",
        artifacts.normalization.new_types.len()
    );
    println!(
        "content automata:   {}",
        artifacts.compiled.automata_count()
    );
    for text in &options.positional {
        let q = session
            .workspace()
            .intern(text)
            .map_err(|e| service_error_to_cli(e, text))?;
        let program = session
            .workspace()
            .compiled_program(id, q)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let query = session
            .workspace()
            .query(q)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        println!();
        println!("query:              {}", query.canonical);
        println!("canonical form:     {}", query.class.text);
        println!("canonical hash:     {:016x}", query.class.canonical_hash);
        println!("structural hash:    {:016x}", query.class.structural_hash);
        match program {
            Some(program) => println!("compiled program:   {} ops", program.ops.len()),
            None => println!("compiled program:   none (outside the compiled fragment)"),
        }
    }
    Ok(())
}

fn cmd_bench_gen(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if !options.positional.is_empty() {
        return Err(CliError::Usage(
            "bench-gen takes no positional arguments".into(),
        ));
    }
    let dtd = xpsat_core::corpus::layered_dtd(options.depth, options.width);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let queries: Vec<Json> = (0..options.queries)
        .map(|_| {
            Json::Str(xpsat_core::corpus::random_positive_query(&mut rng, &dtd, 3).to_string())
        })
        .collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "{}",
        Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(dtd.to_string())),
        ])
    )?;
    let mut batch = vec![
        ("op", Json::Str("batch".into())),
        ("dtd_id", Json::Num(0.0)),
        ("queries", Json::Arr(queries)),
    ];
    if options.threads > 0 {
        batch.push(("threads", Json::Num(options.threads as f64)));
    }
    writeln!(out, "{}", Json::obj(batch))?;
    writeln!(
        out,
        "{}",
        Json::obj(vec![("op", Json::Str("stats".into()))])
    )?;
    Ok(())
}

/// A client connection to a running daemon (TCP or Unix socket).
enum ClientConn {
    Tcp(std::net::TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// A buffered reader plus writer over the same server connection.  Callers flush
/// the writer after each request, so every request leaves in one write.
type ClientHalves = (Box<dyn BufRead>, Box<dyn Write>);

impl ClientConn {
    fn open(options: &Options) -> Result<ClientConn, CliError> {
        if let Some(path) = &options.unix {
            #[cfg(unix)]
            {
                return Ok(ClientConn::Unix(
                    std::os::unix::net::UnixStream::connect(path)
                        .map_err(|e| CliError::Runtime(format!("cannot connect to {path}: {e}")))?,
                ));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(CliError::Usage(
                    "--unix is only supported on Unix platforms".into(),
                ));
            }
        }
        let addr = options.addr.as_deref().unwrap_or("127.0.0.1:7878");
        Ok(ClientConn::Tcp(
            std::net::TcpStream::connect(addr)
                .map_err(|e| CliError::Runtime(format!("cannot connect to {addr}: {e}")))?,
        ))
    }

    fn split(self) -> Result<ClientHalves, CliError> {
        Ok(match self {
            ClientConn::Tcp(stream) => {
                let reader = stream.try_clone().map_err(CliError::from)?;
                (
                    Box::new(BufReader::new(reader)) as Box<dyn BufRead>,
                    Box::new(BufWriter::new(stream)) as Box<dyn Write>,
                )
            }
            #[cfg(unix)]
            ClientConn::Unix(stream) => {
                let reader = stream.try_clone().map_err(CliError::from)?;
                (
                    Box::new(BufReader::new(reader)) as Box<dyn BufRead>,
                    Box::new(BufWriter::new(stream)) as Box<dyn Write>,
                )
            }
        })
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if !options.positional.is_empty() {
        return Err(CliError::Usage(
            "serve takes no positional arguments".into(),
        ));
    }
    if options.addr.is_some() && options.unix.is_some() {
        return Err(CliError::Usage("--addr and --unix are exclusive".into()));
    }
    let bind = if let Some(path) = &options.unix {
        #[cfg(unix)]
        {
            Bind::Unix(std::path::PathBuf::from(path))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(CliError::Usage(
                "--unix is only supported on Unix platforms".into(),
            ));
        }
    } else {
        Bind::Tcp(
            options
                .addr
                .clone()
                .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        )
    };
    let config = ServerConfig {
        bind,
        workers: options.workers,
        queue_depth: options.queue,
        decide_workers: options.decide_workers,
        max_inflight_queries: options.max_inflight,
        request_queue_depth: options.request_queue,
        tenant_rate_qps: options.tenant_rate,
        tenant_burst: options.tenant_burst,
        tenant_max_inflight: options.tenant_inflight,
        tenant_weights: options.tenant_weights.clone(),
        shed_target_ms: options.shed_target_ms,
        drain_deadline_ms: options.drain_deadline_ms,
        watchdog_stuck_ms: options.watchdog_ms,
        default_deadline_ms: options.deadline_ms,
        default_max_steps: options.max_steps,
        max_line_bytes: options.max_line_bytes,
        cache_dir: options.cache_dir.as_ref().map(std::path::PathBuf::from),
        default_threads: options.threads,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).map_err(|e| CliError::Runtime(e.to_string()))?;
    // One machine-readable line announcing readiness (and the ephemeral port when
    // the caller bound port 0), then serve until killed.
    let mut ready = vec![("serving", Json::Bool(true))];
    let addr_text = handle.local_addr().map(|a| a.to_string());
    if let Some(addr) = &addr_text {
        ready.push(("addr", Json::Str(addr.clone())));
    }
    if let Some(path) = &options.unix {
        ready.push(("unix", Json::Str(path.clone())));
    }
    if let Some(dir) = &options.cache_dir {
        ready.push(("cache_dir", Json::Str(dir.clone())));
    }
    println!("{}", Json::obj(ready));
    std::io::stdout().flush()?;
    // Serve until something initiates drain (the `drain` protocol op, typically) —
    // then finish in-flight work, abort the rest at the drain deadline, flush the
    // artifact store, and exit cleanly.
    handle.wait();
    Ok(())
}

fn cmd_connect(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if !options.positional.is_empty() {
        return Err(CliError::Usage(
            "connect takes no positional arguments".into(),
        ));
    }
    let (mut reader, mut writer) = ClientConn::open(&options)?.split()?;
    let input: Box<dyn BufRead> = match &options.input {
        Some(path) => {
            Box::new(BufReader::new(std::fs::File::open(path).map_err(|e| {
                CliError::Runtime(format!("cannot read {path}: {e}"))
            })?))
        }
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut response = String::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{line}")?;
        writer.flush()?;
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(CliError::Runtime(
                "server closed the connection mid-script".into(),
            ));
        }
        out.write_all(response.as_bytes())?;
    }
    Ok(())
}

/// `health` / `drain`: send one lifecycle op, print the one-line answer.
fn cmd_one_shot_op(args: &[String], op: &str) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let (mut reader, mut writer) = ClientConn::open(&options)?.split()?;
    writeln!(writer, "{}", Json::obj(vec![("op", Json::Str(op.into()))]))?;
    writer.flush()?;
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(CliError::Runtime("server closed the connection".into()));
    }
    print!("{response}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let (mut reader, mut writer) = ClientConn::open(&options)?.split()?;
    let mut request = vec![("op", Json::Str("stats".into()))];
    if let Some(tenant) = &options.tenant {
        request.push(("tenant", Json::Str(tenant.clone())));
    }
    writeln!(writer, "{}", Json::obj(request))?;
    writer.flush()?;
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(CliError::Runtime("server closed the connection".into()));
    }
    print!("{response}");
    Ok(())
}
