//! Seeded chaos soak: mixed tenant floods, worker panic/stall storms, drains
//! under load, mid-drain restarts and slow-loris clients, all against live
//! servers on ephemeral ports.
//!
//! Iteration count is tunable the same way as the fuzz harness: set
//! `XPSAT_CHAOS_ITERS` (default 1 round per scenario) — CI runs a bounded soak,
//! a developer chasing a flake can run thousands.  Everything is seeded; the
//! only nondeterminism left is OS scheduling, which is exactly what the
//! scenarios are meant to survive.
//!
//! The invariants asserted here are the PR's headline guarantees:
//!   * a tenant flooding at 10x its rate limit is the one shed — victims keep
//!     completing, with a sane p99;
//!   * every request a client managed to send before shutdown draws exactly one
//!     response — accepted work is never silently dropped;
//!   * worker panics and stalls never take the server down: the watchdog
//!     restores capacity and the requester gets a structured answer;
//!   * a drained server restarted over the same artifact store serves compiled
//!     DTDs from disk;
//!   * a stream of DTD registrations never holds back a tenant's decided checks,
//!     and every DTD text keeps one id;
//!   * tenants racing to register one DTD text share one build of it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpsat_server::{Bind, Server, ServerConfig, ServerHandle};
use xpsat_service::Json;

const DTD: &str = "r -> a*; a -> b?; b -> #;";

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn rounds() -> u64 {
    std::env::var("XPSAT_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xpsat-chaos-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic xorshift; the soak must be reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn start(mut config: ServerConfig) -> (ServerHandle, String) {
    config.bind = Bind::Tcp("127.0.0.1:0".to_string());
    let handle = Server::start(config).expect("server starts");
    let addr = handle.local_addr().expect("tcp server has an address");
    (handle, addr.to_string())
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What one request drew back, from the client's point of view.
enum Outcome {
    Ok(Json),
    Err(Json),
    /// The connection closed before a response line arrived.
    Closed,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Outcome {
        if writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .is_err()
        {
            return Outcome::Closed;
        }
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) | Err(_) => Outcome::Closed,
            Ok(_) => {
                let parsed = Json::parse(response.trim()).expect("response parses");
                if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
                    Outcome::Ok(parsed)
                } else {
                    Outcome::Err(parsed)
                }
            }
        }
    }

    fn expect_ok(&mut self, line: &str) -> Json {
        match self.request(line) {
            Outcome::Ok(json) => json,
            Outcome::Err(json) => panic!("request failed: {line} -> {json}"),
            Outcome::Closed => panic!("connection closed on: {line}"),
        }
    }
}

fn error_kind(response: &Json) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("unstructured")
}

/// A flooding tenant capped at ~50 cost/s hammers as fast as it can (an order of
/// magnitude over its refill) while a victim tenant trickles well under its own
/// limit.  The victim must complete every request with a sane p99; only the
/// flooder sees `overloaded`.
#[test]
fn flooding_tenant_is_shed_while_victims_keep_their_p99() {
    for round in 0..rounds() {
        let config = ServerConfig {
            tenant_rate_qps: Some(50.0),
            tenant_burst: 10.0,
            decide_workers: 4,
            ..ServerConfig::default()
        };
        let (handle, addr) = start(config);

        // Both tenants register inside their burst allowance.
        let mut setup = Client::connect(&addr);
        setup.expect_ok(&format!(
            r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"flood"}}"#
        ));
        setup.expect_ok(&format!(
            r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"victim"}}"#
        ));
        drop(setup);

        let deadline = Instant::now() + Duration::from_millis(900);
        let flooders: Vec<_> = (0..3)
            .map(|f| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut rng = Rng(0x5eed_2005 + round * 31 + f);
                    let (mut sent, mut answered, mut refused) = (0u64, 0u64, 0u64);
                    while Instant::now() < deadline {
                        let query = ["a", "a[b]", "b/.."][rng.below(3) as usize];
                        sent += 1;
                        match client.request(&format!(
                            r#"{{"op":"check","dtd_id":0,"query":"{query}","tenant":"flood"}}"#
                        )) {
                            Outcome::Ok(_) => answered += 1,
                            Outcome::Err(response) => {
                                assert_eq!(error_kind(&response), "overloaded", "{response}");
                                answered += 1;
                                refused += 1;
                            }
                            Outcome::Closed => panic!("flooder connection closed"),
                        }
                    }
                    (sent, answered, refused)
                })
            })
            .collect();

        let victim = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut latencies = Vec::new();
                // 20 requests at ~20/s: well inside the 50/s refill.
                for i in 0..20 {
                    let sent_at = Instant::now();
                    let line = format!(
                        r#"{{"op":"check","dtd_id":0,"query":"a[b]","tenant":"victim","seq":{i}}}"#
                    );
                    match client.request(&line) {
                        Outcome::Ok(_) => latencies.push(sent_at.elapsed()),
                        Outcome::Err(response) => {
                            panic!("victim refused while flooder should be shed: {response}")
                        }
                        Outcome::Closed => panic!("victim connection closed"),
                    }
                    std::thread::sleep(Duration::from_millis(45));
                }
                latencies
            })
        };

        let mut latencies = victim.join().expect("victim thread");
        latencies.sort();
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        assert!(
            p99 < Duration::from_millis(500),
            "victim p99 {p99:?} under flood (round {round})"
        );

        let (mut sent, mut answered, mut refused) = (0, 0, 0);
        for flooder in flooders {
            let (s, a, r) = flooder.join().expect("flooder thread");
            sent += s;
            answered += a;
            refused += r;
        }
        assert_eq!(sent, answered, "every flooder request drew a response");
        assert!(
            refused > 0,
            "a tenant at 10x its refill rate must see overloaded \
             (round {round}: sent {sent}, answered {answered})"
        );
        assert!(handle.stats().requests_rate_limited >= refused);
        handle.shutdown();
    }
}

/// Clients hammer the server while it drains.  The invariant is accounting:
/// every request that was sent draws exactly one response — success before the
/// drain, a retryable `shutting_down` after — and the connection only ever
/// closes *between* requests (after the server reached Stopped), never inside
/// one.
#[test]
fn drain_under_load_answers_every_accepted_request() {
    for round in 0..rounds() {
        let config = ServerConfig {
            decide_workers: 2,
            drain_deadline_ms: 3_000,
            ..ServerConfig::default()
        };
        let (handle, addr) = start(config);
        let mut setup = Client::connect(&addr);
        setup.expect_ok(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

        let clients: Vec<_> = (0..4)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut rng = Rng(0xc4a0_5eed + round * 17 + c);
                    let (mut served, mut told_shutdown) = (0u64, 0u64);
                    // Loop until the drain notice arrives (bounded only as a
                    // hang backstop): the drain always lands within ~200ms.
                    for _ in 0..1_000_000 {
                        let line = if rng.below(4) == 0 {
                            r#"{"op":"batch","dtd_id":0,"queries":["a","a[b]","b/.."]}"#
                        } else {
                            r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#
                        };
                        match client.request(line) {
                            Outcome::Ok(_) => served += 1,
                            Outcome::Err(response) => {
                                // The only acceptable refusal mid-soak is the drain
                                // announcement, and it must be marked retryable.
                                assert_eq!(error_kind(&response), "shutting_down", "{response}");
                                assert_eq!(
                                    response
                                        .get("error")
                                        .and_then(|e| e.get("retryable"))
                                        .and_then(Json::as_bool),
                                    Some(true),
                                    "{response}"
                                );
                                told_shutdown += 1;
                                break;
                            }
                            // Closed before any shutdown notice would mean a lost
                            // accepted request.
                            Outcome::Closed => break,
                        }
                    }
                    (served, told_shutdown)
                })
            })
            .collect();

        // Let the load establish, then drain mid-flight over a live connection.
        std::thread::sleep(Duration::from_millis(50 + (round % 3) * 40));
        let drain = setup.expect_ok(r#"{"op":"drain"}"#);
        assert_eq!(drain.get("draining").and_then(Json::as_bool), Some(true));

        let (mut served, mut told_shutdown) = (0, 0);
        for client in clients {
            let (s, t) = client.join().expect("client thread");
            served += s;
            told_shutdown += t;
        }
        assert!(served > 0, "some requests completed before the drain");
        assert!(
            told_shutdown > 0,
            "at least one client observed the drain notice (round {round})"
        );
        handle.shutdown();
    }
}

/// Stalled and panicking decide workers: the watchdog declares the stuck ones
/// dead, answers their requesters, restores pool capacity, and ordinary traffic
/// keeps flowing throughout.
#[test]
fn panic_and_stall_storm_trips_the_watchdog_and_recovers() {
    let config = ServerConfig {
        debug_ops: true,
        decide_workers: 2,
        watchdog_stuck_ms: Some(250),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut setup = Client::connect(&addr);
    setup.expect_ok(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    for round in 0..rounds() {
        // Two stallers wedge the whole decide pool.  Each stalls under its own
        // tenant: a tenant's requests serialise on its workspace, so a stalled
        // "public" request would block the normal client below on the tenant
        // lock no matter how many workers the watchdog restores.
        let stallers: Vec<_> = (0..2)
            .map(|s| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr);
                    match client.request(&format!(
                        r#"{{"op":"debug_stall","stall_ms":1500,"tenant":"stall{s}"}}"#
                    )) {
                        // The stall either outlives the watchdog (abandoned =>
                        // structured internal_error) or finishes first on a slow
                        // scheduler — both are answered, neither is a hang.
                        Outcome::Ok(_) => {}
                        Outcome::Err(response) => {
                            assert_eq!(error_kind(&response), "internal_error", "{response}")
                        }
                        Outcome::Closed => panic!("staller connection closed"),
                    }
                })
            })
            .collect();

        // ...a panicker answers structured internal_error...
        let panicker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                match client.request(r#"{"op":"debug_panic"}"#) {
                    Outcome::Err(response) => {
                        assert_eq!(error_kind(&response), "internal_error", "{response}")
                    }
                    Outcome::Ok(response) => panic!("debug_panic answered ok: {response}"),
                    Outcome::Closed => panic!("panicker connection closed"),
                }
            })
        };

        // ...and plain traffic still completes because the watchdog replaces the
        // wedged workers instead of letting the pool drain to zero.
        std::thread::sleep(Duration::from_millis(50));
        let mut client = Client::connect(&addr);
        for _ in 0..5 {
            client.expect_ok(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
        }

        for staller in stallers {
            staller.join().expect("staller thread");
        }
        panicker.join().expect("panicker thread");
        let _ = round;
    }

    assert!(
        handle.watchdog_trips() >= 1,
        "watchdog never tripped despite 1500ms stalls over a 250ms budget"
    );
    assert!(handle.stats().requests_panicked >= rounds());
    handle.shutdown();
}

/// A server drained mid-load and restarted over the same artifact store must
/// find the DTD's text on disk (`cached:true`) and rebuild it exactly once.
#[test]
fn mid_drain_restart_reuses_the_artifact_store() {
    let dir = scratch_dir("restart");
    for _ in 0..rounds() {
        let config = ServerConfig {
            cache_dir: Some(dir.clone()),
            drain_deadline_ms: 2_000,
            ..ServerConfig::default()
        };
        let (first, addr) = start(config.clone());
        let mut client = Client::connect(&addr);
        client.expect_ok(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

        // Load in flight while the drain lands.
        let load = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut served = 0u64;
                loop {
                    match client.request(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#) {
                        Outcome::Ok(_) => served += 1,
                        Outcome::Err(response) => {
                            assert_eq!(error_kind(&response), "shutting_down", "{response}");
                            break;
                        }
                        Outcome::Closed => break,
                    }
                }
                served
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        client.expect_ok(r#"{"op":"drain"}"#);
        load.join().expect("load thread");
        first.shutdown();

        // The restarted server finds the text on disk.
        let config = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let (second, addr) = start(config);
        let mut client = Client::connect(&addr);
        let reg = client.expect_ok(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
        assert_eq!(reg.get("cached").and_then(Json::as_bool), Some(true));
        let stats = client.expect_ok(r#"{"op":"stats"}"#);
        assert_eq!(
            stats.get("classifications").and_then(Json::as_u64),
            Some(1),
            "restart builds once, from the stored text"
        );
        second.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One client registers a seeded stream of small DTDs on tenant `reg`, repeats
/// included, while others send that tenant a decided check until the stream ends.
/// A registration holds no lock a check waits for, so every check is answered on
/// its connection thread, and every DTD text keeps the one id it was first given.
#[test]
fn registration_stream_does_not_hold_back_decided_checks() {
    for round in 0..rounds() {
        let (handle, addr) = start(ServerConfig {
            decide_workers: 2,
            ..ServerConfig::default()
        });
        let mut setup = Client::connect(&addr);
        setup.expect_ok(&format!(
            r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"reg"}}"#
        ));
        let check = r#"{"op":"check","dtd_id":0,"query":"a[b]","tenant":"reg"}"#;
        setup.expect_ok(check);
        let inline_before = handle.stats().requests_inline;

        let streaming = Arc::new(AtomicBool::new(true));
        let registrar = {
            let (addr, streaming) = (addr.clone(), Arc::clone(&streaming));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut rng = Rng(0x7e61_5eed + round * 13);
                let mut ids: HashMap<String, u64> = HashMap::new();
                for _ in 0..40 {
                    let k = rng.below(24);
                    let text = format!("r -> e{k}*; e{k} -> f?; f -> #;");
                    let reg = client.expect_ok(&format!(
                        r#"{{"op":"register_dtd","dtd":"{text}","tenant":"reg"}}"#
                    ));
                    let id = reg.get("dtd_id").and_then(Json::as_u64).expect("dtd_id");
                    assert_eq!(*ids.entry(text.clone()).or_insert(id), id, "{text}");
                }
                streaming.store(false, Ordering::SeqCst);
                ids
            })
        };
        let checkers: Vec<_> = (0..3)
            .map(|_| {
                let (addr, streaming) = (addr.clone(), Arc::clone(&streaming));
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut sent = 0u64;
                    while sent == 0 || streaming.load(Ordering::SeqCst) {
                        let answer = client.expect_ok(check);
                        assert_eq!(answer.get("cached").and_then(Json::as_bool), Some(true));
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();

        let ids = registrar.join().expect("registrar thread");
        let checks: u64 = checkers
            .into_iter()
            .map(|c| c.join().expect("checker thread"))
            .sum();
        // Distinct texts got distinct ids after the setup DTD's 0.
        let mut distinct: Vec<u64> = ids.values().copied().collect();
        distinct.sort_unstable();
        assert_eq!(distinct, (1..=ids.len() as u64).collect::<Vec<_>>());
        assert_eq!(
            handle.stats().requests_inline - inline_before,
            checks,
            "a decided check went to the decide pool (round {round})"
        );
        handle.shutdown();
    }
}

/// Several tenants register one DTD text at the same instant, each over its own
/// connection: the text is built once for all of them, every answer is
/// structured, and every tenant then decides against that one build correctly.
#[test]
fn racing_cross_tenant_registrations_build_the_text_once() {
    const TENANTS: usize = 6;
    for round in 0..rounds() {
        let (handle, addr) = start(ServerConfig {
            decide_workers: 2,
            ..ServerConfig::default()
        });
        let k = Rng(0x0c70_55ed + round * 29).below(1000);
        let text = format!("r -> a{k}*; a{k} -> b?; b -> #;");
        let released = std::sync::Barrier::new(TENANTS);
        let answers: Vec<(bool, bool)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let (addr, text, released) = (&addr, &text, &released);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr);
                        let line =
                            format!(r#"{{"op":"register_dtd","dtd":"{text}","tenant":"race{t}"}}"#);
                        released.wait();
                        // A refusal must be structured; the tenant then retries.
                        loop {
                            match client.request(&line) {
                                Outcome::Ok(reg) => {
                                    assert_eq!(reg.get("dtd_id").and_then(Json::as_u64), Some(0));
                                    let flag = |key| reg.get(key).and_then(Json::as_bool);
                                    return (
                                        flag("reused") == Some(true),
                                        flag("cached") == Some(true),
                                    );
                                }
                                Outcome::Err(err) => {
                                    assert_ne!(error_kind(&err), "unstructured", "{err}");
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                Outcome::Closed => panic!("connection closed (round {round})"),
                            }
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("tenant thread"))
                .collect()
        });
        assert!(answers.iter().all(|&(reused, _)| !reused), "{answers:?}");
        let built = answers.iter().filter(|&&(_, cached)| !cached).count();
        assert_eq!(built, 1, "round {round}: {answers:?}");

        let mut client = Client::connect(&addr);
        let mut classifications = 0;
        for t in 0..TENANTS {
            for (query, verdict) in [
                (format!("a{k}[b]"), "satisfiable"),
                ("b".into(), "unsatisfiable"),
            ] {
                let answer = client.expect_ok(&format!(
                    r#"{{"op":"check","dtd_id":0,"query":"{query}","tenant":"race{t}"}}"#
                ));
                assert_eq!(
                    answer.get("result").and_then(Json::as_str),
                    Some(verdict),
                    "{query}"
                );
            }
            let stats = client.expect_ok(&format!(r#"{{"op":"stats","tenant":"race{t}"}}"#));
            classifications += stats
                .get("classifications")
                .and_then(Json::as_u64)
                .expect("counter");
        }
        assert_eq!(classifications, 1, "round {round}");
        handle.shutdown();
    }
}

/// Slow-loris connections (bytes trickling in, never a newline) mixed with real
/// traffic and a drain: the stall guard reaps them, honest clients are served,
/// and shutdown does not wait on the loris.
#[test]
fn slow_loris_does_not_block_service_or_shutdown() {
    let config = ServerConfig {
        stalled_read_timeout_ms: Some(200),
        workers: 3,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    // Two lorises pin two connection threads with half-written requests.
    let lorises: Vec<_> = (0..2)
        .map(|_| {
            let mut client = Client::connect(&addr);
            client.writer.write_all(b"{\"op\":\"che").expect("partial");
            client.writer.flush().expect("flush");
            client
        })
        .collect();

    // Honest traffic on the remaining capacity is unaffected.
    let mut client = Client::connect(&addr);
    client.expect_ok(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    client.expect_ok(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);

    // The guard reaps the lorises (EOF, no response bytes).
    for mut loris in lorises {
        let mut buffer = String::new();
        let n = loris.reader.read_line(&mut buffer).expect("read EOF");
        assert_eq!(n, 0, "loris should be dropped, got {buffer:?}");
    }
    assert!(handle.stats().connections_stalled >= 2);

    // Shutdown remains prompt with a fresh loris mid-stall.
    let mut late = Client::connect(&addr);
    late.writer.write_all(b"{\"op").expect("partial");
    late.writer.flush().expect("flush");
    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "shutdown blocked on a slow-loris connection"
    );
}
