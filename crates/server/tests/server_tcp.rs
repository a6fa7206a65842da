//! End-to-end tests of the TCP front-end: protocol round-trips, restart
//! persistence through the artifact store, tenant isolation, deadlines and
//! backpressure.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpsat_server::{Bind, Server, ServerConfig, ServerHandle};
use xpsat_service::Json;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xpsat-server-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(mut config: ServerConfig) -> (ServerHandle, String) {
    config.bind = Bind::Tcp("127.0.0.1:0".to_string());
    let handle = Server::start(config).expect("server starts");
    let addr = handle.local_addr().expect("tcp server has an address");
    (handle, addr.to_string())
}

/// A blocking request/response client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "server closed the connection");
        Json::parse(response.trim()).expect("response parses")
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send_raw(line);
        self.recv()
    }
}

fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
    response
        .get(key)
        .unwrap_or_else(|| panic!("missing {key} in {response}"))
}

const DTD: &str = "r -> a*; a -> b?; b -> #;";

#[test]
fn register_check_batch_over_tcp() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    let reg = client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    assert_eq!(field(&reg, "ok").as_bool(), Some(true));
    assert_eq!(field(&reg, "dtd_id").as_u64(), Some(0));
    assert_eq!(field(&reg, "cached").as_bool(), Some(false));

    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#);
    assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
    assert!(field(&check, "witness")
        .as_str()
        .unwrap()
        .starts_with("<r>"));

    let batch =
        client.round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a[b]","b/..","c"],"threads":2}"#);
    let results = field(&batch, "results").as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(field(&results[0], "cached").as_bool(), Some(true));
    assert_eq!(field(&results[1], "result").as_str(), Some("unsatisfiable"));

    // Several concurrent connections serve the same workspace.
    let mut other = Client::connect(&addr);
    let check2 = other.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&check2, "cached").as_bool(), Some(true));

    let stats = client.round_trip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "classifications").as_u64(), Some(1));
    assert!(
        field(&stats, "server_connections_accepted")
            .as_u64()
            .unwrap()
            >= 2
    );
    handle.shutdown();
}

#[test]
fn restart_serves_artifacts_from_the_store() {
    let dir = scratch_dir("restart");
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let (first, addr) = start(config.clone());
    let mut client = Client::connect(&addr);
    let reg = client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    assert_eq!(field(&reg, "cached").as_bool(), Some(false));
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#);
    let witness = field(&check, "witness").as_str().unwrap().to_string();
    drop(client);
    first.shutdown();

    // A fresh process (modelled by a fresh server) finds the DTD's text on disk:
    // `cached:true`, one rebuild from the stored text, and identical decisions.
    let (second, addr) = start(config);
    let mut client = Client::connect(&addr);
    let reg = client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    assert_eq!(field(&reg, "ok").as_bool(), Some(true));
    assert_eq!(field(&reg, "cached").as_bool(), Some(true));
    let stats = client.round_trip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "classifications").as_u64(), Some(1));
    assert_eq!(field(&stats, "artifact_store_hits").as_u64(), Some(1));
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#);
    assert_eq!(field(&check, "witness").as_str(), Some(witness.as_str()));
    drop(client);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_do_not_observe_each_other() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    let reg = client.round_trip(&format!(
        r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"alice"}}"#
    ));
    assert_eq!(field(&reg, "dtd_id").as_u64(), Some(0));

    // Bob's workspace has no DTD 0; the default tenant is distinct from both.
    let bob = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a","tenant":"bob"}"#);
    assert_eq!(field(&bob, "ok").as_bool(), Some(false));
    let public = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a"}"#);
    assert_eq!(field(&public, "ok").as_bool(), Some(false));
    let alice = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a","tenant":"alice"}"#);
    assert_eq!(field(&alice, "ok").as_bool(), Some(true));

    // Invalid tenant names are rejected without creating workspaces.
    let bad = client.round_trip(r#"{"op":"stats","tenant":"../etc"}"#);
    assert_eq!(field(&bad, "ok").as_bool(), Some(false));
    let error = field(&bad, "error");
    assert_eq!(field(error, "kind").as_str(), Some("invalid_tenant"));
    assert!(field(error, "message").as_str().unwrap().contains("tenant"));

    assert_eq!(handle.tenant_count(), 3);
    handle.shutdown();
}

#[test]
fn expired_deadlines_answer_deadline_exceeded() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    // A one-millisecond deadline cannot cover parsing and deciding hundreds of
    // distinct negation queries single-threaded: the batch aborts mid-flight.
    let queries: Vec<String> = (0..256)
        .map(|i| format!(r#""{}a[not(b)]""#, "a/../".repeat(i)))
        .collect();
    let expired = client.round_trip(&format!(
        r#"{{"op":"batch","dtd_id":0,"queries":[{}],"threads":1,"deadline_ms":1}}"#,
        queries.join(",")
    ));
    assert_eq!(field(&expired, "ok").as_bool(), Some(false));
    assert_eq!(
        field(field(&expired, "error"), "kind").as_str(),
        Some("deadline_exceeded")
    );

    // A zero deadline is not "already expired" — it is a malformed request,
    // refused before any work is admitted.
    let zero =
        client.round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a[b]"],"deadline_ms":0}"#);
    assert_eq!(field(&zero, "ok").as_bool(), Some(false));
    assert_eq!(
        field(field(&zero, "error"), "kind").as_str(),
        Some("invalid_request")
    );

    // The same request without a deadline succeeds on the same connection.
    let fine = client.round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a[b]"]}"#);
    assert_eq!(field(&fine, "ok").as_bool(), Some(true));
    handle.shutdown();
}

#[test]
fn health_and_drain_bring_the_server_down_cleanly() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "ok").as_bool(), Some(true));
    assert_eq!(field(&health, "phase").as_str(), Some("running"));
    assert_eq!(field(&health, "draining").as_bool(), Some(false));
    assert!(field(&health, "uptime_ms").as_u64().is_some());

    // `drain` acks, flips the phase, and in-flight connections learn on their
    // next request that the server is going away (retryable `shutting_down`).
    let drain = client.round_trip(r#"{"op":"drain"}"#);
    assert_eq!(field(&drain, "ok").as_bool(), Some(true));
    assert_eq!(field(&drain, "draining").as_bool(), Some(true));
    assert!(handle.draining());

    let refused = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&refused, "ok").as_bool(), Some(false));
    let error = field(&refused, "error");
    assert_eq!(field(error, "kind").as_str(), Some("shutting_down"));
    assert_eq!(field(error, "retryable").as_bool(), Some(true));

    // health keeps answering during the drain (it bypasses admission)...
    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "draining").as_bool(), Some(true));

    // ...new connections are told off rather than silently refused...
    let mut late = Client::connect(&addr);
    let told = late.recv();
    assert_eq!(
        field(field(&told, "error"), "kind").as_str(),
        Some("shutting_down")
    );

    // ...and shutdown completes without losing anything.
    handle.shutdown();
}

#[test]
fn stats_reports_lifecycle_scheduler_and_per_tenant_lanes() {
    let config = ServerConfig {
        tenant_rate_qps: Some(1000.0),
        tenant_burst: 512.0,
        tenant_weights: vec![("alice".to_string(), 4)],
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(
        r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"alice"}}"#
    ));
    client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","tenant":"alice"}"#);

    let stats = client.round_trip(r#"{"op":"stats","tenant":"alice"}"#);
    assert_eq!(field(&stats, "server_phase").as_str(), Some("running"));
    assert!(field(&stats, "server_uptime_ms").as_u64().is_some());
    assert_eq!(field(&stats, "server_queued_jobs").as_u64(), Some(0));
    assert_eq!(field(&stats, "server_requests_shed").as_u64(), Some(0));
    assert_eq!(field(&stats, "server_watchdog_trips").as_u64(), Some(0));
    let lanes = field(&stats, "tenant_lanes").as_array().unwrap();
    let alice = lanes
        .iter()
        .find(|lane| lane.get("tenant").and_then(Json::as_str) == Some("alice"))
        .expect("alice has a lane");
    assert_eq!(field(alice, "weight").as_u64(), Some(4));
    assert!(field(alice, "served").as_u64().unwrap() >= 2);
    assert!(field(alice, "tokens_remaining").as_u64().unwrap() <= 512);
    handle.shutdown();
}

#[test]
fn inflight_gate_sheds_oversized_batches() {
    let config = ServerConfig {
        max_inflight_queries: 4,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    // A batch costing more than the whole gate is refused immediately with the
    // explicit backpressure marker...
    let shed = client
        .round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a","a","a","a"],"threads":1}"#);
    assert_eq!(field(&shed, "ok").as_bool(), Some(false));
    assert_eq!(
        field(field(&shed, "error"), "kind").as_str(),
        Some("overloaded")
    );

    // ...while a batch within the bound is served on the same connection.
    let fine = client.round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a[b]"]}"#);
    assert_eq!(field(&fine, "ok").as_bool(), Some(true));
    assert!(handle.stats().requests_overloaded >= 1);
    handle.shutdown();
}

#[test]
fn tenants_registering_one_text_share_one_build() {
    let dir = scratch_dir("shared-build");
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let released = std::sync::Barrier::new(8);
    let cached: Vec<bool> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (addr, released) = (&addr, &released);
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    released.wait();
                    let reg = client.round_trip(&format!(
                        r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"t{t}"}}"#
                    ));
                    assert_eq!(field(&reg, "dtd_id").as_u64(), Some(0), "{reg}");
                    assert_eq!(field(&reg, "reused").as_bool(), Some(false), "{reg}");
                    field(&reg, "cached").as_bool().expect("cached is a bool")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    // One tenant built the text; the seven others adopted its build and neither
    // rebuilt nor loaded it.
    assert_eq!(cached.iter().filter(|&&c| !c).count(), 1, "{cached:?}");
    let mut client = Client::connect(&addr);
    let (mut classifications, mut store_hits) = (0, 0);
    for t in 0..8 {
        let stats = client.round_trip(&format!(r#"{{"op":"stats","tenant":"t{t}"}}"#));
        classifications += field(&stats, "classifications").as_u64().unwrap();
        store_hits += field(&stats, "artifact_store_hits").as_u64().unwrap();
        let check = client.round_trip(&format!(
            r#"{{"op":"check","dtd_id":0,"query":"a[b]","tenant":"t{t}"}}"#
        ));
        assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
    }
    assert_eq!((classifications, store_hits), (1, 0));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_request_answers_internal_error_and_pool_survives() {
    let config = ServerConfig {
        debug_ops: true,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    // The fault-injection op panics inside request handling; the worker answers a
    // structured internal_error instead of dying.
    let boom = client.round_trip(r#"{"op":"debug_panic"}"#);
    assert_eq!(field(&boom, "ok").as_bool(), Some(false));
    let error = field(&boom, "error");
    assert_eq!(field(error, "kind").as_str(), Some("internal_error"));
    assert_eq!(field(error, "retryable").as_bool(), Some(false));

    // The same connection, the same tenant and fresh connections all keep serving.
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
    let mut other = Client::connect(&addr);
    let check2 = other.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&check2, "cached").as_bool(), Some(true));
    assert!(handle.stats().requests_panicked >= 1);
    handle.shutdown();
}

#[test]
fn debug_ops_are_refused_unless_enabled() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    let refused = client.round_trip(r#"{"op":"debug_panic"}"#);
    assert_eq!(field(&refused, "ok").as_bool(), Some(false));
    assert_eq!(
        field(field(&refused, "error"), "kind").as_str(),
        Some("unknown_op")
    );
    assert_eq!(handle.stats().requests_panicked, 0);
    handle.shutdown();
}

#[test]
fn server_default_max_steps_governs_decisions() {
    let config = ServerConfig {
        default_max_steps: Some(1),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    // The negation engine cannot finish inside one step: structured, retryable:false.
    let capped = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]"}"#);
    assert_eq!(field(&capped, "ok").as_bool(), Some(false));
    let error = field(&capped, "error");
    assert_eq!(field(error, "kind").as_str(), Some("resource_exhausted"));
    assert_eq!(field(error, "retryable").as_bool(), Some(false));

    // A per-request budget overrides the server default upward.
    let fine =
        client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]","max_steps":100000000}"#);
    assert_eq!(field(&fine, "ok").as_bool(), Some(true));
    assert_eq!(field(&fine, "result").as_str(), Some("satisfiable"));
    handle.shutdown();
}

#[test]
fn mid_line_stall_drops_the_connection() {
    let config = ServerConfig {
        stalled_read_timeout_ms: Some(200),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    // A slow-loris client: send half a request line, then stall.
    let mut loris = Client::connect(&addr);
    loris.writer.write_all(b"{\"op\":\"che").expect("send");
    loris.writer.flush().expect("flush");
    let mut response = String::new();
    let n = loris.reader.read_line(&mut response).expect("read EOF");
    assert_eq!(n, 0, "stalled connection should be closed, got {response}");
    assert!(handle.stats().connections_stalled >= 1);

    // An idle connection (no bytes at all) is NOT affected by the stall guard.
    let mut idle = Client::connect(&addr);
    std::thread::sleep(std::time::Duration::from_millis(400));
    let check = idle.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    assert_eq!(field(&check, "ok").as_bool(), Some(true));
    handle.shutdown();
}

/// A server with one decide worker and the debug ops on.
fn start_one_decide_worker() -> (ServerHandle, String) {
    start(ServerConfig {
        decide_workers: 1,
        debug_ops: true,
        shed_target_ms: None,
        ..ServerConfig::default()
    })
}

/// Park the only decide worker: two 1500 ms stalls under other tenants, until one
/// runs and the other waits in the queue.  Only then is a stall certainly ahead of
/// every request queued later (a single stall looks the same in `health` in the
/// moment between its admission and its enqueue).  Returns when the stalls were
/// sent and their clients, which read the stalls' answers.
fn park_the_decide_worker(addr: &str, client: &mut Client) -> (Instant, Vec<Client>) {
    let stall_sent = Instant::now();
    let mut stallers = Vec::new();
    for tenant in ["staller", "staller2"] {
        let mut staller = Client::connect(addr);
        staller.send_raw(&format!(
            r#"{{"op":"debug_stall","stall_ms":1500,"tenant":"{tenant}"}}"#
        ));
        stallers.push(staller);
    }
    let parked = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.round_trip(r#"{"op":"health"}"#);
        if field(&health, "inflight_cost").as_u64() == Some(1)
            && field(&health, "queued_jobs").as_u64() == Some(1)
        {
            return (stall_sent, stallers);
        }
        assert!(
            Instant::now() < parked,
            "the stalls never parked the worker: {health}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn decided_checks_do_not_wait_for_decide_capacity() {
    let (handle, addr) = start_one_decide_worker();
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    let first = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&first, "cached").as_bool(), Some(false));
    let (stall_sent, stallers) = park_the_decide_worker(&addr, &mut client);

    // A decided class is answered on the connection thread, without waiting.
    let asked = Instant::now();
    let again = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert!(
        asked.elapsed() < Duration::from_millis(300),
        "a decided check waited {:?} for the stalled pool",
        asked.elapsed()
    );
    assert_eq!(field(&again, "cached").as_bool(), Some(true));
    assert_eq!(field(&again, "result").as_str(), Some("satisfiable"));

    // A first-seen query needs the pool: it is answered only after the stall.
    let fresh = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a/b"}"#);
    assert_eq!(field(&fresh, "ok").as_bool(), Some(true));
    assert!(stall_sent.elapsed() >= Duration::from_millis(1500));
    for mut staller in stallers {
        let stalled = staller.recv();
        assert_eq!(field(&stalled, "ok").as_bool(), Some(true));
    }
    assert_eq!(handle.stats().requests_inline, 1);
    handle.shutdown();
}

#[test]
fn stats_does_not_wait_for_decide_capacity() {
    let (handle, addr) = start_one_decide_worker();
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    let (_, stallers) = park_the_decide_worker(&addr, &mut client);

    // `stats` only reads counters: operators see a stuck server while it is stuck.
    let asked = Instant::now();
    let stats = client.round_trip(r#"{"op":"stats"}"#);
    assert!(
        asked.elapsed() < Duration::from_millis(300),
        "stats waited {:?} for the stalled pool",
        asked.elapsed()
    );
    assert_eq!(field(&stats, "dtds_registered").as_u64(), Some(1));
    assert_eq!(field(&stats, "server_queued_jobs").as_u64(), Some(1));
    assert_eq!(field(&stats, "server_requests_inline").as_u64(), Some(1));
    for mut staller in stallers {
        let stalled = staller.recv();
        assert_eq!(field(&stalled, "ok").as_bool(), Some(true));
    }
    handle.shutdown();
}

/// Send `line` on a fresh connection from a thread of its own; the flag is set when
/// the answer arrives.
fn send_in_background(
    addr: &str,
    line: String,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<Json>) {
    let answered = Arc::new(AtomicBool::new(false));
    let (addr, flag) = (addr.to_string(), Arc::clone(&answered));
    let thread = std::thread::spawn(move || {
        let answer = Client::connect(&addr).round_trip(&line);
        flag.store(true, Ordering::SeqCst);
        answer
    });
    (answered, thread)
}

#[test]
fn decided_checks_are_answered_inline_while_a_dtd_registers() {
    // Two decide workers: one takes a long decide, the other a registration.
    let (handle, addr) = start(ServerConfig {
        decide_workers: 2,
        shed_target_ms: None,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    client.round_trip(r#"{"op":"register_dtd","dtd":"r -> a*; a -> a*, b?; b -> #;"}"#);
    client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);

    // Past 1000 steps an `a/a/…` chain leaves the compiled VM for the downward
    // engine, which takes seconds in a debug build.
    let chain = vec!["a"; 1100].join("/");
    let (decided, long) = send_in_background(
        &addr,
        format!(r#"{{"op":"check","dtd_id":0,"query":"{chain}"}}"#),
    );
    // The long check is deciding once its query is interned.
    let backstop = Instant::now() + Duration::from_secs(30);
    while field(&client.round_trip(r#"{"op":"stats"}"#), "queries_interned").as_u64() != Some(2) {
        assert!(Instant::now() < backstop, "the long check never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (registered, registrar) = send_in_background(
        &addr,
        r#"{"op":"register_dtd","dtd":"r -> c*; c -> #;"}"#.to_string(),
    );
    // Wait until the registration is done or has left the queue for a worker.
    while !registered.load(Ordering::SeqCst) {
        let health = client.round_trip(r#"{"op":"health"}"#);
        if field(&health, "inflight_cost").as_u64() == Some(2)
            && field(&health, "queued_jobs").as_u64() == Some(0)
        {
            std::thread::sleep(Duration::from_millis(20));
            break;
        }
        assert!(Instant::now() < backstop, "the registration never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    let inline = handle.stats().requests_inline;
    let again = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&again, "cached").as_bool(), Some(true));
    assert_eq!(
        handle.stats().requests_inline,
        inline + 1,
        "the decided check was sent to the decide pool"
    );
    assert!(
        !decided.load(Ordering::SeqCst),
        "the decided check was answered only after the long decide"
    );
    let reg = registrar.join().unwrap();
    assert_eq!(field(&reg, "dtd_id").as_u64(), Some(1), "{reg}");
    let long = long.join().unwrap();
    assert_eq!(field(&long, "result").as_str(), Some("satisfiable"));
    handle.shutdown();
}

#[test]
fn fresh_connections_are_served_without_an_accept_delay() {
    let (handle, addr) = start(ServerConfig::default());
    // Each connection is taken as it arrives, so 20 in a row cost a few round
    // trips.
    let started = Instant::now();
    for _ in 0..20 {
        let health = Client::connect(&addr).round_trip(r#"{"op":"health"}"#);
        assert_eq!(field(&health, "ok").as_bool(), Some(true));
    }
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "20 fresh connections took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn dropped_handle_releases_its_address() {
    let (handle, addr) = start(ServerConfig::default());
    // The accept thread blocks in `accept()` on a server no client ever reached;
    // dropping the handle must still end it, or it keeps the listener open.
    drop(handle);
    let deadline = Instant::now() + Duration::from_secs(1);
    while let Err(e) = TcpListener::bind(&addr) {
        assert!(Instant::now() < deadline, "{addr} still bound: {e}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn wait_returns_soon_after_a_remote_drain() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "phase").as_str(), Some("running"));
    let waiter = std::thread::spawn(move || {
        handle.wait();
        Instant::now()
    });

    let drained = Instant::now();
    let drain = client.round_trip(r#"{"op":"drain"}"#);
    assert_eq!(field(&drain, "draining").as_bool(), Some(true));
    drop(client);
    let returned = waiter.join().expect("wait returns");
    assert!(
        returned - drained < Duration::from_millis(100),
        "wait returned {:?} after the drain",
        returned - drained
    );
}

#[test]
fn decided_checks_pass_the_tenant_rate_limit() {
    let config = ServerConfig {
        tenant_rate_qps: Some(0.5),
        tenant_burst: 2.0,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(&addr);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    // The bucket is empty: a repeated check, decided and answerable without the
    // pool, is refused all the same.
    let limited = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    let error = field(&limited, "error");
    assert_eq!(field(error, "kind").as_str(), Some("overloaded"));
    assert!(
        field(error, "message").as_str().unwrap().contains("rate"),
        "{limited}"
    );
    let stats = handle.stats();
    assert_eq!(stats.requests_rate_limited, 1);
    assert_eq!(stats.requests_inline, 0);
    handle.shutdown();
}

#[test]
fn long_step_chains_do_not_overflow_a_connection_thread() {
    // A `check` is probed on its connection thread, which parses and renders the
    // query; both recurse once per step of an `a/a/…` chain.  An unregistered DTD
    // keeps the decide pool's share of the work (interning) short.
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    let chain = vec!["a"; 20_000].join("/");
    let check = format!(r#"{{"op":"check","dtd_id":7,"query":"{chain}"}}"#);
    for _ in 0..2 {
        let answer = client.round_trip(&check);
        let error = field(&answer, "error");
        assert_eq!(field(error, "kind").as_str(), Some("unknown_dtd"));
    }
    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "ok").as_bool(), Some(true));
    handle.shutdown();
}

#[test]
fn hostile_request_lines_answer_structured_and_the_server_keeps_serving() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    // A line just under the 1 MiB cap, almost all of it one string, decodes in
    // time linear in its length.
    let padded = format!(r#"{{"op":"health","pad":"{}"}}"#, "x".repeat(1000 * 1024));
    let start = Instant::now();
    let health = client.round_trip(&padded);
    assert_eq!(field(&health, "ok").as_bool(), Some(true));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "{:?}",
        start.elapsed()
    );

    // A million brackets stop at the nesting cap, on the connection thread.
    let brackets = "[".repeat((1 << 20) - 1);
    let answer = client.round_trip(&brackets);
    let error = field(&answer, "error");
    assert_eq!(field(error, "kind").as_str(), Some("malformed_request"));
    let message = field(error, "message").as_str().unwrap();
    assert!(
        message.contains(&format!("at byte {}", xpsat_service::json::MAX_DEPTH)),
        "{message}"
    );

    // Half a million stacked `+` fold to one while the DTD parses.
    let stacked = format!("r -> (a | b){}; a -> #; b -> #;", "+".repeat(500_000));
    let reg = client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{stacked}"}}"#));
    assert_eq!(field(&reg, "ok").as_bool(), Some(true), "{reg}");
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"b"}"#);
    assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));

    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "ok").as_bool(), Some(true));
    handle.shutdown();
}
