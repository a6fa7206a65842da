//! Unix-domain-socket parity for the lifecycle and fairness features: `health`,
//! `drain`/shutdown and quota shedding must behave exactly as they do over TCP —
//! the transport is framing, never semantics.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use xpsat_server::{Bind, Server, ServerConfig, ServerHandle};
use xpsat_service::Json;

static SOCK_SEQ: AtomicU32 = AtomicU32::new(0);

const DTD: &str = "r -> a*; a -> b?; b -> #;";

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "xpsat-unix-{tag}-{}-{}.sock",
        std::process::id(),
        SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start(tag: &str, mut config: ServerConfig) -> (ServerHandle, PathBuf) {
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    config.bind = Bind::Unix(path.clone());
    let handle = Server::start(config).expect("unix server starts");
    (handle, path)
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &PathBuf) -> Client {
        let stream = UnixStream::connect(path).expect("connect unix socket");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn recv(&mut self) -> Json {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "server closed the connection");
        Json::parse(response.trim()).expect("response parses")
    }

    fn round_trip(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        self.recv()
    }
}

fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
    response
        .get(key)
        .unwrap_or_else(|| panic!("missing {key} in {response}"))
}

#[test]
fn health_answers_over_unix_socket() {
    let (handle, path) = start("health", ServerConfig::default());
    let mut client = Client::connect(&path);
    let health = client.round_trip(r#"{"op":"health"}"#);
    assert_eq!(field(&health, "ok").as_bool(), Some(true));
    assert_eq!(field(&health, "op").as_str(), Some("health"));
    assert_eq!(field(&health, "phase").as_str(), Some("running"));
    assert_eq!(field(&health, "draining").as_bool(), Some(false));
    assert!(field(&health, "uptime_ms").as_u64().is_some());
    assert_eq!(field(&health, "watchdog_trips").as_u64(), Some(0));
    handle.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn fresh_connections_are_served_without_an_accept_delay_over_unix_socket() {
    let (handle, path) = start("fresh", ServerConfig::default());
    let started = std::time::Instant::now();
    for _ in 0..20 {
        let health = Client::connect(&path).round_trip(r#"{"op":"health"}"#);
        assert_eq!(field(&health, "ok").as_bool(), Some(true));
    }
    assert!(
        started.elapsed() < std::time::Duration::from_millis(100),
        "20 fresh connections took {:?}",
        started.elapsed()
    );
    handle.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn drain_and_shutdown_remove_the_socket_and_lose_nothing() {
    let (handle, path) = start("drain", ServerConfig::default());
    let mut client = Client::connect(&path);
    let reg = client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));
    assert_eq!(field(&reg, "ok").as_bool(), Some(true));
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
    assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));

    // drain acks over the same socket, exactly as it does over TCP.
    let drain = client.round_trip(r#"{"op":"drain"}"#);
    assert_eq!(field(&drain, "ok").as_bool(), Some(true));
    assert_eq!(field(&drain, "draining").as_bool(), Some(true));
    assert!(handle.draining());

    // Post-drain requests on a live connection answer retryable shutting_down.
    let refused = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a"}"#);
    let error = field(&refused, "error");
    assert_eq!(field(error, "kind").as_str(), Some("shutting_down"));
    assert_eq!(field(error, "retryable").as_bool(), Some(true));

    // New connections during the drain get an explicit answer, not a hang.
    let mut late = Client::connect(&path);
    let told = late.recv();
    assert_eq!(
        field(field(&told, "error"), "kind").as_str(),
        Some("shutting_down")
    );

    handle.shutdown();
    assert!(!path.exists(), "socket file removed after drain + shutdown");
}

#[test]
fn tenant_quota_sheds_over_unix_socket() {
    let config = ServerConfig {
        max_inflight_queries: 4,
        ..ServerConfig::default()
    };
    let (handle, path) = start("quota", config);
    let mut client = Client::connect(&path);
    client.round_trip(&format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#));

    // A batch costing more than the whole in-flight bound answers overloaded,
    // byte-compatible with the TCP behaviour...
    let shed = client
        .round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a","a","a","a"],"threads":1}"#);
    assert_eq!(field(&shed, "ok").as_bool(), Some(false));
    let error = field(&shed, "error");
    assert_eq!(field(error, "kind").as_str(), Some("overloaded"));
    assert_eq!(field(error, "retryable").as_bool(), Some(true));

    // ...while in-bound work keeps flowing on the same connection.
    let fine = client.round_trip(r#"{"op":"batch","dtd_id":0,"queries":["a","a[b]"]}"#);
    assert_eq!(field(&fine, "ok").as_bool(), Some(true));
    assert!(handle.stats().requests_overloaded >= 1);
    handle.shutdown();
}

#[test]
fn rate_limited_tenant_is_shed_while_others_serve_over_unix_socket() {
    // A tiny token bucket: burst 2, trickle refill.  The third same-tenant
    // request in quick succession is rate-limited; an unrelated tenant with its
    // own bucket is untouched.
    let config = ServerConfig {
        tenant_rate_qps: Some(0.5),
        tenant_burst: 2.0,
        ..ServerConfig::default()
    };
    let (handle, path) = start("rate", config);
    let mut client = Client::connect(&path);
    client.round_trip(&format!(
        r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"flood"}}"#
    ));
    client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","tenant":"flood"}"#);
    let limited = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a","tenant":"flood"}"#);
    assert_eq!(field(&limited, "ok").as_bool(), Some(false));
    let error = field(&limited, "error");
    assert_eq!(field(error, "kind").as_str(), Some("overloaded"));
    assert_eq!(field(error, "retryable").as_bool(), Some(true));
    assert!(
        field(error, "message").as_str().unwrap().contains("rate"),
        "{limited}"
    );

    // The victim tenant's own bucket is full: same instant, full service.
    let victim = client.round_trip(&format!(
        r#"{{"op":"register_dtd","dtd":"{DTD}","tenant":"victim"}}"#
    ));
    assert_eq!(field(&victim, "ok").as_bool(), Some(true));
    let check = client.round_trip(r#"{"op":"check","dtd_id":0,"query":"a[b]","tenant":"victim"}"#);
    assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
    assert!(handle.stats().requests_rate_limited >= 1);
    handle.shutdown();
}
