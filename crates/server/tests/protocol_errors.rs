//! Protocol error paths, asserted **identically** over both transports: the stdio
//! `serve()` loop and the TCP front-end must produce byte-identical responses for
//! malformed JSON, unknown verbs, oversized lines, bad ids and missing fields — the
//! transport is framing, never semantics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use xpsat_server::{Bind, Server, ServerConfig};
use xpsat_service::{Json, ProtocolServer};

const MAX_LINE: usize = 256;
const DTD: &str = "r -> a*; a -> b?; b -> #;";

/// The shared error-path script: every line is a request, every request draws
/// exactly one response.  The oversized line must exceed [`MAX_LINE`] bytes.
fn script() -> Vec<String> {
    let oversized = format!(
        r#"{{"op":"check","dtd_id":0,"query":"{}"}}"#,
        "a/".repeat(MAX_LINE)
    );
    vec![
        "not json at all".to_string(),
        r#"{"op":"teleport"}"#.to_string(),
        oversized,
        r#"{"op":"check","dtd_id":9,"query":"a"}"#.to_string(),
        r#"{"op":"check","dtd_id":0}"#.to_string(),
        r#"{"op":"batch","dtd_id":0,"queries":["a",42]}"#.to_string(),
        r#"{"op":"register_dtd","dtd":"r -> ("}"#.to_string(),
        // Recovery: the same stream still serves valid requests afterwards.
        format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#),
        r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#.to_string(),
        // Span-carrying parse errors: the error object must locate the fault.
        r#"{"op":"check","dtd_id":0,"query":"a[["}"#.to_string(),
        r#"{"op":"register_dtd","dtd":"r -> a*; a ->"}"#.to_string(),
        // A one-step budget starves the negation fixpoint: structured exhaustion.
        r#"{"op":"check","dtd_id":0,"query":"a[not(b)]","max_steps":1}"#.to_string(),
        // Zero and non-integer deadlines are malformed, not "already expired":
        // refused as invalid_request before any work is admitted.
        r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":0}"#.to_string(),
        r#"{"op":"batch","dtd_id":0,"queries":["a"],"deadline_ms":-5}"#.to_string(),
    ]
}

fn run_over_stdio(lines: &[String]) -> Vec<String> {
    let mut server = ProtocolServer::new(1);
    server.set_max_line_bytes(MAX_LINE);
    let input = lines.join("\n") + "\n";
    let mut output = Vec::new();
    server.serve(input.as_bytes(), &mut output).expect("serve");
    String::from_utf8(output)
        .expect("utf8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

fn run_over_tcp(lines: &[String]) -> Vec<String> {
    let config = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        max_line_bytes: MAX_LINE,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).expect("server starts");
    let addr = handle.local_addr().unwrap();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        writeln!(writer, "{line}").expect("send");
        writer.flush().expect("flush");
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).expect("recv") > 0,
            "server closed mid-script on: {line}"
        );
        responses.push(response.trim_end().to_string());
    }
    drop(writer);
    drop(reader);
    handle.shutdown();
    responses
}

#[test]
fn error_paths_are_identical_over_stdio_and_tcp() {
    let lines = script();
    let stdio = run_over_stdio(&lines);
    let tcp = run_over_tcp(&lines);
    assert_eq!(stdio.len(), lines.len(), "one response per request (stdio)");
    assert_eq!(tcp.len(), lines.len(), "one response per request (tcp)");
    for ((request, a), b) in lines.iter().zip(&stdio).zip(&tcp) {
        assert_eq!(a, b, "transports diverged on request: {request}");
    }

    // Spot-check the semantics the script is meant to pin down.
    assert!(stdio[0].contains("malformed request"), "{}", stdio[0]);
    assert!(stdio[1].contains("unknown op 'teleport'"), "{}", stdio[1]);
    assert!(stdio[2].contains(r#""kind":"oversized""#), "{}", stdio[2]);
    assert!(stdio[3].contains("unknown DTD id 9"), "{}", stdio[3]);
    assert!(
        stdio[4].contains("missing string field 'query'"),
        "{}",
        stdio[4]
    );
    assert!(
        stdio[5].contains("queries[1] is not a string"),
        "{}",
        stdio[5]
    );
    assert!(stdio[6].contains("DTD parse error"), "{}", stdio[6]);
    assert!(stdio[7].contains(r#""dtd_id":0"#), "{}", stdio[7]);
    assert!(
        stdio[8].contains(r#""result":"satisfiable""#),
        "{}",
        stdio[8]
    );
    // Parse errors carry spans locating the fault in the submitted text.
    assert!(stdio[9].contains(r#""kind":"query_parse""#), "{}", stdio[9]);
    assert!(stdio[9].contains(r#""span":{"offset":"#), "{}", stdio[9]);
    assert!(stdio[10].contains(r#""kind":"dtd_parse""#), "{}", stdio[10]);
    assert!(stdio[10].contains(r#""span":{"offset":"#), "{}", stdio[10]);
    // Budget starvation is a structured, non-retryable error, not a hang.
    assert!(
        stdio[11].contains(r#""kind":"resource_exhausted""#),
        "{}",
        stdio[11]
    );
    assert!(stdio[11].contains(r#""retryable":false"#), "{}", stdio[11]);
    // deadline_ms must be a positive integer; zero and negatives are structured
    // invalid_request errors, identical over both transports.
    for response in [&stdio[12], &stdio[13]] {
        assert!(
            response.contains(r#""kind":"invalid_request""#),
            "{response}"
        );
        assert!(response.contains("deadline_ms"), "{response}");
    }
    for response in &stdio[..7] {
        assert!(response.contains(r#""ok":false"#), "{response}");
    }
    for response in [&stdio[9], &stdio[10], &stdio[11], &stdio[12], &stdio[13]] {
        assert!(response.contains(r#""ok":false"#), "{response}");
    }
}

/// The hit-path script: requests whose classes are already decided, which the TCP
/// front-end answers on the connection thread, between first-seen ones that need the
/// decide pool.  Closed by a `stats` that pins every workspace counter.
fn hit_script() -> Vec<String> {
    [
        r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#,
        r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#,
        // A new spelling of a decided class, then the spelling again.
        r#"{"op":"check","dtd_id":0,"query":"a[b][b]"}"#,
        r#"{"op":"check","dtd_id":0,"query":"a[b][b]"}"#,
        r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#,
        r#"{"op":"check","dtd_id":0,"query":"b/..","witness":true}"#,
        r#"{"op":"check","dtd_id":0,"query":"b/..","witness":true}"#,
        // Decided and first-seen classes in one batch, then an all-decided one.
        r#"{"op":"batch","dtd_id":0,"queries":["a[b]","c","a/b","a[b][b]","c"],"threads":1}"#,
        r#"{"op":"batch","dtd_id":0,"queries":["c","a[b]","c"],"threads":1,"witness":true}"#,
        r#"{"op":"check","dtd_id":0,"query":"a[["}"#,
        r#"{"op":"check","dtd_id":1,"query":"a[b]"}"#,
        r#"{"op":"classify","dtd_id":0,"query":"a[b][b]"}"#,
        r#"{"op":"check","dtd_id":0,"query":"a/b"}"#,
        r#"{"op":"stats"}"#,
    ]
    .iter()
    .map(|line| line.to_string())
    .collect()
}

#[test]
fn hit_paths_are_identical_over_stdio_and_tcp() {
    let mut lines = vec![format!(r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#)];
    lines.extend(hit_script());
    let stdio = run_over_stdio(&lines);
    let tcp = run_over_tcp(&lines);
    assert_eq!(stdio.len(), lines.len(), "one response per request (stdio)");
    assert_eq!(tcp.len(), lines.len(), "one response per request (tcp)");
    let (stats, requests) = lines.split_last().unwrap();
    for ((request, a), b) in requests.iter().zip(&stdio).zip(&tcp) {
        assert_eq!(a, b, "transports diverged on request: {request}");
    }

    // The closing `stats`: every workspace counter agrees; the server adds its own
    // view (the `server_*` counters, the tenant and the scheduler lanes).
    let parse = |line: &String| Json::parse(line).expect("stats parses");
    let Json::Obj(mut served) = parse(&tcp[lines.len() - 1]) else {
        panic!("stats is an object")
    };
    let inline = served
        .iter()
        .find(|(key, _)| key == "server_requests_inline")
        .and_then(|(_, value)| value.as_u64());
    served.retain(|(key, _)| {
        !key.starts_with("server_")
            && !matches!(key.as_str(), "tenant" | "tenants" | "tenant_lanes")
    });
    assert_eq!(
        Json::Obj(served).to_string(),
        parse(&stdio[lines.len() - 1]).to_string(),
        "transports diverged on request: {stats}"
    );
    // The repeated checks, the repeated witness checks, the all-decided batch, the
    // last check and the `stats` itself were answered on the connection thread.
    assert_eq!(inline, Some(7));
}

#[test]
fn mid_request_disconnect_does_not_wedge_the_server() {
    let config = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = Server::start(config).expect("server starts");
    let addr = handle.local_addr().unwrap();

    // Send half a request (no newline) and slam the connection shut.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(br#"{"op":"check","dtd_id":0,"que"#)
            .expect("partial write");
        stream.flush().unwrap();
        // Dropping the stream closes it mid-request.
    }

    // Also disconnect immediately after a complete request, before reading the
    // response the server is about to write.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#).expect("send");
        stream.flush().unwrap();
    }

    // The worker pool survives both: a fresh connection gets full service.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"register_dtd","dtd":"{DTD}"}}"#).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0);
    assert!(response.contains(r#""ok":true"#), "{response}");
    drop((writer, reader));
    handle.shutdown();
    // Silence the unused-import lint on platforms where Read is otherwise unused.
    fn _uses_read<R: Read>(_: R) {}
}
