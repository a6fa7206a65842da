//! The load client: one thread multiplexing two persistent connections with
//! `ppoll(2)`, so the whole client stays within 2 connections and 1 thread.
//!
//! The server answers one request at a time per connection, in order, so each
//! connection keeps a FIFO of the requests it has outstanding.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use xpsat_service::Json;

/// Connections the client opens.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps outstanding in the closed loop: the server
/// reads the next line of a connection as soon as it has answered the previous
/// one, so a pipelined connection measures the server, not the round trip.
const PIPELINE: usize = 4;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Wait until one of `fds` is readable or `timeout` passes.
fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    let spec = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]` pollfd
    // records whose length is passed alongside; `spec` outlives the call and a null
    // signal mask means "leave the mask alone".  ppoll writes only `revents`.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &spec, std::ptr::null()) };
    if rc < 0 {
        // EINTR and friends: the caller's loop simply polls again.
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the request was due (open loop) or issued (closed loop), since the
    /// phase started.
    pub scheduled: Duration,
    pub sent: Duration,
    pub done: Option<Duration>,
    pub response: Option<Response>,
}

impl Outcome {
    /// Latency from the scheduled send time.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.scheduled))
    }

    pub fn round_trip(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.sent))
    }
}

/// The parts of a response the benchmark checks and the traced run replays.
#[derive(Debug, Clone)]
pub struct Response {
    pub ok: bool,
    pub error_kind: Option<String>,
    pub items: Vec<Item>,
}

#[derive(Debug, Clone)]
pub struct Item {
    pub result: String,
    pub engine: String,
    pub cached: bool,
}

impl Response {
    pub fn parse(line: &str) -> Response {
        let Ok(json) = Json::parse(line) else {
            return Response {
                ok: false,
                error_kind: Some("unparsable_response".to_string()),
                items: Vec::new(),
            };
        };
        let ok = json.get("ok").and_then(Json::as_bool) == Some(true);
        let item = |j: &Json| Item {
            result: j
                .get("result")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            engine: j
                .get("engine")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            cached: j.get("cached").and_then(Json::as_bool) == Some(true),
        };
        let items = match json.get("results").and_then(Json::as_array) {
            Some(results) => results.iter().map(item).collect(),
            None if ok => vec![item(&json)],
            None => Vec::new(),
        };
        Response {
            ok,
            error_kind: json
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string),
            items,
        }
    }
}

struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
    outstanding: VecDeque<usize>,
    closed: bool,
}

pub struct Client {
    conns: Vec<Conn>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                Ok(Conn {
                    stream,
                    buffer: Vec::new(),
                    outstanding: VecDeque::new(),
                    closed: false,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Client { conns })
    }

    fn send(&mut self, conn: usize, index: usize, line: &str) -> bool {
        let c = &mut self.conns[conn];
        if c.closed {
            return false;
        }
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if c.stream.write_all(&bytes).is_err() {
            c.closed = true;
            return false;
        }
        c.outstanding.push_back(index);
        true
    }

    /// Wait up to `timeout` for responses; returns `(request index, line, arrival)`
    /// of every response completed.
    fn receive(&mut self, start: Instant, timeout: Duration) -> Vec<(usize, String, Duration)> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.closed { 0 } else { POLLIN },
                revents: 0,
            })
            .collect();
        wait_readable(&mut fds, timeout);
        let mut done = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        for (c, fd) in self.conns.iter_mut().zip(&fds) {
            if fd.revents == 0 || c.closed {
                continue;
            }
            match c.stream.read(&mut chunk) {
                Ok(0) | Err(_) => {
                    c.closed = true;
                    continue;
                }
                Ok(n) => c.buffer.extend_from_slice(&chunk[..n]),
            }
            let arrived = start.elapsed();
            while let Some(at) = c.buffer.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = c.buffer.drain(..=at).collect();
                let Some(index) = c.outstanding.pop_front() else {
                    continue;
                };
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                done.push((index, text, arrived));
            }
        }
        done
    }

    fn idle(&self) -> bool {
        self.conns
            .iter()
            .all(|c| c.outstanding.is_empty() || c.closed)
    }

    /// Open loop: send `lines[i]` at `schedule[i]` regardless of earlier
    /// responses; give stragglers up to
    /// `grace` after the last send.
    pub fn open_loop(
        &mut self,
        lines: &[String],
        schedule: &[Duration],
        grace: Duration,
    ) -> Vec<Outcome> {
        let mut outcomes: Vec<Outcome> = schedule
            .iter()
            .map(|&at| Outcome {
                scheduled: at,
                ..Outcome::default()
            })
            .collect();
        let start = Instant::now();
        let mut next = 0;
        loop {
            let now = start.elapsed();
            while next < lines.len() && schedule[next] <= now {
                outcomes[next].sent = start.elapsed();
                // Like a client-side balancer, send on the connection with the
                // fewest requests outstanding (round-robin among equals).
                let conn = (0..self.conns.len())
                    .map(|k| (next + k) % self.conns.len())
                    .min_by_key(|&c| self.conns[c].outstanding.len())
                    .expect("at least one connection");
                self.send(conn, next, &lines[next]);
                next += 1;
            }
            let timeout = if next < lines.len() {
                schedule[next].saturating_sub(start.elapsed())
            } else if self.idle()
                || start.elapsed() > schedule.last().copied().unwrap_or_default() + grace
            {
                break;
            } else {
                Duration::from_millis(50)
            };
            for (index, line, arrived) in self.receive(start, timeout) {
                outcomes[index].done = Some(arrived);
                outcomes[index].response = Some(Response::parse(&line));
            }
        }
        outcomes
    }

    /// Closed loop: each connection keeps [`PIPELINE`] requests outstanding,
    /// taking the next line from `next_line` as soon as a response arrives, until
    /// `duration` has passed.  `sample` is read at the start and at every multiple
    /// of `window` up to `duration`.  Returns the outcomes in issue order, the
    /// time from start to the last response, and the readings.
    pub fn closed_loop(
        &mut self,
        mut next_line: impl FnMut() -> String,
        duration: Duration,
        grace: Duration,
        window: Duration,
        mut sample: impl FnMut() -> f64,
    ) -> (Vec<Outcome>, Duration, Vec<f64>) {
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut samples = vec![sample()];
        let start = Instant::now();
        let issue =
            |client: &mut Client, conn: usize, outcomes: &mut Vec<Outcome>, line: String| {
                let now = start.elapsed();
                outcomes.push(Outcome {
                    scheduled: now,
                    sent: now,
                    ..Outcome::default()
                });
                client.send(conn, outcomes.len() - 1, &line);
            };
        for conn in 0..self.conns.len() {
            for _ in 0..PIPELINE {
                issue(self, conn, &mut outcomes, next_line());
            }
        }
        let mut last = Duration::ZERO;
        loop {
            let now = start.elapsed();
            let boundary = window * samples.len() as u32;
            if now >= boundary && boundary <= duration {
                samples.push(sample());
            }
            if (now >= duration && self.idle()) || now >= duration + grace {
                break;
            }
            let timeout = (window * samples.len() as u32)
                .saturating_sub(start.elapsed())
                .min(Duration::from_millis(50));
            for (index, line, arrived) in self.receive(start, timeout) {
                outcomes[index].done = Some(arrived);
                outcomes[index].response = Some(Response::parse(&line));
                last = last.max(arrived);
                if start.elapsed() < duration {
                    let conn = self
                        .conns
                        .iter()
                        .position(|c| c.outstanding.len() < PIPELINE && !c.closed);
                    if let Some(conn) = conn {
                        issue(self, conn, &mut outcomes, next_line());
                    }
                }
            }
            if self.conns.iter().all(|c| c.closed) {
                break;
            }
        }
        (outcomes, last, samples)
    }
}
