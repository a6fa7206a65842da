//! The server under test: a release `xpathsat serve` child process with a fresh
//! `--cache-dir`, reached over TCP, plus its `/proc` accounting.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use xpsat_service::Json;

/// Linux `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawn `bin serve` on an ephemeral port and wait for its ready line.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let read = stdout.read_line(&mut ready);
        let addr = read
            .ok()
            .and_then(|_| Json::parse(ready.trim()).ok())
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce an address: {ready:?}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User+system CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are the
        // 14th and 15th fields of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_SEC)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Ask the server to drain, then wait for it to exit (killing it after a grace
    /// period).
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.call(r#"{"op":"drain"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A run that failed half-way must not leave the server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking request/response connection for set-up, warm-up and `stats`.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn call_json(&mut self, line: &str) -> Result<Json, String> {
        let response = self.call(line)?;
        Json::parse(&response).map_err(|e| format!("unparsable response {response:?}: {e}"))
    }
}

pub fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}
