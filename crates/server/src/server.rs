//! The network front-end: accept loop, connection pool, tenant-fair decide
//! workers, watchdog, and the graceful drain lifecycle.
//!
//! Threading model (all `std`, no async runtime):
//!
//! * One **accept thread** blocks in `accept()` on the (blocking) listener and
//!   pushes accepted connections into a [`BoundedQueue`], so a new connection is
//!   taken the moment it arrives.  When the queue is full the connection is
//!   answered with an `overloaded` JSON response and closed immediately; once the
//!   server is draining, new connections are answered `shutting_down` instead —
//!   callers see backpressure and lifecycle as data, not as a hung connect.  At
//!   `Stopped` the handle wakes the thread with one connection to its own listener
//!   (see [`ServerHandle`]); it sleeps only to back off after a failed `accept`.
//! * **Connection threads** (`workers` of them) each pop a connection and own it
//!   until it disconnects: framing ([`LineReader`], size caps, the slow-loris
//!   mid-line stall guard), parsing, tenant resolution and admission through the
//!   [`FairScheduler`], which holds the request's cost in flight.  A `check` or
//!   `batch` whose every class is already decided for the tenant needs no compute:
//!   the connection thread answers it itself, under `catch_unwind`, with one probe
//!   of the decision store per class
//!   ([`xpsat_service::ProtocolServer::handle_decided`]).  Any other request becomes
//!   a [`Job`] queued in the scheduler, and the connection thread blocks on the
//!   job's [`ResponseSlot`].  Probing parses and renders the request's queries,
//!   which recurses once per query step, so connection threads get the decide
//!   workers' deep stack.
//! * **Decide workers** (`decide_workers` of them) pull jobs from the scheduler in
//!   deficit-round-robin order across tenants — a flooding tenant's backlog cannot
//!   starve anyone else — execute them under `catch_unwind`, and fulfill the slot.
//!   Every queued job is answered exactly once: by its worker, by the shedder, or
//!   by the drain-abort path.  Every request that needs compute runs here: a
//!   first-seen spelling or class, `register_dtd`, `classify` and the debug ops.
//!   `stats` only reads counters, so the connection thread answers it as it does
//!   a decided `check`.
//! * A **watchdog thread** samples each decide worker's [`WorkerHeart`]; a worker
//!   stuck on one job past the threshold is abandoned (it exits after the job, its
//!   late result discarded by the first-write-wins slot) and a replacement is
//!   spawned, restoring pool capacity.  Connection threads waiting on a slot give
//!   up after ~2× the threshold and answer `internal_error`.
//!
//! Lifecycle: `Running → Draining → Stopped` (see [`Lifecycle`]).  Drain — via
//! [`ServerHandle::drain`], [`ServerHandle::shutdown`] or the `drain` protocol op —
//! stops admission (new requests answer `shutting_down`), lets queued and
//! in-flight jobs finish up to the drain deadline, then aborts what remains (each
//! aborted job still gets a `shutting_down` answer), flushes the artifact store,
//! and joins every thread that can be joined.  The waits on that path block on
//! the lifecycle's condition variable rather than sleeping: [`ServerHandle::wait`]
//! wakes when drain begins, shutdown when the last decide worker exits (or at the
//! drain deadline), and the watchdog when the server stops.  Connection threads
//! still notice `Stopped` by their read and slot timeouts (`READ_POLL`,
//! `SLOT_POLL`), which bound how soon an idle or waiting thread exits, not how soon
//! a request is answered.

use crate::fair::{FairConfig, FairScheduler, Job, Refusal, ResponseSlot};
use crate::lifecycle::{Lifecycle, Phase, WorkerHeart};
use crate::pool::{BoundedQueue, PushError};
use crate::responses::{abandoned_response, overloaded_response, shutting_down_response};
use crate::stats::{ServerStats, ServerStatsSnapshot};
use crate::tenant::{Tenant, TenantMap, DEFAULT_TENANT};
use crate::{Bind, ServerConfig};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xpsat_service::{
    error_response, oversized_response, write_response_line, Json, LineRead, LineReader,
};

/// How long a connection thread blocks in one socket read before re-checking the
/// lifecycle phase.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long the accept thread backs off after a failed `accept` (say, `EMFILE`)
/// before it tries again; a successful `accept` never sleeps.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// How often shutdown re-checks the threads it joins with a grace.  Runs only
/// during shutdown; a connection thread still answering the `drain` that started
/// it usually finishes within one poll.
const JOIN_POLL: Duration = Duration::from_millis(1);
/// How long the wake-up connect may take, and how long shutdown then waits for
/// the accept thread.  A wake that failed to connect leaves the thread blocked in
/// `accept()`; it is detached then.
const ACCEPT_JOIN_GRACE: Duration = Duration::from_secs(1);
/// How long a connection thread waits on a response slot per poll (it interleaves
/// lifecycle and abandonment checks between polls).
const SLOT_POLL: Duration = Duration::from_millis(25);
/// How long after observing `Stopped` a connection thread keeps waiting for an
/// unfulfilled slot before answering `internal_error` (covers a worker that is
/// stuck at force-close time).
const STOPPED_SLOT_GRACE: Duration = Duration::from_secs(2);

/// One accepted connection (TCP or Unix), unified for the worker pool.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The listener half, unified over both bind modes.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Strict request/response over small JSON lines: Nagle + delayed
                // ACK would add ~40ms per turn, dwarfing the decide time.
                let _ = stream.set_nodelay(true);
                Conn::Tcp(stream)
            }
            #[cfg(unix)]
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }
}

/// One decide worker's heart + thread handle; the watchdog appends replacements.
#[derive(Debug)]
struct WorkerSlot {
    heart: Arc<WorkerHeart>,
    handle: JoinHandle<()>,
}

/// The running server's shared state.
#[derive(Debug)]
struct Shared {
    tenants: TenantMap,
    scheduler: FairScheduler,
    stats: ServerStats,
    lifecycle: Lifecycle,
    conn_queue: BoundedQueue<Conn>,
    decide_workers: Mutex<Vec<WorkerSlot>>,
    max_line_bytes: usize,
    write_timeout: Option<Duration>,
    stalled_read_timeout: Option<Duration>,
    watchdog_stuck: Option<Duration>,
}

impl Shared {
    /// Initiate drain (idempotent): stop admitting requests and connections.
    /// Queued and in-flight work keeps running; the finalizer enforces the deadline.
    fn drain(&self) {
        if self.lifecycle.begin_drain() {
            self.scheduler.begin_drain();
            self.conn_queue.close();
        }
    }
}

/// The server: binds, spawns the pools, hands back a [`ServerHandle`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Bind and start serving in background threads.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = match &config.bind {
            Bind::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run would make bind fail.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        let local_addr = match &listener {
            Listener::Tcp(l) => Some(l.local_addr()?),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        };
        #[cfg(unix)]
        let socket_path = match &config.bind {
            Bind::Unix(path) => Some(path.clone()),
            _ => None,
        };

        let conn_workers = if config.workers > 0 {
            config.workers
        } else {
            crate::default_workers()
        };
        let decide_workers = if config.decide_workers > 0 {
            config.decide_workers
        } else {
            crate::default_decide_workers()
        };
        let fair = FairConfig {
            max_inflight: config.max_inflight_queries,
            max_queued_jobs: config.request_queue_depth.max(1),
            quantum: 4,
            weights: config.tenant_weights.iter().cloned().collect(),
            rate_qps: config.tenant_rate_qps,
            burst: config.tenant_burst.max(1.0),
            tenant_quota: config.tenant_max_inflight,
            shed_target: config.shed_target_ms.map(Duration::from_millis),
            shed_interval: Duration::from_millis(config.shed_interval_ms.max(1)),
        };
        let drain_deadline = Duration::from_millis(config.drain_deadline_ms.max(1));
        let max_line_bytes = config.max_line_bytes.max(1);
        let shared = Arc::new(Shared {
            scheduler: FairScheduler::new(fair),
            stats: ServerStats::default(),
            lifecycle: Lifecycle::default(),
            conn_queue: BoundedQueue::new(config.queue_depth),
            decide_workers: Mutex::new(Vec::new()),
            max_line_bytes,
            write_timeout: config.write_timeout_ms.map(Duration::from_millis),
            stalled_read_timeout: config.stalled_read_timeout_ms.map(Duration::from_millis),
            watchdog_stuck: config.watchdog_stuck_ms.map(Duration::from_millis),
            tenants: TenantMap::new(config)?,
        });

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        // A stack overflow aborts the process, and a connection thread parses and
        // renders every query it probes (see the module doc).
        let conn_threads: Vec<JoinHandle<()>> = (0..conn_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("xpsat-conn".into())
                    .stack_size(xpsat_core::DECIDE_STACK_BYTES)
                    .spawn(move || {
                        while let Some(conn) = shared.conn_queue.pop() {
                            handle_connection(conn, &shared);
                        }
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        for _ in 0..decide_workers {
            spawn_decide_worker(&shared);
        }
        let watchdog_thread = shared.watchdog_stuck.map(|stuck| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared, stuck))
        });

        Ok(ServerHandle {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conn_threads,
            watchdog_thread,
            drain_deadline,
            finalized: false,
            #[cfg(unix)]
            socket_path,
        })
    }
}

/// Spawn one decide worker and register its heart with the watchdog list.
///
/// Workers get a deep stack: the positive engine recurses to its Lemma 4.5 depth
/// bound on schema-sized DTDs, and a stack overflow aborts the process — the one
/// failure the catch-unwind panic isolation in [`execute_job`] cannot contain.
fn spawn_decide_worker(shared: &Arc<Shared>) {
    let heart = Arc::new(WorkerHeart::default());
    let handle = {
        let shared = Arc::clone(shared);
        let heart = Arc::clone(&heart);
        std::thread::Builder::new()
            .name("xpsat-decide".into())
            .stack_size(xpsat_core::DECIDE_STACK_BYTES)
            .spawn(move || decide_loop(&shared, &heart))
            .expect("spawn decide worker")
    };
    shared
        .decide_workers
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push(WorkerSlot { heart, handle });
}

/// Marks a decide worker's heart exited and wakes shutdown's wait for the
/// workers when the worker's loop ends, by return or by unwind.
struct WorkerExit<'a> {
    shared: &'a Shared,
    heart: &'a WorkerHeart,
}

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        self.heart.mark_exited();
        self.shared.lifecycle.notify();
    }
}

/// A decide worker: pull fair-scheduled jobs until the scheduler signals drain.
fn decide_loop(shared: &Arc<Shared>, heart: &Arc<WorkerHeart>) {
    let _exit = WorkerExit { shared, heart };
    while let Some(job) = shared.scheduler.next_job() {
        heart.begin();
        let response = execute_job(&job, shared);
        heart.finish();
        shared.scheduler.complete(job.tenant.name(), job.cost);
        job.slot.fulfill(response);
        // Declared stuck by the watchdog while on that job: a replacement already
        // runs, so this (now surplus) worker exits instead of doubling capacity.
        if heart.is_abandoned() {
            return;
        }
    }
}

/// Run one job against its tenant's protocol server, on a decide worker.
fn execute_job(job: &Job, shared: &Shared) -> Json {
    // `handle_request` takes `&self` and holds no lock across a request, so jobs of
    // one tenant, registrations included, execute concurrently across workers and
    // with the requests connection threads answer inline.
    let response = isolate_panics(shared, || job.tenant.proto().handle_request(&job.request))
        .unwrap_or_else(|internal_error| internal_error);
    ServerStats::bump(&shared.stats.requests_served);
    response
}

/// Run request handling under panic isolation: a request that panics (a solver bug,
/// a hostile input that found a hole in the resource governor) yields its
/// `internal_error` answer as `Err`, and leaves its thread — and every other
/// tenant — serving.  The tenant's internal locks recover from poisoning because
/// tenant state is monotone (registrations and caches), so a panic mid-request
/// cannot corrupt it.
fn isolate_panics<T>(shared: &Shared, handle: impl FnOnce() -> T) -> Result<T, Json> {
    std::panic::catch_unwind(AssertUnwindSafe(handle)).map_err(|panic| {
        ServerStats::bump(&shared.stats.requests_panicked);
        let detail = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        error_response(
            "internal_error",
            &format!("request handling panicked: {detail}"),
            None,
            false,
        )
    })
}

/// The watchdog: sample every decide worker's heart once a tick; abandon + replace
/// the stuck.  Between samples it waits on the lifecycle, so it exits as soon as
/// the server stops.
fn watchdog_loop(shared: &Arc<Shared>, stuck: Duration) {
    let tick = (stuck / 8).clamp(Duration::from_millis(10), Duration::from_millis(250));
    let stopped = || shared.lifecycle.phase() == Phase::Stopped;
    while !shared
        .lifecycle
        .wait_until(Some(Instant::now() + tick), stopped)
    {
        let mut replacements = 0;
        {
            let slots = shared
                .decide_workers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for slot in slots.iter() {
                if slot.heart.is_abandoned() {
                    continue;
                }
                if slot.heart.busy_for().is_some_and(|busy| busy >= stuck) {
                    slot.heart.abandon();
                    shared.lifecycle.record_watchdog_trip();
                    replacements += 1;
                }
            }
        }
        // Spawn outside the lock: spawn_decide_worker reacquires it to register.
        // Don't replace capacity the drain is about to retire anyway.
        if shared.lifecycle.phase() == Phase::Running {
            for _ in 0..replacements {
                spawn_decide_worker(shared);
            }
        }
    }
}

/// Handle to a running server: inspect it, drain it, shut it down.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Vec<JoinHandle<()>>,
    watchdog_thread: Option<JoinHandle<()>>,
    drain_deadline: Duration,
    finalized: bool,
    #[cfg(unix)]
    socket_path: Option<std::path::PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (`None` for Unix-socket servers) — with port `0` in the
    /// config, this is where clients actually connect.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Server-level counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Tenants created so far.
    pub fn tenant_count(&self) -> usize {
        self.shared.tenants.tenant_count()
    }

    /// Whether drain has begun (via this handle or the `drain` protocol op).
    pub fn draining(&self) -> bool {
        self.shared.lifecycle.phase() != Phase::Running
    }

    /// Stuck-worker replacements performed by the watchdog so far.
    pub fn watchdog_trips(&self) -> u64 {
        self.shared.lifecycle.watchdog_trips()
    }

    /// Begin drain without blocking: stop admitting, let in-flight work finish.
    /// Follow with [`ServerHandle::shutdown`] (or [`ServerHandle::wait`]) to
    /// enforce the deadline and join threads.
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Graceful shutdown: drain, wait for in-flight and queued work up to the
    /// drain deadline, abort (with `shutting_down` answers) what remains, flush
    /// the artifact store, join every thread.  Zero accepted requests are lost:
    /// each is answered by a worker, the shedder, or the abort path.
    pub fn shutdown(mut self) {
        self.finalize();
    }

    /// Block until something requests drain — the `drain` protocol op, typically —
    /// then run the same finalization as [`ServerHandle::shutdown`].  This is what
    /// `xpathsat serve` sits in, so a remote `drain` brings the process down
    /// cleanly.
    pub fn wait(mut self) {
        let lifecycle = &self.shared.lifecycle;
        lifecycle.wait_until(None, || lifecycle.phase() != Phase::Running);
        self.finalize();
    }

    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.shared.drain();

        // Phase 1: let decide workers finish queued + in-flight jobs, bounded by
        // the drain deadline.  Each exiting worker wakes this wait.
        let deadline = Instant::now() + self.drain_deadline;
        let workers = &self.shared.decide_workers;
        self.shared.lifecycle.wait_until(Some(deadline), || {
            workers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .iter()
                .all(|slot| slot.heart.has_exited())
        });
        // Phase 2: deadline (or no-op if already empty) — answer every still-queued
        // job `shutting_down` and force `next_job` to `None`.
        self.shared.scheduler.abort_queued();
        self.stop();

        // Phase 3: join what can be joined.  Workers wedged on a stuck job (the
        // watchdog already answered for their capacity) are detached, not waited on.
        let worker_handles: Vec<JoinHandle<()>> = self
            .shared
            .decide_workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .drain(..)
            .map(|slot| slot.handle)
            .collect();
        join_with_grace(worker_handles, Duration::from_secs(1));
        join_with_grace(
            self.accept_thread.take().into_iter().collect(),
            ACCEPT_JOIN_GRACE,
        );
        join_with_grace(
            std::mem::take(&mut self.conn_threads),
            STOPPED_SLOT_GRACE + Duration::from_secs(1),
        );
        if let Some(watchdog) = self.watchdog_thread.take() {
            let _ = watchdog.join();
        }

        // Phase 4: durability + cleanup.
        if let Some(store) = self.shared.tenants.store() {
            let _ = store.flush();
        }
        #[cfg(unix)]
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Move to `Stopped`, then wake the accept thread out of its blocking
    /// `accept()` with one connection to the listener, which it drops unanswered.
    /// A wildcard TCP bind is reached over loopback; a Unix socket through its
    /// path, so this runs before the socket file is removed.  A failed wake is
    /// ignored: shutdown joins the accept thread with a grace, not forever.
    fn stop(&self) {
        self.shared.lifecycle.stop();
        if let Some(addr) = self.local_addr {
            let ip = match addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
                ip => ip,
            };
            let _ =
                TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), ACCEPT_JOIN_GRACE);
        }
        #[cfg(unix)]
        if let Some(path) = &self.socket_path {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Join every handle that finishes within `grace`, checking every `JOIN_POLL`;
/// detach the rest (they exit on their own once their blocking call returns —
/// there is no force-join in std).
fn join_with_grace(mut handles: Vec<JoinHandle<()>>, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        let mut pending = Vec::new();
        for handle in handles.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                pending.push(handle);
            }
        }
        if pending.is_empty() || Instant::now() >= deadline {
            return;
        }
        handles = pending;
        std::thread::sleep(JOIN_POLL);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.finalized {
            return;
        }
        // A dropped handle still stops every thread promptly (without joining):
        // abort queued work so no connection thread is left waiting on a slot, then
        // flip to Stopped so read polls exit, and wake the accept thread so it
        // exits and closes the listener.
        self.shared.drain();
        self.shared.scheduler.abort_queued();
        self.stop();
        #[cfg(unix)]
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Take connections until the server stops.  The phase is read after `accept()`
/// returns, so the wake-up connection [`ServerHandle`] makes at `Stopped` ends the
/// loop (and closes the listener) instead of being served.
fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        match shared.lifecycle.phase() {
            Phase::Stopped => return,
            phase => match accepted {
                Ok(conn) => {
                    if phase != Phase::Running {
                        // Draining: tell the client to go elsewhere, then close.
                        refuse(conn, &shutting_down_response("drain in progress"));
                        continue;
                    }
                    match shared.conn_queue.try_push(conn) {
                        Ok(()) => ServerStats::bump(&shared.stats.connections_accepted),
                        Err(PushError::Full(conn)) => {
                            ServerStats::bump(&shared.stats.connections_rejected);
                            refuse(conn, &overloaded_response("connection queue full"));
                        }
                        Err(PushError::Closed(conn)) => {
                            refuse(conn, &shutting_down_response("drain in progress"));
                        }
                    }
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            },
        }
    }
}

/// Answer a connection the accept loop turns away with one line, then close it.
/// A failed write is ignored: the connection is dropped either way.
fn refuse(mut conn: Conn, refusal: &Json) {
    let _ = write_response_line(&mut conn, refusal, &mut String::new());
}

/// Serve one connection until EOF, error or server stop.
///
/// Every response goes out through [`write_response_line`] with one buffer
/// reused for the whole connection, so each leaves in a single write.
fn handle_connection(conn: Conn, shared: &Arc<Shared>) {
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let _ = conn.set_write_timeout(shared.write_timeout);
    let Ok(mut writer) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(conn);
    let mut line_reader = LineReader::new(shared.max_line_bytes);
    let mut encoded = String::new();
    // Slow-loris guard: set when the reader is mid-line (bytes received, no newline
    // yet); a client that stalls there past the configured timeout is dropped.  Idle
    // connections *between* requests never trip it.
    let mut line_started: Option<Instant> = None;
    loop {
        match line_reader.read_from(&mut reader) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.lifecycle.phase() == Phase::Stopped {
                    return;
                }
                if line_reader.mid_line() {
                    let started = *line_started.get_or_insert_with(Instant::now);
                    if let Some(limit) = shared.stalled_read_timeout {
                        if started.elapsed() >= limit {
                            ServerStats::bump(&shared.stats.connections_stalled);
                            return;
                        }
                    }
                } else {
                    line_started = None;
                }
            }
            Err(_) | Ok(LineRead::Eof) => return,
            Ok(LineRead::Oversized) => {
                line_started = None;
                ServerStats::bump(&shared.stats.requests_oversized);
                let response = oversized_response(shared.max_line_bytes);
                if write_response_line(&mut writer, &response, &mut encoded).is_err() {
                    return;
                }
            }
            Ok(LineRead::Line) => {
                line_started = None;
                // Borrowed when valid UTF-8; only an invalid line is copied lossily.
                let line = String::from_utf8_lossy(line_reader.line());
                if line.trim().is_empty() {
                    continue;
                }
                let response = handle_request_line(&line, shared);
                if write_response_line(&mut writer, &response, &mut encoded).is_err() {
                    return;
                }
                if shared.lifecycle.phase() == Phase::Stopped {
                    return;
                }
            }
        }
    }
}

/// Process one request line: parse, intercept lifecycle ops, resolve tenant, admit
/// through the fair scheduler, then answer inline or queue for the decide pool and
/// wait for the answer.
fn handle_request_line(line: &str, shared: &Arc<Shared>) -> Json {
    let request = match Json::parse(line.trim_end_matches(['\n', '\r'])) {
        Ok(request) => request,
        Err(e) => {
            ServerStats::bump(&shared.stats.requests_malformed);
            return error_response(
                "malformed_request",
                &format!("malformed request: {e}"),
                None,
                false,
            );
        }
    };
    let op = request.get("op").and_then(Json::as_str);

    // Lifecycle ops are served by the front-end itself (no tenant, no queueing):
    // they must answer even when the decide pool is saturated or draining.
    match op {
        Some("health") => return health_response(shared),
        Some("drain") => {
            shared.drain();
            return Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("drain".into())),
                ("phase", Json::Str(phase_name(shared).into())),
                ("draining", Json::Bool(true)),
            ]);
        }
        _ => {}
    }

    let tenant_name = request
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or(DEFAULT_TENANT)
        .to_string();
    let tenant = match shared.tenants.tenant(&tenant_name) {
        Ok(tenant) => tenant,
        Err(reason) => {
            return error_response(
                "invalid_tenant",
                &format!("invalid tenant: {reason}"),
                None,
                false,
            )
        }
    };

    // Admission cost: a batch of n queries costs n, anything else costs 1.
    let cost = request
        .get("queries")
        .and_then(Json::as_array)
        .map(|qs| qs.len().max(1) as u64)
        .unwrap_or(1);
    let is_stats = op == Some("stats");
    let mut response = match shared.scheduler.admit(tenant.name(), cost) {
        Err(refusal) => refusal_response(refusal, shared),
        Ok(()) => match answer_inline(&request, &tenant, cost, shared) {
            Some(response) => response,
            None => {
                let slot = Arc::new(ResponseSlot::default());
                let job = Job {
                    request,
                    tenant,
                    cost,
                    enqueued: Instant::now(),
                    slot: Arc::clone(&slot),
                };
                match shared.scheduler.enqueue(job) {
                    Ok(()) => wait_for_slot(&slot, shared),
                    Err((_job, refusal)) => refusal_response(refusal, shared),
                }
            }
        },
    };

    // `stats` responses additionally report the server-wide view.
    if is_stats {
        append_server_stats(&mut response, &tenant_name, shared);
    }
    response
}

/// Answer an admitted request on the connection thread when it needs no compute:
/// a `check` or `batch` whose every class is already decided for the tenant, or a
/// `stats` ([`xpsat_service::ProtocolServer::handle_decided`]).  Its held cost is returned
/// once it is answered.  `None` means the request needs the decide pool; nothing
/// was counted for it yet.
fn answer_inline(request: &Json, tenant: &Tenant, cost: u64, shared: &Shared) -> Option<Json> {
    let response =
        isolate_panics(shared, || tenant.proto().handle_decided(request)).unwrap_or_else(Some)?;
    shared.scheduler.complete_inline(tenant.name(), cost);
    ServerStats::bump(&shared.stats.requests_served);
    ServerStats::bump(&shared.stats.requests_inline);
    Some(response)
}

/// Map an admission refusal to its response (and counters).
fn refusal_response(refusal: Refusal, shared: &Shared) -> Json {
    match refusal {
        Refusal::Draining => shutting_down_response("drain in progress"),
        Refusal::RateLimited => {
            ServerStats::bump(&shared.stats.requests_overloaded);
            ServerStats::bump(&shared.stats.requests_rate_limited);
            overloaded_response("tenant rate limit exceeded, slow down")
        }
        Refusal::OverQuota => {
            ServerStats::bump(&shared.stats.requests_overloaded);
            overloaded_response("tenant in-flight quota reached")
        }
        Refusal::Saturated => {
            ServerStats::bump(&shared.stats.requests_overloaded);
            overloaded_response("in-flight query limit reached")
        }
        Refusal::QueueFull => {
            ServerStats::bump(&shared.stats.requests_overloaded);
            overloaded_response("request queue full")
        }
    }
}

/// Block until the job's answer arrives, with two backstops: the watchdog-stuck
/// abandonment (~2× the stuck threshold) and the post-stop grace.
fn wait_for_slot(slot: &ResponseSlot, shared: &Shared) -> Json {
    let abandon_after = shared.watchdog_stuck.map(|stuck| stuck * 2);
    let started = Instant::now();
    let mut stopped_seen: Option<Instant> = None;
    loop {
        if let Some(response) = slot.wait_for(SLOT_POLL) {
            return response;
        }
        if let Some(limit) = abandon_after {
            if started.elapsed() >= limit {
                return abandoned_response();
            }
        }
        if shared.lifecycle.phase() == Phase::Stopped {
            let seen = *stopped_seen.get_or_insert_with(Instant::now);
            if seen.elapsed() >= STOPPED_SLOT_GRACE {
                return abandoned_response();
            }
        }
    }
}

fn phase_name(shared: &Shared) -> &'static str {
    match shared.lifecycle.phase() {
        Phase::Running => "running",
        Phase::Draining => "draining",
        Phase::Stopped => "stopped",
    }
}

/// The `health` op: liveness + a cheap load summary, served without queueing.
fn health_response(shared: &Shared) -> Json {
    let totals = shared.scheduler.totals();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("health".into())),
        ("phase", Json::Str(phase_name(shared).into())),
        (
            "draining",
            Json::Bool(shared.lifecycle.phase() != Phase::Running),
        ),
        (
            "uptime_ms",
            Json::Num(shared.lifecycle.uptime().as_millis() as f64),
        ),
        ("queued_jobs", Json::Num(totals.queued_jobs as f64)),
        ("inflight_cost", Json::Num(totals.inflight_cost as f64)),
        (
            "watchdog_trips",
            Json::Num(shared.lifecycle.watchdog_trips() as f64),
        ),
    ])
}

/// Enrich a tenant's `stats` response with the server-wide view: counters,
/// lifecycle, scheduler totals and the per-tenant lanes.
fn append_server_stats(response: &mut Json, tenant_name: &str, shared: &Shared) {
    let Json::Obj(fields) = response else { return };
    let server = shared.stats.snapshot();
    let totals = shared.scheduler.totals();
    let mut push = |key: &str, value: Json| fields.push((key.to_string(), value));
    push("tenant", Json::Str(tenant_name.to_string()));
    push("tenants", Json::Num(shared.tenants.tenant_count() as f64));
    push("server_phase", Json::Str(phase_name(shared).to_string()));
    push(
        "server_uptime_ms",
        Json::Num(shared.lifecycle.uptime().as_millis() as f64),
    );
    push(
        "server_connections_accepted",
        Json::Num(server.connections_accepted as f64),
    );
    push(
        "server_connections_rejected",
        Json::Num(server.connections_rejected as f64),
    );
    push(
        "server_requests_served",
        Json::Num(server.requests_served as f64),
    );
    push(
        "server_requests_inline",
        Json::Num(server.requests_inline as f64),
    );
    push(
        "server_requests_overloaded",
        Json::Num(server.requests_overloaded as f64),
    );
    push(
        "server_requests_rate_limited",
        Json::Num(server.requests_rate_limited as f64),
    );
    push(
        "server_requests_malformed",
        Json::Num(server.requests_malformed as f64),
    );
    push(
        "server_requests_oversized",
        Json::Num(server.requests_oversized as f64),
    );
    push(
        "server_requests_panicked",
        Json::Num(server.requests_panicked as f64),
    );
    push(
        "server_connections_stalled",
        Json::Num(server.connections_stalled as f64),
    );
    push("server_requests_shed", Json::Num(totals.shed as f64));
    push(
        "server_requests_aborted_at_drain",
        Json::Num(totals.aborted_at_drain as f64),
    );
    push(
        "server_requests_drained",
        Json::Num(totals.drained_after_drain as f64),
    );
    push("server_queued_jobs", Json::Num(totals.queued_jobs as f64));
    push(
        "server_inflight_cost",
        Json::Num(totals.inflight_cost as f64),
    );
    push(
        "server_watchdog_trips",
        Json::Num(shared.lifecycle.watchdog_trips() as f64),
    );
    let lanes: Vec<Json> = shared
        .scheduler
        .lane_snapshots()
        .into_iter()
        .map(|lane| {
            Json::obj(vec![
                ("tenant", Json::Str(lane.tenant)),
                ("weight", Json::Num(lane.weight as f64)),
                ("queued_jobs", Json::Num(lane.queued_jobs as f64)),
                ("queued_cost", Json::Num(lane.queued_cost as f64)),
                ("inflight_cost", Json::Num(lane.inflight_cost as f64)),
                (
                    "tokens_remaining",
                    lane.tokens_remaining
                        .map(|t| Json::Num(t.floor()))
                        .unwrap_or(Json::Null),
                ),
                ("served", Json::Num(lane.served as f64)),
                ("shed", Json::Num(lane.shed as f64)),
                ("rate_limited", Json::Num(lane.rate_limited as f64)),
                ("over_quota", Json::Num(lane.over_quota as f64)),
            ])
        })
        .collect();
    push("tenant_lanes", Json::Arr(lanes));
}
