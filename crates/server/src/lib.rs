//! `xpsat-server` — a persistent, multi-tenant network front-end for the
//! [`xpsat_service`] satisfiability stack.
//!
//! The service crate turned the paper's per-DTD-heavy cost model into an in-process
//! workspace; this crate turns that workspace into a long-running daemon so the
//! amortisation survives *across processes and machines*:
//!
//! * [`Server`] — a `std::net` TCP (or Unix-socket) listener speaking the same
//!   JSON-lines protocol as `xpathsat` stdio mode, with hand-rolled thread pools
//!   (no async runtime, no extra dependencies).  Connections beyond the connection
//!   pool wait in a bounded queue ([`pool::BoundedQueue`]); connections beyond
//!   *that* are refused with an explicit `overloaded` response — backpressure is a
//!   protocol feature, not a TCP accident.
//! * Tenants — each request may carry a `"tenant"` field; every tenant gets its own
//!   [`xpsat_service::Workspace`] (own DTD ids, interner, decision cache), so two
//!   clients sharing a server cannot observe each other's registrations.  What
//!   depends only on content is shared: each DTD text is built once for all tenants,
//!   and each structural class decided and compiled once (the
//!   [`xpsat_service::CanonicalCache`]).
//! * Fairness — requests are dispatched by a tenant-fair scheduler
//!   ([`fair::FairScheduler`]): deficit round-robin over per-tenant sub-queues
//!   (weighted via `tenant_weights`), per-tenant token-bucket rate limits and
//!   in-flight quotas, CoDel-style shedding when queue delay stays above target,
//!   and queue-full eviction from the *largest* backlog.  A flooding tenant is the
//!   one that sees `overloaded`; everyone else keeps their latency.
//! * Lifecycle — `health` and `drain` protocol ops, a drain-aware
//!   [`ServerHandle::shutdown`] (stop admitting, finish or deadline-abort in-flight
//!   work with `shutting_down` answers, flush the artifact store, join threads) and
//!   a watchdog that replaces decide workers stuck past `watchdog_stuck_ms`.
//! * Persistence — with a cache directory configured, every tenant workspace is
//!   backed by an [`xpsat_service::ArtifactStore`]: a restarted (or sibling) server
//!   finds every registered DTD's text and every compiled decision program on disk,
//!   and replays the programs instead of compiling them again.  `register_dtd`
//!   reports `"cached":true` whenever the text was already known: the disk held it
//!   (the artifacts are rebuilt from it), or any tenant registered it earlier.
//! * Deadlines — a server-wide default deadline (and per-request `"deadline_ms"`)
//!   bounds tail latency; expired requests answer a `deadline_exceeded` error while
//!   still publishing partial progress to the decision cache.
//!
//! The `xpathsat` binary (in this crate) fronts both modes: `serve` runs the daemon,
//! `connect` pipes a script to a running server, and the stdio subcommands from the
//! service crate continue to work unchanged.

pub mod fair;
pub mod lifecycle;
pub mod pool;
pub mod responses;
pub mod server;
pub mod stats;
pub mod tenant;

pub use fair::{FairConfig, FairScheduler, LaneSnapshot, SchedulerTotals};
pub use lifecycle::{Lifecycle, Phase, WorkerHeart};
pub use pool::{BoundedQueue, PushError};
pub use server::{Server, ServerHandle};
pub use stats::{ServerStats, ServerStatsSnapshot};
pub use tenant::{Tenant, TenantMap, DEFAULT_TENANT};

use std::path::PathBuf;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP address such as `127.0.0.1:7878` (use port `0` for an ephemeral port —
    /// [`ServerHandle::local_addr`] reports what was bound).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Connection threads (each owns one connection at a time, doing framing and
    /// admission, and answering requests whose classes are all decided; anything
    /// that needs compute goes to the decide pool); `0` means [`default_workers`].
    pub workers: usize,
    /// Bound on connections waiting for a free connection thread; connections
    /// arriving beyond it are answered with an `overloaded` error and closed.
    pub queue_depth: usize,
    /// Decide worker threads executing fair-scheduled requests; `0` means
    /// [`default_decide_workers`].
    pub decide_workers: usize,
    /// Bound on the total queries admitted at once across all tenants, queued +
    /// executing (a batch of `n` costs `n`); requests that would exceed it answer
    /// `overloaded`.
    pub max_inflight_queries: u64,
    /// Bound on *requests* waiting in the fair scheduler across all tenants.  At
    /// the bound, the newest job of the most-backlogged tenant is shed (answered
    /// `overloaded`) to admit other tenants' arrivals.
    pub request_queue_depth: usize,
    /// Per-tenant token-bucket refill rate in query-cost units per second; a tenant
    /// submitting faster answers `overloaded` (rate-limited) without affecting
    /// anyone else.  `None` disables rate limiting.
    pub tenant_rate_qps: Option<f64>,
    /// Token-bucket capacity (burst allowance) when `tenant_rate_qps` is set.
    pub tenant_burst: f64,
    /// Per-tenant bound on queued + executing query cost; `None` = unbounded.
    pub tenant_max_inflight: Option<u64>,
    /// Per-tenant scheduling weights (name, weight); unlisted tenants weigh 1.  A
    /// weight-4 tenant drains 4× the query cost of a weight-1 tenant per round when
    /// both are backlogged.
    pub tenant_weights: Vec<(String, u64)>,
    /// CoDel-style shed target: when measured queue delay stays above this for
    /// `shed_interval_ms`, over-fair-share backlog is shed until delay recovers.
    /// `None` disables adaptive shedding.
    pub shed_target_ms: Option<u64>,
    /// How long queue delay must stay above `shed_target_ms` before shedding.
    pub shed_interval_ms: u64,
    /// How long a graceful shutdown waits for queued + in-flight work before
    /// aborting the remainder with `shutting_down` answers.
    pub drain_deadline_ms: u64,
    /// A decide worker on one job longer than this is declared stuck: the watchdog
    /// replaces it (restoring pool capacity) and its requester is answered
    /// `internal_error`.  `None` disables the watchdog.
    pub watchdog_stuck_ms: Option<u64>,
    /// Deadline applied to `check`/`batch` requests that carry no `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Per-decision solver step budget applied to `check`/`batch` requests that carry
    /// no `max_steps` of their own; a decision that spends it is answered as
    /// `resource_exhausted` instead of spinning on an EXPTIME-shaped input.
    /// `None` = unlimited.
    pub default_max_steps: Option<u64>,
    /// Per-request line-length cap (bytes).
    pub max_line_bytes: usize,
    /// Socket write timeout: a client that stops draining its responses for this long
    /// gets its connection dropped instead of pinning a worker. `None` = block forever.
    pub write_timeout_ms: Option<u64>,
    /// How long a client may stall *mid-request-line* (bytes sent, no newline) before
    /// the connection is dropped — the slow-loris guard.  Idle connections between
    /// requests are never affected.  `None` = no limit.
    pub stalled_read_timeout_ms: Option<u64>,
    /// Enable the fault-injection protocol ops (`debug_panic`) on every tenant; used
    /// by resilience tests, never in production.
    pub debug_ops: bool,
    /// Root of the persistent artifact cache; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Default `threads` for `batch` requests that do not specify their own
    /// (`0` = number of CPUs).
    pub default_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:7878".to_string()),
            workers: 0,
            queue_depth: 32,
            decide_workers: 0,
            max_inflight_queries: 256,
            request_queue_depth: 256,
            tenant_rate_qps: None,
            tenant_burst: 64.0,
            tenant_max_inflight: None,
            tenant_weights: Vec::new(),
            shed_target_ms: Some(200),
            shed_interval_ms: 100,
            drain_deadline_ms: 5_000,
            watchdog_stuck_ms: Some(30_000),
            default_deadline_ms: None,
            default_max_steps: None,
            max_line_bytes: xpsat_service::DEFAULT_MAX_LINE_BYTES,
            write_timeout_ms: Some(10_000),
            stalled_read_timeout_ms: Some(30_000),
            debug_ops: false,
            cache_dir: None,
            default_threads: 0,
        }
    }
}

/// Default connection-pool width: enough to serve a handful of concurrent
/// connections even on small hosts (connection threads block on socket reads most
/// of the time; the decide work runs in the decide pool).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4)
}

/// Default decide-pool width: hardware parallelism, floored at 2 so a single
/// long-running request cannot monopolise the whole decide pool on a 1-CPU host.
pub fn default_decide_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}
