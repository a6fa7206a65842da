//! Server-wide counters (connection and admission level — the per-workspace cache
//! counters live in [`xpsat_service::CacheStats`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counters updated by the accept loop and the workers; relaxed ordering
/// (diagnostics, never synchronisation).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_rejected: AtomicU64,
    pub(crate) requests_served: AtomicU64,
    pub(crate) requests_inline: AtomicU64,
    pub(crate) requests_overloaded: AtomicU64,
    pub(crate) requests_rate_limited: AtomicU64,
    pub(crate) requests_malformed: AtomicU64,
    pub(crate) requests_oversized: AtomicU64,
    pub(crate) requests_panicked: AtomicU64,
    pub(crate) connections_stalled: AtomicU64,
}

impl ServerStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            requests_inline: self.requests_inline.load(Ordering::Relaxed),
            requests_overloaded: self.requests_overloaded.load(Ordering::Relaxed),
            requests_rate_limited: self.requests_rate_limited.load(Ordering::Relaxed),
            requests_malformed: self.requests_malformed.load(Ordering::Relaxed),
            requests_oversized: self.requests_oversized.load(Ordering::Relaxed),
            requests_panicked: self.requests_panicked.load(Ordering::Relaxed),
            connections_stalled: self.connections_stalled.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Connections handed to the worker pool.
    pub connections_accepted: u64,
    /// Connections refused because the pending queue was full (answered with an
    /// `overloaded` response and closed).
    pub connections_rejected: u64,
    /// Requests answered (any outcome other than overload/malformed/oversized).
    pub requests_served: u64,
    /// The subset of `requests_served` answered on the connection thread without
    /// the decide pool: `check`s and `batch`es whose classes were all decided.
    pub requests_inline: u64,
    /// Requests refused at admission (rate limit, quota, global in-flight bound or
    /// a full request queue) — every one answered `overloaded`.
    pub requests_overloaded: u64,
    /// The subset of `requests_overloaded` refused by a tenant token bucket.
    pub requests_rate_limited: u64,
    /// Lines that failed to parse as JSON.
    pub requests_malformed: u64,
    /// Lines rejected by the line-length cap.
    pub requests_oversized: u64,
    /// Requests whose handling panicked; each was answered `internal_error` and the
    /// worker kept serving.
    pub requests_panicked: u64,
    /// Connections dropped by the mid-line stall timeout (slow-loris guard).
    pub connections_stalled: u64,
}

impl std::fmt::Display for ServerStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connections: {} accepted, {} rejected, {} stalled; requests: {} served \
             ({} inline), {} overloaded ({} rate-limited), {} malformed, {} oversized, \
             {} panicked",
            self.connections_accepted,
            self.connections_rejected,
            self.connections_stalled,
            self.requests_served,
            self.requests_inline,
            self.requests_overloaded,
            self.requests_rate_limited,
            self.requests_malformed,
            self.requests_oversized,
            self.requests_panicked,
        )
    }
}
