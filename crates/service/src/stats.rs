//! Cache-effectiveness counters for a [`crate::Workspace`].
//!
//! The counters exist so that callers (and the acceptance tests) can *prove* that the
//! service amortises per-DTD preprocessing: after a warm batch, a second identical
//! batch must leave `classifications` untouched and grow only `decision_cache_hits`.

use std::sync::atomic::{AtomicU64, Ordering};
use xpsat_plan::BailReason;

/// Number of distinct compile-bail reasons ([`BailReason::ALL`]); the
/// `compile_bailouts` array is indexed by [`BailReason::index`].
pub const BAIL_REASONS: usize = BailReason::ALL.len();

/// Declares the workspace counters once, in the order the protocol's `stats` op
/// reports them: the atomic [`CacheStats`], its plain-data [`StatsSnapshot`], the
/// copy between them and [`StatsSnapshot::counters`].
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Counters updated by the workspace (monotone); thread-safe, relaxed
        /// ordering (the counters are diagnostics, never synchronisation).
        #[derive(Debug, Default)]
        pub struct CacheStats {
            $(pub(crate) $name: AtomicU64,)+
            pub(crate) compile_bailouts: [AtomicU64; BAIL_REASONS],
        }

        /// A plain-data copy of the workspace counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
            /// Compile bails by reason, indexed by [`BailReason::index`] (the slugs of
            /// [`BailReason::as_str`] in [`BailReason::ALL`] order).  Sums to
            /// `program_fallbacks`.
            pub compile_bailouts: [u64; BAIL_REASONS],
        }

        impl CacheStats {
            /// A point-in-time copy of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    compile_bailouts: std::array::from_fn(|i| {
                        self.compile_bailouts[i].load(Ordering::Relaxed)
                    }),
                }
            }
        }

        impl StatsSnapshot {
            /// `(name, value)` of every scalar counter, in declaration order (the
            /// order of the protocol's `stats` response).
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// DTDs registered in this workspace for the first time (preprocessing ran only
    /// if no workspace sharing the decision store had built the text).
    dtds_registered,
    /// `register_dtd` calls served by the canonical-text dedup table.
    dtds_reused,
    /// How many times [`xpsat_dtd::classify()`] actually ran.
    classifications,
    /// How many times [`xpsat_dtd::normalize()`] actually ran.
    normalizations,
    /// Content-model Glushkov automata constructed (one per element type, at
    /// registration).
    automata_built,
    /// Queries interned for the first time.
    queries_interned,
    /// `intern` calls served by the canonical-path dedup table.
    queries_reused,
    /// Decisions computed by running a solver engine.
    decisions_computed,
    /// Decisions served again to this workspace: its own earlier decision of the
    /// same `(dtd, structural class)`, or one it was already served.
    decision_cache_hits,
    /// Registrations served from the on-disk artifact store.
    artifact_store_hits,
    /// Store lookups that found no valid entry (absent or corrupt).
    artifact_store_misses,
    /// Entries written to the on-disk artifact store.
    artifact_store_writes,
    /// Store lookups that found a *corrupt* entry (bad magic, truncation, failed
    /// decode) — a subset of `artifact_store_misses`, split out because corruption
    /// signals disk trouble or tampering while a plain miss is just a cold cache.
    artifact_store_corrupt,
    /// Requests abandoned because their deadline expired mid-batch.
    deadline_exceeded,
    /// Decisions that spent their step budget and were answered `Unknown` with an
    /// exhaustion marker (never cached).
    resource_exhausted,
    /// Decisions served from the *shared* decision store: another workspace had
    /// already decided the same (DTD text, canonical query) instance.
    canonical_hits,
    /// Queries lowered to a decision program by the plan compiler (once per
    /// (DTD text, canonical query) class in the decision store; replayed by the VM
    /// thereafter).
    programs_compiled,
    /// Queries outside the compiled fragment, noted once and permanently routed to
    /// the AST solver.
    program_fallbacks,
    /// Decisions answered by replaying a compiled program in the plan VM.
    vm_decides,
    /// VM SAT verdicts whose witness realisation failed, falling back to the AST
    /// solver (expected to stay 0; counted so drift is visible).
    vm_witness_fallbacks,
    /// Compiled programs served from the persistent program store (a restarted
    /// server replays these with zero compiles; does **not** count towards
    /// `programs_compiled`).
    program_store_hits,
    /// Program-store lookups that found no valid entry (absent or corrupt).
    program_store_misses,
    /// Compiled programs written to the persistent store.
    program_store_writes,
    /// Program-store lookups that found a *corrupt* entry (bad magic, truncation,
    /// checksum mismatch) — a subset of `program_store_misses`; the damaged entry
    /// is deleted and the program recompiled.
    program_store_corrupt,
}

impl CacheStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Fraction of computed decisions answered by the compiled-program VM, in
    /// `[0, 1]` (`0` when nothing was decided yet).  The headline coverage metric
    /// of the compiled fast path.
    pub fn vm_coverage(&self) -> f64 {
        if self.decisions_computed == 0 {
            0.0
        } else {
            self.vm_decides as f64 / self.decisions_computed as f64
        }
    }

    /// `(slug, count)` pairs of the nonzero compile-bail reasons, in
    /// [`BailReason::ALL`] order.
    pub fn bailouts_by_reason(&self) -> Vec<(&'static str, u64)> {
        BailReason::ALL
            .iter()
            .zip(self.compile_bailouts)
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| (r.as_str(), n))
            .collect()
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in self.counters() {
            write!(f, "{name}={value} ")?;
        }
        write!(f, "vm_coverage={:.1}%", self.vm_coverage() * 100.0)?;
        let bailed = self.bailouts_by_reason();
        if !bailed.is_empty() {
            write!(f, "; compile bailouts:")?;
            for (slug, count) in bailed {
                write!(f, " {slug}={count}")?;
            }
        }
        Ok(())
    }
}
