//! Graceful-lifecycle primitives: the server state machine, with a condition
//! variable that wakes the threads waiting on its transitions, and per-worker
//! liveness hearts for the watchdog.
//!
//! Nothing here polls on a timer.  A thread that waits for a transition
//! ([`ServerHandle::wait`](crate::ServerHandle::wait) for drain, the watchdog for
//! `Stopped` between its samples, shutdown for the decide workers to exit) blocks
//! in `Lifecycle::wait_until`, and every transition wakes it:
//! [`Lifecycle::begin_drain`], [`Lifecycle::stop`] and `Lifecycle::notify`, which
//! an exiting decide worker calls.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The server's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting and serving normally.
    Running,
    /// Drain initiated: no new work admitted; queued + in-flight work finishing.
    Draining,
    /// Drain complete (or deadline-aborted): every thread told to exit.
    Stopped,
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Shared lifecycle state: a monotone `Running → Draining → Stopped` machine.
///
/// The phase is an atomic, read without locking on every request.  `changed` waits
/// on the `drain_started` lock, which every waker takes before it notifies: a
/// waiter checks its condition under that lock, so a transition made before the
/// check is seen by it, and one made after wakes it.
#[derive(Debug)]
pub struct Lifecycle {
    phase: AtomicU8,
    started: Instant,
    drain_started: Mutex<Option<Instant>>,
    changed: Condvar,
    watchdog_trips: AtomicU64,
}

impl Default for Lifecycle {
    fn default() -> Lifecycle {
        Lifecycle {
            phase: AtomicU8::new(RUNNING),
            started: Instant::now(),
            drain_started: Mutex::new(None),
            changed: Condvar::new(),
            watchdog_trips: AtomicU64::new(0),
        }
    }
}

impl Lifecycle {
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Acquire) {
            RUNNING => Phase::Running,
            DRAINING => Phase::Draining,
            _ => Phase::Stopped,
        }
    }

    /// How long the server has been up.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Move to `Draining` (monotone: a later `Running` can never reappear).
    /// Returns `true` on the first call, `false` if already draining/stopped.
    pub fn begin_drain(&self) -> bool {
        let first = self
            .phase
            .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if first {
            *self.lock_drain_started() = Some(Instant::now());
            self.changed.notify_all();
        }
        first
    }

    /// When drain began, if it has.
    pub fn drain_started(&self) -> Option<Instant> {
        *self.lock_drain_started()
    }

    /// Move to `Stopped` (from any phase).
    pub fn stop(&self) {
        self.phase.store(STOPPED, Ordering::Release);
        self.notify();
    }

    /// Wake every [`Lifecycle::wait_until`] waiter to re-check its condition: call
    /// it after changing state such a condition reads.
    pub(crate) fn notify(&self) {
        let _order = self.lock_drain_started();
        self.changed.notify_all();
    }

    /// Block until `done()` holds or `deadline` passes (`None`: no deadline), and
    /// return `done()`'s last value.  `done` is checked on entry and after each
    /// wake-up, under the lifecycle's lock, so it must not call back into this
    /// lifecycle's [`Lifecycle::drain_started`].
    pub(crate) fn wait_until(
        &self,
        deadline: Option<Instant>,
        mut done: impl FnMut() -> bool,
    ) -> bool {
        let mut guard = self.lock_drain_started();
        loop {
            if done() {
                return true;
            }
            guard = match deadline {
                None => self
                    .changed
                    .wait(guard)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.changed
                        .wait_timeout(guard, left)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
            };
        }
    }

    fn lock_drain_started(&self) -> std::sync::MutexGuard<'_, Option<Instant>> {
        self.drain_started
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record a watchdog trip (a stuck worker replaced).
    pub fn record_watchdog_trip(&self) {
        self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Watchdog trips so far.
    pub fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips.load(Ordering::Relaxed)
    }
}

/// A decide worker's liveness heart.  The worker stamps `begin`/`finish` around
/// each job; the watchdog reads `busy_since` and, past the stuck threshold, marks
/// the heart `abandoned` and spawns a replacement.  An abandoned worker exits as
/// soon as its current job returns (its late result is discarded by the
/// first-write-wins [`crate::fair::ResponseSlot`]).  A worker marks its heart
/// `exited` as its thread ends, which is what shutdown waits for.
#[derive(Debug, Default)]
pub struct WorkerHeart {
    busy_since: Mutex<Option<Instant>>,
    abandoned: AtomicBool,
    exited: AtomicBool,
}

impl WorkerHeart {
    /// Stamp the start of a job.
    pub fn begin(&self) {
        let mut busy = self
            .busy_since
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *busy = Some(Instant::now());
    }

    /// Stamp the end of a job.
    pub fn finish(&self) {
        let mut busy = self
            .busy_since
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *busy = None;
    }

    /// How long the worker has been on its current job, if it is on one.
    pub fn busy_for(&self) -> Option<Duration> {
        self.busy_since
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .map(|since| since.elapsed())
    }

    /// Declared stuck by the watchdog; the worker must exit after its current job.
    pub fn abandon(&self) {
        self.abandoned.store(true, Ordering::Release);
    }

    pub fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    /// The worker has left its loop and takes no further job.
    pub(crate) fn mark_exited(&self) {
        self.exited.store(true, Ordering::Release);
    }

    pub(crate) fn has_exited(&self) -> bool {
        self.exited.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_is_monotone() {
        let lc = Lifecycle::default();
        assert_eq!(lc.phase(), Phase::Running);
        assert!(lc.drain_started().is_none());
        assert!(lc.begin_drain());
        assert!(!lc.begin_drain(), "second drain call is a no-op");
        assert_eq!(lc.phase(), Phase::Draining);
        assert!(lc.drain_started().is_some());
        lc.stop();
        assert_eq!(lc.phase(), Phase::Stopped);
        assert!(!lc.begin_drain(), "cannot drain a stopped server");
        assert_eq!(lc.phase(), Phase::Stopped);
    }

    #[test]
    fn wait_until_wakes_on_a_transition_and_honours_its_deadline() {
        let lc = std::sync::Arc::new(Lifecycle::default());
        assert!(!lc.wait_until(Some(Instant::now() + Duration::from_millis(20)), || false));

        // The waiter reports its first check, made under the lifecycle's lock, so
        // the drain below can only take that lock once the waiter is waiting.
        let (checked, first_check) = std::sync::mpsc::channel();
        let waiter = {
            let lc = std::sync::Arc::clone(&lc);
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut report = Some(checked);
                let drained = lc.wait_until(Some(started + Duration::from_secs(30)), || {
                    if let Some(checked) = report.take() {
                        checked.send(()).expect("test thread listens");
                    }
                    lc.phase() != Phase::Running
                });
                (drained, started.elapsed())
            })
        };
        first_check.recv().expect("waiter checks once");
        assert!(lc.begin_drain());
        let (drained, waited) = waiter.join().expect("waiter returns");
        assert!(drained);
        assert!(
            waited < Duration::from_secs(10),
            "woken only by the deadline"
        );
    }

    #[test]
    fn heart_tracks_busy_spans_and_abandonment() {
        let heart = WorkerHeart::default();
        assert!(heart.busy_for().is_none());
        heart.begin();
        assert!(heart.busy_for().is_some());
        heart.finish();
        assert!(heart.busy_for().is_none());
        assert!(!heart.is_abandoned());
        heart.abandon();
        assert!(heart.is_abandoned());
    }
}
