//! Tenant-fair request dispatch: deficit round-robin over per-tenant sub-queues,
//! per-tenant token buckets and in-flight quotas, and CoDel-style adaptive shedding.
//!
//! PR 4's dispatch was *connection*-FIFO: whichever connection a worker happened to
//! own got served, and the only admission control was one global in-flight counter —
//! a single flooding tenant could occupy every worker and starve the rest.  This
//! module moves the dispatch unit from the connection to the *request*:
//!
//! * Every request passes one admission ([`FairScheduler::admit`]), which holds its
//!   cost in flight.  A request the connection thread can answer itself (its
//!   classes are all decided) returns the cost when answered
//!   ([`FairScheduler::complete_inline`]).  Every other request becomes a [`Job`] in
//!   its tenant's **sub-queue** ([`FairScheduler::enqueue`]); decide workers pull
//!   jobs by **deficit round-robin** (each visit grants a tenant `quantum × weight`
//!   cost credits), so a tenant with 50 queued batches and a tenant with one queued
//!   check alternate at their weight ratio instead of FIFO order.
//! * Admission is per-tenant first: a **token bucket** (rate + burst) and an
//!   **in-flight quota** (queued + executing cost, inline answers included) refuse
//!   the flooding tenant with `overloaded` while other tenants' admission is
//!   untouched.
//! * When the global queue is full, the scheduler **sheds from the largest queue**
//!   (newest job of the most-backlogged tenant) instead of tail-dropping whoever
//!   arrived last — the victim of overload is the tenant causing it.
//! * When measured queue delay stays above a target for a full interval
//!   (CoDel-style), dequeued jobs of over-fair-share tenants are shed until the
//!   delay drops back under the target.
//!
//! Every job that enters the scheduler is **guaranteed a response**: it is either
//! executed by a worker, shed with an `overloaded` answer, or — during drain
//! abort — answered `shutting_down`.  Nothing admitted is ever silently dropped.

use crate::responses::{shed_response, shutting_down_response};
use crate::tenant::Tenant;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xpsat_service::Json;

/// A single admitted request: parsed, tenant-resolved, waiting for a decide worker.
#[derive(Debug)]
pub struct Job {
    /// The parsed request line.
    pub request: Json,
    /// The tenant the request belongs to (already resolved and validated).
    pub tenant: Arc<Tenant>,
    /// Admission cost: a batch of `n` queries costs `n`, anything else costs 1.
    pub cost: u64,
    /// When the job entered the scheduler (the CoDel sojourn clock).
    pub enqueued: Instant,
    /// Where the connection thread waits for the answer.
    pub slot: Arc<ResponseSlot>,
}

/// A one-shot response cell: the connection thread blocks on it, a decide worker
/// (or the scheduler itself, for shed/aborted jobs) fulfills it exactly once —
/// later fulfillments are ignored, so a watchdog-abandoned worker finishing late
/// cannot clobber the answer the client already got.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    cell: Mutex<Option<Json>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Deliver the response; first write wins.
    pub fn fulfill(&self, response: Json) {
        let mut cell = self
            .cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if cell.is_none() {
            *cell = Some(response);
            self.ready.notify_all();
        }
    }

    /// Wait up to `poll` for the response; `None` means not ready yet (the caller
    /// loops, interleaving its own liveness checks).
    pub fn wait_for(&self, poll: Duration) -> Option<Json> {
        let cell = self
            .cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if cell.is_some() {
            return self.take(cell);
        }
        let (cell, _timeout) = self
            .ready
            .wait_timeout(cell, poll)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.take(cell)
    }

    fn take(&self, mut cell: std::sync::MutexGuard<'_, Option<Json>>) -> Option<Json> {
        cell.take()
    }
}

/// Why a submission was refused (the job is handed back so the caller can answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The server is draining; new work answers `shutting_down`.
    Draining,
    /// The tenant's token bucket is empty (it exceeds its configured rate).
    RateLimited,
    /// The tenant's queued + executing cost would exceed its in-flight quota.
    OverQuota,
    /// Global admitted cost (queued + executing) would exceed the in-flight bound.
    Saturated,
    /// The request queue is full and this tenant holds the largest backlog.
    QueueFull,
}

/// A lazily-refilled token bucket; `None` rate means unlimited.
#[derive(Debug)]
pub struct TokenBucket {
    tokens: f64,
    burst: f64,
    rate: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second, holding at most `burst`.
    pub fn new(rate: f64, burst: f64, now: Instant) -> TokenBucket {
        let burst = burst.max(1.0);
        TokenBucket {
            tokens: burst,
            burst,
            rate: rate.max(0.0),
            last_refill: now,
        }
    }

    /// Refill for elapsed time, then try to spend `cost` tokens.
    pub fn try_charge(&mut self, cost: f64, now: Instant) -> bool {
        let elapsed = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after a refill to `now`).
    pub fn available(&mut self, now: Instant) -> f64 {
        let elapsed = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        self.tokens
    }
}

/// Fairness and admission configuration (derived from `ServerConfig`).
#[derive(Debug, Clone)]
pub struct FairConfig {
    /// Global bound on admitted cost (queued + executing).
    pub max_inflight: u64,
    /// Global bound on *queued jobs* before overload shedding kicks in.
    pub max_queued_jobs: usize,
    /// Base DRR quantum in cost units; a tenant earns `quantum × weight` per visit.
    pub quantum: u64,
    /// Per-tenant weights (default 1): a weight-4 tenant drains 4× the cost of a
    /// weight-1 tenant per round when both are backlogged.
    pub weights: HashMap<String, u64>,
    /// Per-tenant token refill rate in query-cost units per second; `None` = off.
    pub rate_qps: Option<f64>,
    /// Token bucket capacity (burst) when rate limiting is on.
    pub burst: f64,
    /// Per-tenant bound on queued + executing cost; `None` = unbounded.
    pub tenant_quota: Option<u64>,
    /// CoDel delay target: queue delay persistently above it triggers shedding;
    /// `None` disables adaptive shedding.
    pub shed_target: Option<Duration>,
    /// How long delay must stay above the target before shedding starts.
    pub shed_interval: Duration,
}

impl Default for FairConfig {
    fn default() -> FairConfig {
        FairConfig {
            max_inflight: 256,
            max_queued_jobs: 256,
            quantum: 4,
            weights: HashMap::new(),
            rate_qps: None,
            burst: 64.0,
            tenant_quota: None,
            shed_target: Some(Duration::from_millis(200)),
            shed_interval: Duration::from_millis(100),
        }
    }
}

/// One tenant's lane: its sub-queue, DRR deficit, bucket, and counters.
#[derive(Debug)]
struct Lane {
    jobs: VecDeque<Job>,
    deficit: u64,
    /// True while the lane sits at the *front* of the round as a continuation of
    /// its current service turn — it is not granted another quantum until it
    /// rotates to the back (a fresh round).
    in_service: bool,
    weight: u64,
    queued_cost: u64,
    inflight_cost: u64,
    bucket: Option<TokenBucket>,
    served: u64,
    shed: u64,
    rate_limited: u64,
    over_quota: u64,
}

impl Lane {
    fn new(weight: u64, config: &FairConfig, now: Instant) -> Lane {
        Lane {
            jobs: VecDeque::new(),
            deficit: 0,
            in_service: false,
            weight: weight.max(1),
            queued_cost: 0,
            inflight_cost: 0,
            bucket: config
                .rate_qps
                .map(|rate| TokenBucket::new(rate, config.burst, now)),
            served: 0,
            shed: 0,
            rate_limited: 0,
            over_quota: 0,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    lanes: HashMap<String, Lane>,
    /// Round-robin order over tenants with a non-empty sub-queue.
    active: VecDeque<String>,
    queued_jobs: usize,
    queued_cost: u64,
    inflight_cost: u64,
    draining: bool,
    /// Set after the drain deadline: `next_job` returns `None` even if non-empty.
    force_closed: bool,
    /// CoDel state: when queue delay first went above the target.
    first_above_target: Option<Instant>,
    shedding: bool,
    shed_total: u64,
    aborted_total: u64,
    drained_after_drain: u64,
}

/// Point-in-time view of one tenant's lane, for the `stats` verb.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    pub tenant: String,
    pub weight: u64,
    pub queued_jobs: usize,
    pub queued_cost: u64,
    pub inflight_cost: u64,
    /// Tokens remaining in the bucket; `None` when rate limiting is off.
    pub tokens_remaining: Option<f64>,
    pub served: u64,
    pub shed: u64,
    pub rate_limited: u64,
    pub over_quota: u64,
}

/// Scheduler-level totals, for the `stats`/`health` verbs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerTotals {
    pub queued_jobs: usize,
    pub queued_cost: u64,
    pub inflight_cost: u64,
    pub shed: u64,
    pub aborted_at_drain: u64,
    pub drained_after_drain: u64,
}

/// The tenant-fair request scheduler shared by connection threads (producers) and
/// decide workers (consumers).
#[derive(Debug)]
pub struct FairScheduler {
    inner: Mutex<Inner>,
    ready: Condvar,
    config: FairConfig,
}

impl FairScheduler {
    pub fn new(config: FairConfig) -> FairScheduler {
        FairScheduler {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            config,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every mutation is transactional (queue + counters move together), so
        // recovering from a poisoned lock cannot observe a half-applied update.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admit a job into its tenant's sub-queue, or hand it back with the refusal
    /// reason: [`FairScheduler::admit`], then [`FairScheduler::enqueue`].
    #[cfg(test)]
    fn submit(&self, job: Job) -> Result<(), (Job, Refusal)> {
        if let Err(refusal) = self.admit(job.tenant.name(), job.cost) {
            return Err((job, refusal));
        }
        self.enqueue(job)
    }

    /// Admit a request of `cost` for `tenant` and hold its cost in flight, or say why
    /// not.  Every request passes these checks, in order: drain, the tenant's
    /// in-flight quota, the global in-flight bound, the tenant's token bucket.  The
    /// holder then either answers the request itself and returns the cost with
    /// [`FairScheduler::complete_inline`], or queues it with
    /// [`FairScheduler::enqueue`].
    pub fn admit(&self, tenant: &str, cost: u64) -> Result<(), Refusal> {
        let now = Instant::now();
        let mut inner = self.lock();
        if inner.draining {
            return Err(Refusal::Draining);
        }
        if !inner.lanes.contains_key(tenant) {
            let weight = self.config.weights.get(tenant).copied().unwrap_or(1);
            let lane = Lane::new(weight, &self.config, now);
            inner.lanes.insert(tenant.to_string(), lane);
        }

        // Per-tenant quota first: the refusal only ever hits the tenant itself.
        let lane = inner.lanes.get_mut(tenant).expect("lane just ensured");
        if let Some(quota) = self.config.tenant_quota {
            if lane.queued_cost + lane.inflight_cost + cost > quota {
                lane.over_quota += 1;
                return Err(Refusal::OverQuota);
            }
        }
        // Global admitted-cost bound (the old in-flight gate, still a backstop).
        if inner.queued_cost + inner.inflight_cost + cost > self.config.max_inflight {
            return Err(Refusal::Saturated);
        }
        // Token bucket last, so a refusal above never burns this tenant's tokens.
        let lane = inner.lanes.get_mut(tenant).expect("lane exists");
        if let Some(bucket) = &mut lane.bucket {
            if !bucket.try_charge(cost as f64, now) {
                lane.rate_limited += 1;
                return Err(Refusal::RateLimited);
            }
        }
        lane.inflight_cost += cost;
        inner.inflight_cost += cost;
        Ok(())
    }

    /// Queue a job whose cost [`FairScheduler::admit`] holds, turning the hold into
    /// queued cost; on a refusal the hold is returned and the job handed back.  May
    /// shed a *different* tenant's newest job to make room when the global queue is
    /// full and the submitter is not the largest backlog.
    pub fn enqueue(&self, job: Job) -> Result<(), (Job, Refusal)> {
        let name = job.tenant.name().to_string();
        let mut inner = self.lock();
        Self::release(&mut inner, &name, job.cost);
        // Drain may have begun since admission; the decide pool may be gone.
        if inner.draining {
            return Err((job, Refusal::Draining));
        }

        // Queue-full: shed the newest job of the most-backlogged tenant instead of
        // tail-dropping the arrival — unless the arrival IS the largest backlog.
        if inner.queued_jobs >= self.config.max_queued_jobs.max(1) {
            let largest = inner
                .lanes
                .iter()
                .filter(|(_, lane)| !lane.jobs.is_empty())
                .max_by_key(|(_, lane)| lane.queued_cost)
                .map(|(tenant, _)| tenant.clone());
            match largest {
                Some(largest) if largest != name => {
                    let lane = inner.lanes.get_mut(&largest).expect("largest lane");
                    if let Some(victim) = lane.jobs.pop_back() {
                        lane.queued_cost -= victim.cost;
                        lane.shed += 1;
                        if lane.jobs.is_empty() {
                            lane.deficit = 0;
                            lane.in_service = false;
                            inner.active.retain(|t| t != &largest);
                        }
                        inner.queued_jobs -= 1;
                        inner.queued_cost -= victim.cost;
                        inner.shed_total += 1;
                        victim
                            .slot
                            .fulfill(shed_response("request queue full, backlog shed"));
                    }
                }
                _ => return Err((job, Refusal::QueueFull)),
            }
        }

        let cost = job.cost;
        let lane = inner.lanes.get_mut(&name).expect("admission made the lane");
        let was_empty = lane.jobs.is_empty();
        lane.jobs.push_back(job);
        lane.queued_cost += cost;
        if was_empty {
            inner.active.push_back(name);
        }
        inner.queued_jobs += 1;
        inner.queued_cost += cost;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Deficit-round-robin pick of the next job to execute; blocks until one is
    /// available.  Returns `None` once the scheduler is draining and empty (or
    /// force-closed): the worker-pool exit signal.  Jobs whose queue delay tripped
    /// the CoDel shedder are answered `overloaded` here and never returned.
    pub fn next_job(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if inner.force_closed {
                return None;
            }
            while inner.queued_jobs > 0 {
                let name = inner.active.pop_front().expect("active tracks queued");
                let quantum = self.config.quantum.max(1);
                let lane = inner.lanes.get_mut(&name).expect("active lane exists");
                // Classic DRR: one quantum grant per *round*.  A lane re-visited as
                // a continuation of its service turn (pushed to the front below)
                // spends leftover deficit without earning more.
                if !lane.in_service {
                    lane.deficit = lane.deficit.saturating_add(quantum * lane.weight);
                }
                let head_cost = lane.jobs.front().expect("active lane non-empty").cost;
                if lane.deficit < head_cost {
                    lane.in_service = false;
                    inner.active.push_back(name);
                    continue;
                }
                let job = lane.jobs.pop_front().expect("head exists");
                lane.deficit -= head_cost;
                lane.queued_cost -= job.cost;
                if lane.jobs.is_empty() {
                    lane.deficit = 0;
                    lane.in_service = false;
                } else if lane.deficit >= lane.jobs.front().expect("non-empty").cost {
                    // Turn continues: serve this lane again before rotating.
                    lane.in_service = true;
                    inner.active.push_front(name.clone());
                } else {
                    lane.in_service = false;
                    inner.active.push_back(name.clone());
                }
                inner.queued_jobs -= 1;
                inner.queued_cost -= job.cost;

                if self.codel_sheds(&mut inner, &name, &job) {
                    let lane = inner.lanes.get_mut(&name).expect("lane exists");
                    lane.shed += 1;
                    inner.shed_total += 1;
                    job.slot
                        .fulfill(shed_response("queue delay above target, load shed"));
                    continue;
                }

                let lane = inner.lanes.get_mut(&name).expect("lane exists");
                lane.inflight_cost += job.cost;
                lane.served += 1;
                inner.inflight_cost += job.cost;
                if inner.draining {
                    inner.drained_after_drain += 1;
                }
                return Some(job);
            }
            if inner.draining {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// CoDel-style decision: delay persistently above target ⇒ shedding mode; in
    /// shedding mode, jobs of tenants at or above their fair share of the backlog
    /// are dropped (lowest-priority-first, where priority = being under-share).
    fn codel_sheds(&self, inner: &mut Inner, tenant: &str, job: &Job) -> bool {
        let Some(target) = self.config.shed_target else {
            return false;
        };
        let delay = job.enqueued.elapsed();
        if delay <= target {
            inner.first_above_target = None;
            inner.shedding = false;
            return false;
        }
        let now = Instant::now();
        let first = *inner.first_above_target.get_or_insert(now);
        if !inner.shedding && now.saturating_duration_since(first) < self.config.shed_interval {
            return false;
        }
        inner.shedding = true;
        // Fair share over the tenants that still have work queued (plus this one).
        let lane = inner.lanes.get(tenant).expect("lane exists");
        let backlog = lane.queued_cost + job.cost;
        let total = inner.queued_cost + job.cost;
        let active = inner.active.len().max(1) as u64;
        backlog.saturating_mul(active) >= total
    }

    /// Return a finished job's cost to the tenant's and the global in-flight
    /// accounts.
    pub fn complete(&self, tenant: &str, cost: u64) {
        Self::release(&mut self.lock(), tenant, cost);
    }

    /// Return the cost of a request that [`FairScheduler::admit`] held and the
    /// caller answered on its own thread, counting it served in the tenant's lane.
    pub fn complete_inline(&self, tenant: &str, cost: u64) {
        let mut inner = self.lock();
        Self::release(&mut inner, tenant, cost);
        if let Some(lane) = inner.lanes.get_mut(tenant) {
            lane.served += 1;
        }
    }

    fn release(inner: &mut Inner, tenant: &str, cost: u64) {
        if let Some(lane) = inner.lanes.get_mut(tenant) {
            lane.inflight_cost = lane.inflight_cost.saturating_sub(cost);
        }
        inner.inflight_cost = inner.inflight_cost.saturating_sub(cost);
    }

    /// Stop admitting; queued jobs keep draining.  Idempotent.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        drop(inner);
        // Wake every worker so idle ones observe the drain and exit when empty.
        self.ready.notify_all();
    }

    /// Answer every still-queued job `shutting_down` (they were accepted, so they
    /// are *answered*, not dropped) and make `next_job` return `None` immediately.
    /// The drain-deadline backstop.  Returns how many were aborted.
    pub fn abort_queued(&self) -> u64 {
        let mut inner = self.lock();
        inner.draining = true;
        inner.force_closed = true;
        let mut aborted = 0;
        let lanes: Vec<String> = inner.lanes.keys().cloned().collect();
        for name in lanes {
            let lane = inner.lanes.get_mut(&name).expect("lane exists");
            let jobs: Vec<Job> = lane.jobs.drain(..).collect();
            lane.queued_cost = 0;
            lane.deficit = 0;
            lane.in_service = false;
            for job in jobs {
                aborted += 1;
                job.slot.fulfill(shutting_down_response(
                    "server drain deadline reached before this request was served",
                ));
            }
        }
        inner.active.clear();
        inner.queued_jobs = 0;
        inner.queued_cost = 0;
        inner.aborted_total += aborted;
        drop(inner);
        self.ready.notify_all();
        aborted
    }

    /// Whether drain has been initiated.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Per-tenant lane snapshots, sorted by tenant name.
    pub fn lane_snapshots(&self) -> Vec<LaneSnapshot> {
        let now = Instant::now();
        let mut inner = self.lock();
        let mut lanes: Vec<LaneSnapshot> = inner
            .lanes
            .iter_mut()
            .map(|(name, lane)| LaneSnapshot {
                tenant: name.clone(),
                weight: lane.weight,
                queued_jobs: lane.jobs.len(),
                queued_cost: lane.queued_cost,
                inflight_cost: lane.inflight_cost,
                tokens_remaining: lane.bucket.as_mut().map(|b| b.available(now)),
                served: lane.served,
                shed: lane.shed,
                rate_limited: lane.rate_limited,
                over_quota: lane.over_quota,
            })
            .collect();
        lanes.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        lanes
    }

    /// Scheduler-level totals.
    pub fn totals(&self) -> SchedulerTotals {
        let inner = self.lock();
        SchedulerTotals {
            queued_jobs: inner.queued_jobs,
            queued_cost: inner.queued_cost,
            inflight_cost: inner.inflight_cost,
            shed: inner.shed_total,
            aborted_at_drain: inner.aborted_total,
            drained_after_drain: inner.drained_after_drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantMap;
    use crate::ServerConfig;

    fn job(map: &TenantMap, tenant: &str, cost: u64) -> Job {
        Job {
            request: Json::obj(vec![("op", Json::Str("check".into()))]),
            tenant: map.tenant(tenant).unwrap(),
            cost,
            enqueued: Instant::now(),
            slot: Arc::new(ResponseSlot::default()),
        }
    }

    fn error_kind(response: &Json) -> Option<&str> {
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    fn scheduler(config: FairConfig) -> (FairScheduler, TenantMap) {
        (
            FairScheduler::new(config),
            TenantMap::new(ServerConfig::default()).unwrap(),
        )
    }

    #[test]
    fn drr_interleaves_backlogged_tenants() {
        let (sched, map) = scheduler(FairConfig {
            shed_target: None,
            quantum: 1,
            ..FairConfig::default()
        });
        // Flood 6 jobs for "flood", then 2 for "victim": FIFO would serve all six
        // flood jobs first; DRR alternates.
        for _ in 0..6 {
            sched.submit(job(&map, "flood", 1)).unwrap();
        }
        for _ in 0..2 {
            sched.submit(job(&map, "victim", 1)).unwrap();
        }
        let order: Vec<String> = (0..8)
            .map(|_| {
                let j = sched.next_job().unwrap();
                let name = j.tenant.name().to_string();
                sched.complete(&name, j.cost);
                name
            })
            .collect();
        // Victim's two jobs are both served within the first four picks.
        let victim_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() == "victim")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(victim_positions.len(), 2, "{order:?}");
        assert!(victim_positions[1] <= 3, "victim starved: {order:?}");
    }

    #[test]
    fn weights_scale_the_share() {
        let (sched, map) = scheduler(FairConfig {
            shed_target: None,
            quantum: 1,
            weights: HashMap::from([("gold".to_string(), 3)]),
            ..FairConfig::default()
        });
        for _ in 0..9 {
            sched.submit(job(&map, "gold", 1)).unwrap();
            sched.submit(job(&map, "bronze", 1)).unwrap();
        }
        let first_eight: Vec<String> = (0..8)
            .map(|_| {
                let j = sched.next_job().unwrap();
                let name = j.tenant.name().to_string();
                sched.complete(&name, j.cost);
                name
            })
            .collect();
        let gold = first_eight.iter().filter(|n| n.as_str() == "gold").count();
        // Weight 3 vs 1 ⇒ roughly 3:1 service ratio over any window.
        assert!(gold >= 5, "gold got {gold}/8: {first_eight:?}");
    }

    #[test]
    fn token_bucket_rate_limits_per_tenant() {
        let (sched, map) = scheduler(FairConfig {
            rate_qps: Some(1.0),
            burst: 2.0,
            shed_target: None,
            ..FairConfig::default()
        });
        // Burst of 2 admits two cost-1 jobs; the third is rate-limited — but only
        // for this tenant.
        sched.submit(job(&map, "flood", 1)).unwrap();
        sched.submit(job(&map, "flood", 1)).unwrap();
        let refused = sched.submit(job(&map, "flood", 1)).unwrap_err();
        assert_eq!(refused.1, Refusal::RateLimited);
        sched.submit(job(&map, "victim", 1)).unwrap();
        let lanes = sched.lane_snapshots();
        let flood = lanes.iter().find(|l| l.tenant == "flood").unwrap();
        assert_eq!(flood.rate_limited, 1);
        assert!(flood.tokens_remaining.unwrap() < 1.0);
        let victim = lanes.iter().find(|l| l.tenant == "victim").unwrap();
        assert_eq!(victim.rate_limited, 0);
    }

    #[test]
    fn tenant_quota_bounds_queued_plus_inflight() {
        let (sched, map) = scheduler(FairConfig {
            tenant_quota: Some(3),
            shed_target: None,
            ..FairConfig::default()
        });
        sched.submit(job(&map, "a", 2)).unwrap();
        let refused = sched.submit(job(&map, "a", 2)).unwrap_err();
        assert_eq!(refused.1, Refusal::OverQuota);
        // The executing job still counts against the quota until complete().
        let j = sched.next_job().unwrap();
        assert_eq!(
            sched.submit(job(&map, "a", 2)).unwrap_err().1,
            Refusal::OverQuota
        );
        sched.complete("a", j.cost);
        sched.submit(job(&map, "a", 2)).unwrap();
        // Another tenant was never affected.
        sched.submit(job(&map, "b", 2)).unwrap();
    }

    #[test]
    fn admitted_cost_is_held_until_answered_inline_or_queued() {
        let (sched, map) = scheduler(FairConfig {
            tenant_quota: Some(3),
            shed_target: None,
            ..FairConfig::default()
        });
        // The hold counts against the quota like queued or executing cost.
        sched.admit("a", 2).unwrap();
        assert_eq!(sched.admit("a", 2).unwrap_err(), Refusal::OverQuota);
        assert_eq!(sched.totals().inflight_cost, 2);
        sched.complete_inline("a", 2);
        let lane = &sched.lane_snapshots()[0];
        assert_eq!((lane.served, lane.inflight_cost), (1, 0));
        // A held request queued for a worker turns its hold into queued cost.
        sched.admit("a", 3).unwrap();
        sched.enqueue(job(&map, "a", 3)).unwrap();
        let totals = sched.totals();
        assert_eq!((totals.queued_cost, totals.inflight_cost), (3, 0));
    }

    #[test]
    fn queue_full_sheds_largest_backlog_not_arrival() {
        let (sched, map) = scheduler(FairConfig {
            max_queued_jobs: 4,
            shed_target: None,
            ..FairConfig::default()
        });
        let mut flood_slots = Vec::new();
        for _ in 0..4 {
            let j = job(&map, "flood", 4);
            flood_slots.push(Arc::clone(&j.slot));
            sched.submit(j).unwrap();
        }
        // The queue is full; a small victim arrival evicts flood's newest job.
        sched.submit(job(&map, "victim", 1)).unwrap();
        let evicted = flood_slots[3].wait_for(Duration::from_millis(10));
        let evicted = evicted.expect("evicted job was answered, not dropped");
        assert_eq!(evicted.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(error_kind(&evicted), Some("overloaded"));
        // A further flood arrival (it holds the largest backlog) is refused.
        assert_eq!(
            sched.submit(job(&map, "flood", 4)).unwrap_err().1,
            Refusal::QueueFull
        );
        assert_eq!(sched.totals().shed, 1);
    }

    #[test]
    fn codel_sheds_over_share_backlog_when_delay_exceeds_target() {
        let (sched, map) = scheduler(FairConfig {
            shed_target: Some(Duration::ZERO),
            shed_interval: Duration::ZERO,
            ..FairConfig::default()
        });
        let j = job(&map, "flood", 1);
        let slot = Arc::clone(&j.slot);
        sched.submit(j).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        // Drain first so next_job returns None (instead of blocking) once the
        // shedder consumes the only queued job.
        sched.begin_drain();
        // Delay > 0-target with a 0 interval ⇒ shedding mode; the sole tenant holds
        // 100% of the backlog, so its job is shed rather than returned.
        assert!(sched.next_job().is_none());
        let shed = slot
            .wait_for(Duration::from_millis(10))
            .expect("shed job was answered, not dropped");
        assert_eq!(error_kind(&shed), Some("overloaded"));
        assert_eq!(shed.get("shed").and_then(Json::as_bool), Some(true));
        assert_eq!(sched.totals().shed, 1);
    }

    #[test]
    fn drain_refuses_new_serves_queued_then_signals_none() {
        let (sched, map) = scheduler(FairConfig {
            shed_target: None,
            ..FairConfig::default()
        });
        sched.submit(job(&map, "a", 1)).unwrap();
        sched.begin_drain();
        assert_eq!(
            sched.submit(job(&map, "a", 1)).unwrap_err().1,
            Refusal::Draining
        );
        let j = sched.next_job().expect("queued job drains");
        sched.complete("a", j.cost);
        assert!(sched.next_job().is_none(), "drained + empty = worker exit");
    }

    #[test]
    fn abort_answers_every_queued_job_shutting_down() {
        let (sched, map) = scheduler(FairConfig {
            shed_target: None,
            ..FairConfig::default()
        });
        let mut slots = Vec::new();
        for _ in 0..3 {
            let j = job(&map, "a", 1);
            slots.push(Arc::clone(&j.slot));
            sched.submit(j).unwrap();
        }
        assert_eq!(sched.abort_queued(), 3);
        for slot in slots {
            let response = slot.wait_for(Duration::from_millis(10)).expect("answered");
            assert_eq!(error_kind(&response), Some("shutting_down"));
        }
        assert!(sched.next_job().is_none());
        assert_eq!(sched.totals().aborted_at_drain, 3);
    }
}
