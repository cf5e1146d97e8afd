//! The monitoring service: ingestion front, worker threads, fan-out and
//! point queries.
//!
//! # Recovery
//!
//! A tenant's minimum faulty polygons depend only on its fault set, so a
//! batch whose apply panicked can be redone exactly. Each tenant keeps
//! its last committed [`FaultSet`](mesh2d::FaultSet) beside its engine,
//! and each worker runs every dequeued batch under
//! [`catch_unwind`](std::panic::catch_unwind). On a caught panic the
//! worker rebuilds the tenant's engine in place from the committed fault
//! set plus the batch it still holds. Replaying a batch over its own
//! partial result is harmless: an inject sets a node faulty and a repair
//! sets it healthy, whatever came before.
//!
//! Workers therefore never die and no accepted event is lost, so there is
//! no supervisor, no log and no resend. A tenant caught mid-apply reports
//! [`TenantHealth::Rebuilding`] and serves its last coherent snapshot
//! until the rebuild completes; every other tenant keeps serving exact
//! answers. Poisoned locks are stripped, never propagated.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, SendTimeoutError, Sender, TrySendError};
use mesh2d::{Coord, FaultEvent, Mesh2D, NodeStatus, Region, StatusDelta, StatusMap};
use mocp_incremental::IncrementalEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{ChaosControl, ChaosPlan, KillMode, CHAOS_PANIC};
use crate::config::ServeConfig;
use crate::registry::{spread, CoherentSnapshot, ShardedRegistry, Tenant, TenantHealth};

/// Tenant identifier: one monitored mesh per id.
pub type TenantId = u64;

/// One coalesced status update fanned out to a tenant's subscribers:
/// everything one ingested batch changed, at most one transition per
/// node. Batches that change nothing produce no update.
#[derive(Clone, Debug)]
pub struct TenantUpdate {
    /// The tenant whose mesh changed.
    pub tenant: TenantId,
    /// The tenant's batch sequence number (1-based, increments per
    /// applied batch whether or not anything changed) — gaps tell a
    /// bounded subscriber how many updates it missed.
    pub seq: u64,
    /// The coalesced per-node transitions.
    pub delta: StatusDelta,
}

/// O(1) counters answered from one tenant's maintained state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantCounts {
    /// Faulty (black) nodes.
    pub faulty: usize,
    /// Non-faulty disabled (gray) nodes — the paper's Figure 9 metric,
    /// live.
    pub disabled_nonfaulty: usize,
    /// Live faulty components (= maintained polygons).
    pub components: usize,
    /// Events applied to this tenant so far (including no-ops).
    pub events_applied: u64,
    /// Batches applied to this tenant so far.
    pub seq: u64,
}

/// A coherent point-in-time view of one tenant's per-node statuses,
/// with the health it was served under. While the tenant is
/// [`Rebuilding`](TenantHealth::Rebuilding) the snapshot is the last
/// coherent state (stale but consistent); otherwise it is the live
/// engine state.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// The tenant snapshotted.
    pub tenant: TenantId,
    /// Batch sequence number the statuses reflect.
    pub seq: u64,
    /// The tenant's health at capture time.
    pub health: TenantHealth,
    /// Per-node statuses.
    pub status: StatusMap,
}

/// Why [`MonitorService::ingest`] did not accept a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The tenant id is not registered.
    UnknownTenant(TenantId),
    /// The owning worker's queue stayed full past the retry policy's
    /// deadline/retry budget (or its worker is gone: only a panic inside
    /// a rebuild stops one). The batch was fully rolled back — nothing
    /// is partially enqueued, and re-ingesting the same events later is
    /// safe.
    Saturated {
        /// The tenant whose worker was saturated.
        tenant: TenantId,
        /// Bounded sends attempted before giving up.
        retries: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            IngestError::Saturated { tenant, retries } => write!(
                f,
                "tenant {tenant}'s worker stayed saturated through {retries} bounded retries"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Deadline/retry policy for [`MonitorService::ingest`]: bounded sends
/// with decorrelated-jitter backoff, then a typed
/// [`IngestError::Saturated`] instead of blocking forever.
///
/// [`unbounded`](Self::unbounded) waits as long as the queue stays full;
/// `with_deadline(Duration::ZERO).with_max_retries(0)` never waits.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total time budget across all attempts (default 250 ms). A
    /// deadline too far out for [`Instant`] to represent (such as
    /// [`Duration::MAX`]) means no deadline.
    pub deadline: Duration,
    /// Bounded-send attempts after the first before giving up
    /// (default 8).
    pub max_retries: u32,
    /// Initial/minimum backoff wait (default 500 µs).
    pub base: Duration,
    /// Maximum single backoff wait (default 20 ms).
    pub cap: Duration,
    /// Seed of the jitter RNG (mixed with the tenant id, so tenants
    /// back off decorrelated even under one seed; default 0).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_millis(250),
            max_retries: 8,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(20),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The default policy (250 ms deadline, 8 retries, 500 µs..20 ms
    /// decorrelated-jitter backoff).
    pub fn new() -> Self {
        Self::default()
    }

    /// No deadline and no retry limit: `ingest` waits, backing off, for
    /// as long as the owning worker's queue stays full.
    pub fn unbounded() -> Self {
        Self::default()
            .with_deadline(Duration::MAX)
            .with_max_retries(u32::MAX)
    }

    /// Sets the total deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the minimum backoff wait.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Sets the maximum backoff wait.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What [`MonitorService::shutdown`] observed: faults survived and work
/// replayed over the service's lifetime. Returned instead of panicking
/// (a panic inside a worker is the service's problem to absorb, not the
/// caller's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Batch applies that panicked (chaos-injected or genuine); each was
    /// rebuilt in place by its worker.
    pub panicked_workers: u64,
    /// Events re-applied by those rebuilds.
    pub replayed_events: u64,
}

/// A snapshot of the service-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Event batches applied by the workers.
    pub batches: u64,
    /// Events applied (including per-engine no-ops).
    pub events: u64,
    /// Point queries answered.
    pub queries: u64,
    /// Coalesced updates delivered to subscribers.
    pub updates_sent: u64,
    /// Updates dropped because a bounded subscriber was full.
    pub updates_dropped: u64,
    /// Events re-applied by in-place rebuilds after a batch panic.
    pub replayed_events: u64,
    /// Bounded ingest sends that timed out and backed off.
    pub ingest_retries: u64,
    /// Ingest calls that gave up saturated.
    pub ingest_saturated: u64,
    /// Batch applies that panicked and were rebuilt in place.
    pub panicked_workers: u64,
}

#[derive(Default)]
struct ServiceStats {
    batches: AtomicU64,
    events: AtomicU64,
    queries: AtomicU64,
    updates_sent: AtomicU64,
    updates_dropped: AtomicU64,
    replayed_events: AtomicU64,
    ingest_retries: AtomicU64,
    ingest_saturated: AtomicU64,
    panicked_workers: AtomicU64,
}

impl ServiceStats {
    fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates_sent: self.updates_sent.load(Ordering::Relaxed),
            updates_dropped: self.updates_dropped.load(Ordering::Relaxed),
            replayed_events: self.replayed_events.load(Ordering::Relaxed),
            ingest_retries: self.ingest_retries.load(Ordering::Relaxed),
            ingest_saturated: self.ingest_saturated.load(Ordering::Relaxed),
            panicked_workers: self.panicked_workers.load(Ordering::Relaxed),
        }
    }
}

/// Submitted-vs-applied event accounting behind
/// [`MonitorService::quiesce`]. A mutex-guarded pair (not two atomics):
/// `quiesce` must observe `applied == submitted` consistently, and the
/// ledger is touched once per *batch*, so the lock is off the per-event
/// path. Poison is stripped: the ledger stays usable after a worker
/// panic.
#[derive(Default)]
struct Ledger {
    counts: Mutex<(u64, u64)>, // (submitted, applied)
    drained: Condvar,
}

impl Ledger {
    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, u64)> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn add_submitted(&self, n: u64) {
        self.lock().0 += n;
    }

    /// Compensation for a submission the channel refused after the
    /// submitted count was already bumped.
    fn retract_submitted(&self, n: u64) {
        self.lock().0 -= n;
        self.drained.notify_all();
    }

    fn add_applied(&self, n: u64) {
        let mut counts = self.lock();
        counts.1 += n;
        if counts.1 >= counts.0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut counts = self.lock();
        while counts.1 < counts.0 {
            counts = self
                .drained
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`wait_drained`](Self::wait_drained) with a bound: `false`
    /// when the timeout elapsed first.
    fn wait_drained_timeout(&self, timeout: Duration) -> bool {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            self.wait_drained();
            return true;
        };
        let mut counts = self.lock();
        while counts.1 < counts.0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            counts = self
                .drained
                .wait_timeout(counts, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// One queued unit of ingestion: a tenant's events, applied atomically
/// under the tenant's shard lock and fanned out as one coalesced update.
struct Batch {
    tenant: TenantId,
    events: Vec<FaultEvent>,
}

/// Everything shared between the front (ingest, queries) and the
/// workers.
struct Core {
    config: ServeConfig,
    registry: ShardedRegistry,
    ledger: Ledger,
    stats: ServiceStats,
    /// Set at shutdown; overrides held chaos gates.
    shutting_down: AtomicBool,
    chaos: ChaosControl,
}

/// The sharded multi-tenant monitoring service. See the [crate
/// docs](crate) for the architecture and for how a batch panic is
/// absorbed.
///
/// Dropping the service shuts it down: queued batches are still drained
/// (no accepted event is lost, even when a batch panics — its worker
/// rebuilds the tenant in place), then the workers exit and are joined.
/// [`shutdown`](Self::shutdown) does the same explicitly and returns
/// what happened.
pub struct MonitorService {
    core: Arc<Core>,
    /// One bounded queue per worker; dropped at shutdown so the workers
    /// drain what is queued and exit.
    queues: Vec<Sender<Batch>>,
    workers: Vec<JoinHandle<()>>,
}

impl MonitorService {
    /// Starts the service: builds the shard stripes and spawns the
    /// ingestion workers.
    pub fn start(config: ServeConfig) -> MonitorService {
        Self::start_with_chaos(config, ChaosPlan::none())
    }

    /// Starts the service with a [`ChaosPlan`] armed: workers consult
    /// the plan on every dequeued batch and panic at the scheduled
    /// points. With the empty plan this is exactly [`start`](Self::start)
    /// (the gates of [`chaos`](Self::chaos) work either way).
    pub fn start_with_chaos(config: ServeConfig, plan: ChaosPlan) -> MonitorService {
        let core = Arc::new(Core {
            config,
            registry: ShardedRegistry::new(config.shards),
            ledger: Ledger::default(),
            stats: ServiceStats::default(),
            shutting_down: AtomicBool::new(false),
            chaos: ChaosControl::new(plan),
        });
        let (queues, workers) = (0..config.workers.max(1))
            .map(|w| {
                let (tx, rx) = channel::bounded(config.queue_capacity.max(1));
                let core = Arc::clone(&core);
                let handle = std::thread::Builder::new()
                    .name(format!("mocp-serve-{w}"))
                    .spawn(move || worker_loop(&core, w, rx))
                    .expect("worker thread spawn cannot fail");
                (tx, handle)
            })
            .unzip();
        MonitorService {
            core,
            queues,
            workers,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// The live fault-injection surface: gates and counters (inert but
    /// functional on plainly started services).
    pub fn chaos(&self) -> &ChaosControl {
        &self.core.chaos
    }

    /// Registers a fresh fault-free tenant mesh, using the configured
    /// centralized solution. Returns `false` (and changes nothing) when
    /// the id is already registered. Tenants are never removed.
    pub fn create_tenant(&self, tenant: TenantId, mesh: Mesh2D) -> bool {
        let created = self.core.registry.insert(
            tenant,
            Tenant::new(IncrementalEngine::with_solution(
                mesh,
                self.core.config.solution,
            )),
        );
        if created {
            mocp_obs::gauge!("serve.tenants").set(self.core.registry.len() as i64);
        }
        created
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.core.registry.len()
    }

    /// Ingests a batch of events for `tenant` into the bounded queue of
    /// the one worker that owns it — the service's only submission path.
    /// Events of one tenant are applied in submission order as long as
    /// each tenant is fed from one thread at a time. An empty batch is a
    /// no-op.
    ///
    /// A full queue is retried under `policy`: bounded sends with
    /// decorrelated-jitter backoff (seeded — reproducible), then
    /// [`IngestError::Saturated`] with the batch fully rolled back.
    /// [`RetryPolicy::unbounded`] waits instead of giving up;
    /// `with_deadline(Duration::ZERO).with_max_retries(0)` never waits.
    pub fn ingest(
        &self,
        tenant: TenantId,
        events: Vec<FaultEvent>,
        policy: &RetryPolicy,
    ) -> Result<(), IngestError> {
        if events.is_empty() {
            return Ok(());
        }
        if !self.core.registry.contains(tenant) {
            return Err(IngestError::UnknownTenant(tenant));
        }
        let core = &self.core;
        let n = events.len() as u64;
        // Submitted is bumped before the send so `applied <= submitted`
        // holds at every instant a worker could observe the batch.
        core.ledger.add_submitted(n);
        let queue = &self.queues[(spread(tenant) % self.queues.len() as u64) as usize];
        let deadline = Instant::now().checked_add(policy.deadline);
        let mut rng = StdRng::seed_from_u64(policy.seed ^ spread(tenant));
        let mut wait = policy.base.max(Duration::from_nanos(1));
        let mut retries = 0u32;
        let mut batch = Batch { tenant, events };
        loop {
            // The backoff wait doubles as send time: waiting *inside*
            // the bounded send reacts the instant a slot opens.
            let now = Instant::now();
            let mut attempt = now.checked_add(wait).unwrap_or(now);
            if let Some(deadline) = deadline {
                attempt = attempt.min(deadline);
            }
            match queue.send_deadline(batch, attempt) {
                Ok(()) => {
                    mocp_obs::counter!("serve.submitted").add(n);
                    return Ok(());
                }
                Err(SendTimeoutError::Timeout(unsent)) => {
                    batch = unsent;
                    retries = retries.saturating_add(1);
                    core.stats.ingest_retries.fetch_add(1, Ordering::Relaxed);
                    mocp_obs::counter!("serve.ingest.retries").inc();
                    if retries > policy.max_retries || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        break;
                    }
                    // Decorrelated jitter: next wait is uniform in
                    // [base, 3·previous), clamped to the cap.
                    let base_ns = policy.base.as_nanos().max(1) as u64;
                    let prev_ns = wait.as_nanos() as u64;
                    let hi = prev_ns.saturating_mul(3).max(base_ns + 1);
                    wait = Duration::from_nanos(rng.gen_range(base_ns..hi)).min(policy.cap);
                }
                // Workers catch batch panics and outlive the queues, so
                // this is a worker whose rebuild itself panicked: nothing
                // will ever drain its queue.
                Err(SendTimeoutError::Disconnected(_)) => break,
            }
        }
        core.ledger.retract_submitted(n);
        core.stats.ingest_saturated.fetch_add(1, Ordering::Relaxed);
        mocp_obs::counter!("serve.ingest.saturated").inc();
        Err(IngestError::Saturated { tenant, retries })
    }

    /// Blocks until every event submitted so far has been applied. New
    /// submissions racing with the wait extend it; with submissions
    /// stopped this is the "all queues drained" barrier. A panicked
    /// batch counts as applied only once its tenant is rebuilt, so after
    /// a quiesce every tenant is [`Live`](TenantHealth::Live).
    pub fn quiesce(&self) {
        self.core.ledger.wait_drained();
    }

    /// Like [`quiesce`](Self::quiesce) with a bound: `true` when the
    /// service drained, `false` when `timeout` elapsed first (events
    /// still in flight — the service keeps working on them).
    pub fn quiesce_timeout(&self, timeout: Duration) -> bool {
        self.core.ledger.wait_drained_timeout(timeout)
    }

    /// Registers a subscriber for `tenant`'s coalesced updates and
    /// returns the receiving end. `capacity: None` subscribes over an
    /// unbounded channel (never misses an update); `Some(n)` bounds the
    /// buffer at `n` updates and *drops* updates while the subscriber is
    /// full — the worker never stalls on a slow consumer, and `seq` gaps
    /// tell the subscriber what it missed (see
    /// [`LiveReroute`](../mocp_traffic) consumers for gap recovery).
    /// `None` is returned for unknown tenants. Dropping the receiver
    /// unsubscribes (lazily, at the next fan-out).
    pub fn subscribe(
        &self,
        tenant: TenantId,
        capacity: Option<usize>,
    ) -> Option<Receiver<TenantUpdate>> {
        let (tx, rx) = match capacity {
            Some(n) => channel::bounded(n),
            None => channel::unbounded(),
        };
        self.core
            .registry
            .with(tenant, move |state| state.subscribers.push(tx))
            .map(|()| rx)
    }

    /// The tenant's current serving health; `None` for unknown tenants.
    pub fn health(&self, tenant: TenantId) -> Option<TenantHealth> {
        self.core.registry.with(tenant, |state| state.health)
    }

    /// A coherent per-node status snapshot of one tenant — the live
    /// state when the tenant is healthy, the last coherent snapshot
    /// while it is rebuilding; `None` for unknown tenants. This is the
    /// resynchronization primitive for subscribers that detected a
    /// `seq` gap.
    pub fn status_snapshot(&self, tenant: TenantId) -> Option<StatusSnapshot> {
        self.core.registry.with(tenant, |state| match state.health {
            TenantHealth::Rebuilding => StatusSnapshot {
                tenant,
                seq: state.snapshot.seq,
                health: state.health,
                status: state.snapshot.status.clone(),
            },
            _ => StatusSnapshot {
                tenant,
                seq: state.seq,
                health: state.health,
                status: state.engine.status().clone(),
            },
        })
    }

    /// The maintained status of one node: `None` for unknown tenants and
    /// out-of-mesh coordinates. Served from the last coherent snapshot
    /// while the tenant is rebuilding.
    pub fn node_status(&self, tenant: TenantId, c: Coord) -> Option<NodeStatus> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state.snapshot.status.get(c),
            _ => state.engine.status().get(c),
        })
        .flatten()
    }

    /// The maintained minimum polygon containing the node, if any (see
    /// [`IncrementalEngine::region_of`]): `None` for unknown tenants,
    /// out-of-mesh coordinates and enabled nodes. Served from the last
    /// coherent snapshot while the tenant is rebuilding.
    pub fn region_of(&self, tenant: TenantId, c: Coord) -> Option<Region> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state
                .snapshot
                .polygons
                .iter()
                .find(|region| region.contains(c))
                .cloned(),
            _ => state.engine.region_of(c),
        })
        .flatten()
    }

    /// O(1) counters for one tenant; `None` for unknown tenants. Served
    /// from the last coherent snapshot while the tenant is rebuilding.
    pub fn counts(&self, tenant: TenantId) -> Option<TenantCounts> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => TenantCounts {
                faulty: state.snapshot.faulty,
                disabled_nonfaulty: state.snapshot.disabled_nonfaulty,
                components: state.snapshot.polygons.len(),
                events_applied: state.snapshot.events_applied,
                seq: state.snapshot.seq,
            },
            _ => TenantCounts {
                faulty: state.engine.faulty_count(),
                disabled_nonfaulty: state.engine.disabled_nonfaulty(),
                components: state.engine.component_count(),
                events_applied: state.events_applied,
                seq: state.seq,
            },
        })
    }

    /// A snapshot of every maintained polygon of one tenant, in
    /// deterministic component order; `None` for unknown tenants. Served
    /// from the last coherent snapshot while the tenant is rebuilding.
    pub fn polygons(&self, tenant: TenantId) -> Option<Vec<Region>> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state.snapshot.polygons.clone(),
            _ => state.engine.polygons(),
        })
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.core.stats.snapshot()
    }

    /// Shuts the service down: disconnects the ingestion queues, lets
    /// the workers drain what was already queued, and joins them. Never
    /// panics — batch panics are counted in the returned
    /// [`ShutdownReport`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> ShutdownReport {
        let core = &self.core;
        core.shutting_down.store(true, Ordering::SeqCst);
        // Wake workers parked on a chaos gate; they re-check the flag
        // and fall through.
        core.chaos.notify_shutdown();
        // Disconnect the queues: workers drain what is queued and exit.
        self.queues.clear();
        for worker in self.workers.drain(..) {
            // Only a panic inside a rebuild gets this far.
            if worker.join().is_err() {
                core.stats.panicked_workers.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stats = core.stats.snapshot();
        ShutdownReport {
            panicked_workers: stats.panicked_workers,
            replayed_events: stats.replayed_events,
        }
    }

    /// Runs one timed point query against a tenant's state.
    fn query_tenant<R>(&self, tenant: TenantId, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        let _span = mocp_obs::span!("serve.query");
        self.core.stats.queries.fetch_add(1, Ordering::Relaxed);
        mocp_obs::counter!("serve.queries").inc();
        self.core.registry.with(tenant, f)
    }
}

impl Drop for MonitorService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

impl fmt::Debug for MonitorService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorService")
            .field("config", &self.core.config)
            .field("tenants", &self.core.registry.len())
            .field("workers", &self.workers.len())
            .field("stats", &self.core.stats.snapshot())
            .finish()
    }
}

/// One worker: drain the queue, apply each batch under its tenant's
/// shard lock, fan out the coalesced delta. A panic inside a batch
/// (chaos-injected or genuine) is caught here and the tenant rebuilt in
/// place, so the worker only exits when the service disconnects the
/// queue *and* every queued batch has been processed.
fn worker_loop(core: &Core, worker: usize, queue: Receiver<Batch>) {
    while let Ok(batch) = queue.recv() {
        // Unwind-safe in effect: the only state a panic can leave broken
        // is the tenant's engine, which is marked `Rebuilding` before its
        // first mutation and replaced by `rebuild_tenant` below.
        let applied = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut panic_after = None;
            match core.chaos.on_dequeue(&core.shutting_down) {
                Some(KillMode::Clean) => {
                    panic::panic_any(format!("{CHAOS_PANIC}: clean kill in worker {worker}"))
                }
                // Clamp so the kill always fires inside this batch.
                Some(KillMode::MidApply { after_events }) => {
                    panic_after = Some(after_events.min(batch.events.len().saturating_sub(1)))
                }
                None => {}
            }
            apply_batch(core, &batch, panic_after);
        }));
        if applied.is_err() {
            core.stats.panicked_workers.fetch_add(1, Ordering::Relaxed);
            core.chaos.wait_recovery_gate(&core.shutting_down);
            rebuild_tenant(core, &batch);
        }
    }
}

/// Applies one batch to its tenant under the shard lock.
///
/// Health dips to `Rebuilding` for the duration of the mutation and
/// back to `Live` before the lock is released: invisible in normal
/// operation, but a panic mid-apply (chaos or genuine) leaves the
/// quarantine marker set, so readers are served the snapshot instead of
/// the half-applied engine until the worker rebuilds the tenant.
fn apply_batch(core: &Core, batch: &Batch, panic_after: Option<usize>) {
    let _span = mocp_obs::span!("serve.apply");
    let tenant = batch.tenant;
    core.registry.with(tenant, |state| {
        state.health = TenantHealth::Rebuilding;
        let mut delta = StatusDelta::new();
        for (i, &event) in batch.events.iter().enumerate() {
            if panic_after == Some(i) {
                panic::panic_any(format!("{CHAOS_PANIC}: mid-apply kill in tenant {tenant}"));
            }
            delta.extend(state.engine.apply(event));
        }
        commit(core, state, &batch.events);
        let (sent, dropped) = fan_out(state, tenant, delta);
        core.stats.updates_sent.fetch_add(sent, Ordering::Relaxed);
        core.stats
            .updates_dropped
            .fetch_add(dropped, Ordering::Relaxed);
        // Ledger credit last: when `quiesce` returns, every applied
        // batch's update and counters are already visible.
        core.ledger.add_applied(batch.events.len() as u64);
    });
}

/// Rebuilds the tenant of a batch whose apply panicked: a fresh engine
/// fed the committed fault set, then the whole batch. Whatever the
/// panicked apply left behind is discarded. Nothing is fanned out:
/// subscribers see the `seq` jump as a gap and resynchronize from a
/// status snapshot.
fn rebuild_tenant(core: &Core, batch: &Batch) {
    let _span = mocp_obs::span!("serve.recovery");
    core.registry.with(batch.tenant, |state| {
        let mut engine =
            IncrementalEngine::with_solution(*state.committed.mesh(), core.config.solution);
        for &c in state.committed.in_insertion_order() {
            engine.apply(FaultEvent::Inject(c));
        }
        for &event in &batch.events {
            engine.apply(event);
        }
        state.engine = engine;
        commit(core, state, &batch.events);
        state.snapshot = CoherentSnapshot::capture(&state.engine, state.seq, state.events_applied);
        let n = batch.events.len() as u64;
        core.stats.replayed_events.fetch_add(n, Ordering::Relaxed);
        mocp_obs::counter!("serve.rebuilds").inc();
        mocp_obs::counter!("serve.replayed_events").add(n);
        core.ledger.add_applied(n);
    });
}

/// Records an applied batch on its tenant: folds the events into the
/// committed fault set, advances `seq` and `events_applied` by one
/// batch, refreshes the coherent snapshot when it is due, and marks the
/// tenant `Live`.
fn commit(core: &Core, state: &mut Tenant, events: &[FaultEvent]) {
    for &event in events {
        state.committed.apply(event);
    }
    let n = events.len() as u64;
    state.seq += 1;
    state.events_applied += n;
    if state.seq - state.snapshot.seq >= core.config.snapshot_every.max(1) {
        state.snapshot = CoherentSnapshot::capture(&state.engine, state.seq, state.events_applied);
    }
    state.health = TenantHealth::Live;
    core.stats.batches.fetch_add(1, Ordering::Relaxed);
    core.stats.events.fetch_add(n, Ordering::Relaxed);
    mocp_obs::counter!("serve.batches").inc();
    mocp_obs::counter!("serve.events").add(n);
}

/// Delivers one batch's coalesced delta to the tenant's subscribers.
/// Returns `(updates sent, updates dropped)`; disconnected subscribers
/// are unregistered.
fn fan_out(state: &mut Tenant, tenant: TenantId, delta: StatusDelta) -> (u64, u64) {
    if state.subscribers.is_empty() {
        return (0, 0);
    }
    let coalesced = delta.coalesced();
    if coalesced.is_empty() {
        return (0, 0);
    }
    mocp_obs::counter!("serve.fanout_deltas").add(coalesced.len() as u64);
    let seq = state.seq;
    let mut sent = 0;
    let mut dropped = 0;
    state.subscribers.retain(|subscriber| {
        let update = TenantUpdate {
            tenant,
            seq,
            delta: coalesced.clone(),
        };
        match subscriber.try_send(update) {
            Ok(()) => {
                sent += 1;
                true
            }
            Err(TrySendError::Full(_)) => {
                // A slow bounded subscriber loses this update instead of
                // stalling ingestion; the seq gap tells it so.
                dropped += 1;
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    });
    if dropped > 0 {
        mocp_obs::counter!("serve.fanout_dropped").add(dropped);
    }
    (sent, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_with_an_unrepresentable_deadline_means_no_deadline() {
        let service = MonitorService::start(ServeConfig::default().with_workers(1));
        assert!(service.create_tenant(1, Mesh2D::square(8)));
        let event = vec![FaultEvent::Inject(Coord::new(2, 2))];
        let forever = RetryPolicy::default().with_deadline(Duration::MAX);
        assert_eq!(service.ingest(1, event, &forever), Ok(()));
        assert!(service.quiesce_timeout(Duration::MAX));
        assert_eq!(service.counts(1).unwrap().faulty, 1);
    }
}
