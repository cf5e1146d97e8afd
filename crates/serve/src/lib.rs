//! # mocp_serve — sharded multi-tenant MFP monitoring service
//!
//! The paper's construction exists so a *live* mesh can keep routing
//! while faults arrive; the
//! [`IncrementalEngine`](mocp_incremental::IncrementalEngine) maintains
//! one mesh's minimum faulty polygons event by event. This crate turns that
//! single-mesh library into a service: **thousands of tenant meshes**
//! monitored concurrently, each absorbing its own
//! [`FaultEvent`](mesh2d::FaultEvent) stream while point queries are
//! answered from maintained state.
//!
//! Architecture (one [`MonitorService`]):
//!
//! * a **sharded registry** of engines — tenants hash onto mutex-striped
//!   shards, so an event batch being applied to one tenant only blocks
//!   queries that land on the *same shard*, never the whole service;
//! * one **submission path** — [`MonitorService::ingest`] routes a batch
//!   of events to the bounded MPSC queue ([`crossbeam::channel`]) of the
//!   worker that owns the tenant. One worker owns each tenant (by hash),
//!   so a tenant's events are applied **in arrival order**. A full queue
//!   is retried under a [`RetryPolicy`]: bounded sends with seeded
//!   decorrelated-jitter backoff, then [`IngestError::Saturated`] with
//!   the batch rolled back. [`RetryPolicy::unbounded`] waits instead;
//!   a zero deadline with zero retries never waits;
//! * **worker threads** drain the queues, apply each batch through the
//!   tenant's engine, and fan the batch's **coalesced**
//!   [`StatusDelta`](mesh2d::StatusDelta) (at most one transition per
//!   node, self-cancelling churn dropped) out to the tenant's
//!   subscribers;
//! * **point queries** — [`node_status`](MonitorService::node_status),
//!   [`region_of`](MonitorService::region_of),
//!   [`counts`](MonitorService::counts),
//!   [`polygons`](MonitorService::polygons) — read the maintained engine
//!   state under the shard lock: O(1) or output-proportional, no
//!   reconstruction, timed into the `serve.query.us` histogram.
//!
//! [`MonitorService::quiesce`] blocks until every ingested event has
//! been applied — the barrier the deterministic workload generator and
//! the sequential-equivalence tests stand on: after a quiesce, each
//! tenant is [`Live`](TenantHealth::Live) and its engine state equals a
//! fresh engine fed that tenant's event stream sequentially, no matter
//! how many ingest threads interleaved their submissions.
//!
//! ## Recovery
//!
//! The paper's polygons are a pure function of the fault set, and the
//! service leans on that for its one recovery mechanism:
//!
//! * each tenant keeps its last **committed fault set** beside its
//!   engine, and each worker applies every batch under
//!   [`catch_unwind`](std::panic::catch_unwind). A caught panic makes the
//!   worker rebuild the tenant's engine in place from the committed
//!   fault set plus the batch it still holds, so the batch is applied
//!   exactly once and the worker never dies;
//! * per-tenant **health** ([`TenantHealth`]) is surfaced through
//!   queries; a tenant caught mid-apply is `Rebuilding` and serves its
//!   last coherent snapshot instead of a half-applied engine, and
//!   poisoned locks are stripped, never propagated;
//! * [`MonitorService::quiesce_timeout`] bounds the drain barrier, and
//!   [`MonitorService::shutdown`] returns a [`ShutdownReport`] counting
//!   the panics absorbed and the events replayed;
//! * the [`chaos`] module drives all of it deterministically: seeded
//!   batch-panic plans, intake/recovery gates, and a quiet panic hook
//!   for tests.
//!
//! ```
//! use mesh2d::{Coord, FaultEvent, Mesh2D, NodeStatus};
//! use mocp_serve::{MonitorService, RetryPolicy, ServeConfig};
//!
//! let service = MonitorService::start(ServeConfig::default());
//! service.create_tenant(7, Mesh2D::square(16));
//! let updates = service.subscribe(7, None).unwrap();
//! service
//!     .ingest(7, vec![FaultEvent::Inject(Coord::new(3, 3))], &RetryPolicy::unbounded())
//!     .unwrap();
//! service.quiesce();
//! assert_eq!(service.node_status(7, Coord::new(3, 3)), Some(NodeStatus::Faulty));
//! assert_eq!(updates.recv().unwrap().delta.len(), 1);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
mod config;
mod registry;
mod service;

pub use chaos::{ChaosControl, ChaosPlan, KillMode, KillSpec};
pub use config::ServeConfig;
pub use registry::TenantHealth;
pub use service::{
    IngestError, MonitorService, RetryPolicy, ServiceStatsSnapshot, ShutdownReport, StatusSnapshot,
    TenantCounts, TenantId, TenantUpdate,
};
