//! End-to-end behaviour of [`MonitorService`]: ingestion, ordering,
//! queries, fan-out, backpressure and shutdown semantics.

use std::sync::Arc;
use std::time::Duration;

use mesh2d::{Connectivity, Coord, FaultEvent, Mesh2D, NodeStatus};
use mocp_incremental::IncrementalEngine;
use mocp_serve::{IngestError, MonitorService, RetryPolicy, ServeConfig};

fn small_config() -> ServeConfig {
    ServeConfig::default().with_shards(4).with_workers(2)
}

/// Ingests one batch, waiting as long as the owning queue stays full.
fn ingest(service: &MonitorService, tenant: u64, events: Vec<FaultEvent>) {
    service
        .ingest(tenant, events, &RetryPolicy::unbounded())
        .unwrap();
}

#[test]
fn create_tenant_rejects_duplicates_and_counts() {
    let service = MonitorService::start(small_config());
    assert_eq!(service.tenant_count(), 0);
    assert!(service.create_tenant(1, Mesh2D::square(8)));
    assert!(!service.create_tenant(1, Mesh2D::square(8)));
    assert!(service.create_tenant(2, Mesh2D::mesh(4, 6)));
    assert_eq!(service.tenant_count(), 2);
    service.shutdown();
}

#[test]
fn unknown_tenants_are_rejected_everywhere() {
    let service = MonitorService::start(small_config());
    let c = Coord::new(0, 0);
    assert_eq!(
        service.ingest(9, vec![FaultEvent::Inject(c)], &RetryPolicy::unbounded()),
        Err(IngestError::UnknownTenant(9))
    );
    assert_eq!(service.node_status(9, c), None);
    assert_eq!(service.region_of(9, c), None);
    assert_eq!(service.counts(9), None);
    assert_eq!(service.polygons(9), None);
    assert!(service.subscribe(9, None).is_none());
    service.shutdown();
}

#[test]
fn queries_match_a_sequentially_fed_engine() {
    let service = MonitorService::start(small_config());
    let mesh = Mesh2D::square(12);
    service.create_tenant(5, mesh);
    let events = vec![
        FaultEvent::Inject(Coord::new(2, 2)),
        FaultEvent::Inject(Coord::new(3, 2)),
        FaultEvent::Inject(Coord::new(2, 3)),
        FaultEvent::Inject(Coord::new(8, 8)),
        FaultEvent::Repair(Coord::new(3, 2)),
        FaultEvent::Inject(Coord::new(9, 9)),
    ];
    // Split across several batches; one submitting thread keeps order.
    for chunk in events.chunks(2) {
        ingest(&service, 5, chunk.to_vec());
    }
    service.quiesce();

    let mut reference = IncrementalEngine::new(Mesh2D::square(12));
    for &event in &events {
        reference.apply(event);
    }
    assert_eq!(service.polygons(5), Some(reference.polygons()));
    let counts = service.counts(5).unwrap();
    assert_eq!(counts.faulty, reference.faulty_count());
    assert_eq!(counts.disabled_nonfaulty, reference.disabled_nonfaulty());
    assert_eq!(counts.components, reference.component_count());
    assert_eq!(counts.events_applied, events.len() as u64);
    assert_eq!(counts.seq, 3, "three batches were applied");
    for x in 0..12 {
        for y in 0..12 {
            let c = Coord::new(x, y);
            assert_eq!(service.node_status(5, c), reference.status().get(c));
            assert_eq!(service.region_of(5, c), reference.region_of(c));
        }
    }
    service.shutdown();
}

#[test]
fn subscribers_get_coalesced_updates_with_contiguous_seq() {
    let service = MonitorService::start(small_config());
    service.create_tenant(1, Mesh2D::square(10));
    let updates = service.subscribe(1, None).unwrap();

    // Batch 1: one injection.
    ingest(&service, 1, vec![FaultEvent::Inject(Coord::new(4, 4))]);
    // Batch 2: self-cancelling churn on (6, 6) — must produce NO update.
    ingest(
        &service,
        1,
        vec![
            FaultEvent::Inject(Coord::new(6, 6)),
            FaultEvent::Repair(Coord::new(6, 6)),
        ],
    );
    // Batch 3: another injection.
    ingest(&service, 1, vec![FaultEvent::Inject(Coord::new(4, 5))]);
    service.quiesce();

    let first = updates.try_recv().expect("batch 1 produced an update");
    assert_eq!((first.tenant, first.seq), (1, 1));
    assert_eq!(
        first.delta.changes(),
        &[(Coord::new(4, 4), NodeStatus::Enabled, NodeStatus::Faulty)]
    );
    let third = updates.try_recv().expect("batch 3 produced an update");
    assert_eq!(third.seq, 3, "batch 2 coalesced to nothing and was skipped");
    assert!(third
        .delta
        .changes()
        .iter()
        .any(|&(c, _, new)| c == Coord::new(4, 5) && new == NodeStatus::Faulty));
    assert!(updates.try_recv().is_err(), "no further updates");

    let stats = service.stats();
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.events, 4);
    assert_eq!(stats.updates_sent, 2);
    assert_eq!(stats.updates_dropped, 0);
    service.shutdown();
}

#[test]
fn bounded_subscribers_drop_updates_instead_of_stalling() {
    let service = MonitorService::start(small_config());
    service.create_tenant(1, Mesh2D::square(32));
    let updates = service.subscribe(1, Some(1)).unwrap();

    // Ten delta-producing batches against a capacity-1 subscriber that
    // never reads: at least one lands, the rest are dropped, ingestion
    // finishes regardless.
    for i in 0..10i32 {
        ingest(
            &service,
            1,
            vec![FaultEvent::Inject(Coord::new(3 * (i % 10), 0))],
        );
    }
    service.quiesce();

    let stats = service.stats();
    assert_eq!(stats.updates_sent + stats.updates_dropped, 10);
    assert!(stats.updates_dropped >= 9, "capacity-1 buffer: {stats:?}");
    let got = updates.recv().unwrap();
    assert_eq!(got.seq, 1, "the buffered update is the oldest one");
    service.shutdown();
}

#[test]
fn dropped_subscribers_are_unregistered() {
    let service = MonitorService::start(small_config());
    service.create_tenant(1, Mesh2D::square(8));
    let updates = service.subscribe(1, None).unwrap();
    ingest(&service, 1, vec![FaultEvent::Inject(Coord::new(1, 1))]);
    service.quiesce();
    assert_eq!(service.stats().updates_sent, 1);
    drop(updates);
    ingest(&service, 1, vec![FaultEvent::Inject(Coord::new(5, 5))]);
    service.quiesce();
    let stats = service.stats();
    assert_eq!(stats.updates_sent, 1, "nobody left to deliver to");
    assert_eq!(stats.updates_dropped, 0, "disconnect is not a drop");
    service.shutdown();
}

#[test]
fn try_submit_surfaces_backpressure_without_losing_order() {
    // One worker with a single-batch queue: keep the worker busy long
    // enough and a non-blocking ingest (zero deadline, zero retries)
    // must eventually report saturation.
    let never_wait = RetryPolicy::default()
        .with_deadline(Duration::ZERO)
        .with_max_retries(0);
    let service = MonitorService::start(
        ServeConfig::default()
            .with_shards(1)
            .with_workers(1)
            .with_queue_capacity(1),
    );
    service.create_tenant(1, Mesh2D::square(64));
    let mut accepted = 0u64;
    let mut saw_backpressure = false;
    for wave in 0..200i32 {
        let x = wave % 64;
        let batch: Vec<FaultEvent> = (0..8)
            .map(|y| FaultEvent::Inject(Coord::new(x, 8 * y)))
            .collect();
        match service.ingest(1, batch, &never_wait) {
            Ok(()) => accepted += 8,
            Err(IngestError::Saturated { tenant: 1, .. }) => saw_backpressure = true,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    service.quiesce();
    assert_eq!(service.counts(1).unwrap().events_applied, accepted);
    assert!(
        saw_backpressure || accepted == 200 * 8,
        "either backpressure fired or the worker kept up with everything"
    );
    service.shutdown();
}

#[test]
fn shutdown_drains_queued_batches_and_drop_is_equivalent() {
    for explicit in [true, false] {
        let service = MonitorService::start(small_config());
        service.create_tenant(1, Mesh2D::square(16));
        let updates = service.subscribe(1, None).unwrap();
        for x in 0..10 {
            ingest(&service, 1, vec![FaultEvent::Inject(Coord::new(x, x))]);
        }
        // No quiesce: shutdown itself must drain the queues first.
        if explicit {
            service.shutdown();
        } else {
            drop(service);
        }
        assert_eq!(
            updates.try_iter().count(),
            10,
            "every queued batch was applied before the workers exited"
        );
        // The service is gone, so the fan-out senders are dropped too.
        assert!(updates.recv().is_err());
    }
}

#[test]
fn region_of_through_the_service_reflects_engine_semantics() {
    let service = MonitorService::start(small_config());
    service.create_tenant(1, Mesh2D::square(12));
    ingest(
        &service,
        1,
        vec![
            FaultEvent::Inject(Coord::new(2, 2)),
            FaultEvent::Inject(Coord::new(3, 3)),
            FaultEvent::Inject(Coord::new(3, 4)),
        ],
    );
    service.quiesce();
    let region = service
        .region_of(1, Coord::new(2, 2))
        .expect("faulty node is covered");
    assert!(
        region.contains(Coord::new(3, 4)),
        "8-connected faults share a polygon"
    );
    assert_eq!(
        service.region_of(1, Coord::new(10, 10)),
        None,
        "far-away enabled node is uncovered"
    );
    // The polygon is orthogonal convex over the component, consistent
    // with the snapshot query.
    assert_eq!(service.polygons(1).unwrap().len(), 1);
    let _ = Connectivity::Eight; // semantic anchor: components are 8-connected
    service.shutdown();
}

#[test]
fn concurrent_single_event_ingest_into_one_tenant_applies_every_batch() {
    // Four threads race single-node batches into one tenant owned by one
    // worker: every batch must be applied and credited, whatever order
    // the sends reach the queue in.
    let service = Arc::new(MonitorService::start(
        ServeConfig::default().with_shards(4).with_workers(1),
    ));
    assert!(service.create_tenant(1, Mesh2D::square(64)));
    let threads: Vec<_> = (0..4i32)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..256i32 {
                    let c = Coord::new(i % 64, 16 * t + i / 64);
                    ingest(&service, 1, vec![FaultEvent::Inject(c)]);
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    assert!(service.quiesce_timeout(Duration::from_secs(10)));
    assert_eq!(service.counts(1).unwrap().faulty, 1024);
}
