//! `serve_stream`: a `MonitorService` with 2 workers and 1000 tenants on
//! 16×16 meshes, fed clustered inject/repair churn (30% repairs) in
//! batches of 8 through `ingest`.
//!
//! Each round starts a fresh service and runs two phases over the same
//! pre-generated streams:
//!
//! * capacity: one closed-loop generator ingests the first part of every
//!   stream as fast as the service accepts it, then quiesces;
//!   throughput is events applied per second here;
//! * open loop: the generator ingests the rest at one fixed absolute
//!   event rate while a second thread issues point queries at a fixed
//!   rate and drains every tenant's unbounded subscription. A batch's
//!   visible latency runs from the time it was due to the time its
//!   update reached the subscriber thread, so generator stalls count.
//!
//! WAL, queueing, apply and fan-out do the work; the queries running
//! beside the writes make a gain for ingest that costs query latency
//! visible.

use crate::metrics::Outcome;
use crate::stats::{self, mean, median, percentile};
use crate::trace::{self, scoped, Span};
use crate::{finish_trace, Inputs, RunCfg};
use crossbeam::channel::Receiver;
use experiments::{tenant_events, ServeWorkloadConfig};
use faultgen::FaultDistribution;
use mesh2d::{Coord, FaultEvent, Mesh2D};
use mocp_incremental::IncrementalEngine;
use mocp_serve::{MonitorService, RetryPolicy, ServeConfig, TenantId, TenantUpdate};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Size {
    tenants: usize,
    mesh: u32,
    /// Batches per tenant in the capacity phase.
    capacity_batches: usize,
    /// Batches per tenant in the open-loop phase.
    open_batches: usize,
    /// Open-loop ingest rate, events per second.
    open_eps: f64,
    /// Point queries per second beside the open-loop ingest.
    query_rate: f64,
}

const BATCH: usize = 8;
const WORKERS: usize = 2;

fn size(cfg: &RunCfg) -> Size {
    if cfg.quick {
        Size {
            tenants: 40,
            mesh: 16,
            capacity_batches: 3,
            open_batches: 3,
            open_eps: 20_000.0,
            query_rate: 2_000.0,
        }
    } else {
        Size {
            tenants: 1000,
            mesh: 16,
            capacity_batches: 6,
            open_batches: 6,
            open_eps: 160_000.0,
            query_rate: 10_000.0,
        }
    }
}

/// The benchmark's record of one round.
#[derive(Default)]
struct Round {
    setup_s: f64,
    capacity_s: f64,
    capacity_events: u64,
    /// Accepted batches per tenant, in ingest order (batch indices into
    /// the tenant's stream).
    accepted: Vec<Vec<usize>>,
    saturated: u64,
    /// Per open-loop batch: (tenant, seq, due offset, lateness, call).
    open: Vec<OpenBatch>,
    /// Every update received: (tenant, seq, time since round origin).
    received: Vec<(TenantId, u64, Duration)>,
    query_us: Vec<f64>,
    /// Spans the subscriber thread recorded (traced rounds only).
    subscriber_spans: Vec<Span>,
    backlog_max: u64,
    updates_sent: u64,
    retries: u64,
}

struct OpenBatch {
    tenant: TenantId,
    seq: u64,
    due: Duration,
    late_us: f64,
    call_us: f64,
}

/// Drains every subscription without blocking.
fn drain(
    receivers: &[Receiver<TenantUpdate>],
    origin: Instant,
    into: &mut Vec<(TenantId, u64, Duration)>,
) {
    for rx in receivers {
        while let Ok(update) = rx.try_recv() {
            into.push((update.tenant, update.seq, origin.elapsed()));
        }
    }
}

/// One fresh service through both phases. The service is returned still
/// running so the last round can be checked against the replay.
fn round(streams: &[Vec<FaultEvent>], size: &Size, seed: u64) -> (Round, MonitorService) {
    let mut r = Round {
        accepted: vec![Vec::new(); streams.len()],
        ..Round::default()
    };
    // The closed loop waits for the service as long as it takes; the
    // open loop gives up after the default deadline, and such a batch
    // counts as failed.
    let patient = RetryPolicy::default()
        .with_seed(seed)
        .with_deadline(Duration::from_secs(10))
        .with_max_retries(u32::MAX);
    let open = RetryPolicy::default().with_seed(seed);
    let t = Instant::now();
    let (service, receivers) = scoped("serve.start", || {
        let service = MonitorService::start(ServeConfig::default().with_workers(WORKERS));
        for tenant in 0..streams.len() {
            service.create_tenant(tenant as TenantId, Mesh2D::square(size.mesh));
        }
        let receivers: Vec<_> = (0..streams.len())
            .map(|tenant| {
                service
                    .subscribe(tenant as TenantId, None)
                    .expect("tenant exists")
            })
            .collect();
        (service, receivers)
    });
    r.setup_s = stats::secs(t);
    let origin = Instant::now();
    let ingest = |r: &mut Round, tenant: usize, batch: usize, policy: &RetryPolicy| {
        let events = streams[tenant][batch * BATCH..(batch + 1) * BATCH].to_vec();
        match scoped("serve.ingest", || {
            service.ingest(tenant as TenantId, events, policy)
        }) {
            Ok(()) => {
                r.accepted[tenant].push(batch);
                Ok(())
            }
            Err(_) => {
                r.saturated += 1;
                Err(())
            }
        }
    };

    // Capacity phase: closed loop, batch-major over the tenants.
    let t = Instant::now();
    for batch in 0..size.capacity_batches {
        for tenant in 0..streams.len() {
            if ingest(&mut r, tenant, batch, &patient).is_ok() {
                r.capacity_events += BATCH as u64;
            }
        }
    }
    scoped("serve.quiesce", || service.quiesce());
    r.capacity_s = stats::secs(t);
    scoped("bench.drain", || drain(&receivers, origin, &mut r.received));

    // Open loop: a fixed schedule, queries and subscriber draining on a
    // second thread.
    let interval = Duration::from_secs_f64(BATCH as f64 / size.open_eps);
    let query_interval = Duration::from_secs_f64(1.0 / size.query_rate);
    let stop = AtomicBool::new(false);
    let tenants = streams.len();
    let received = std::thread::scope(|s| {
        let subscriber = s.spawn(|| {
            let mut received = Vec::new();
            let mut query_us = Vec::new();
            let mut next_query = Instant::now();
            let mut i = 0u64;
            loop {
                let stopping = stop.load(Ordering::SeqCst);
                scoped("bench.drain", || drain(&receivers, origin, &mut received));
                if stopping {
                    break;
                }
                let now = Instant::now();
                if now >= next_query {
                    let tenant = (i as usize * 7919 % tenants) as TenantId;
                    let side = size.mesh as u64;
                    let c = Coord::new((i % side) as i32, (i / side % side) as i32);
                    let t = Instant::now();
                    scoped("serve.query", || match i % 3 {
                        0 => drop(service.node_status(tenant, c)),
                        1 => drop(service.region_of(tenant, c)),
                        _ => drop(service.counts(tenant)),
                    });
                    query_us.push(t.elapsed().as_secs_f64() * 1e6);
                    i += 1;
                    next_query += query_interval;
                } else {
                    std::thread::sleep((next_query - now).min(Duration::from_micros(100)));
                }
            }
            (received, query_us, trace::take_thread_spans())
        });
        let start = origin.elapsed() + Duration::from_millis(1);
        let mut k = 0u32;
        let mut ingested = r.accepted.iter().map(Vec::len).sum::<usize>() as u64;
        for batch in size.capacity_batches..size.capacity_batches + size.open_batches {
            for tenant in 0..tenants {
                let due = start + interval * k;
                k += 1;
                let now = origin.elapsed();
                if now < due {
                    scoped("bench.pace", || std::thread::sleep(due - now));
                }
                let sent = origin.elapsed();
                let ok = ingest(&mut r, tenant, batch, &open).is_ok();
                let done = origin.elapsed();
                if ok {
                    ingested += 1;
                    r.open.push(OpenBatch {
                        tenant: tenant as TenantId,
                        seq: r.accepted[tenant].len() as u64,
                        due,
                        late_us: (sent.saturating_sub(due)).as_secs_f64() * 1e6,
                        call_us: (done - sent).as_secs_f64() * 1e6,
                    });
                }
                let applied = service.stats().batches;
                r.backlog_max = r.backlog_max.max(ingested.saturating_sub(applied));
            }
        }
        scoped("serve.quiesce", || service.quiesce());
        stop.store(true, Ordering::SeqCst);
        subscriber.join().expect("subscriber thread panicked")
    });
    let (received, query_us, subscriber_spans) = received;
    r.received.extend(received);
    r.query_us = query_us;
    r.subscriber_spans = subscriber_spans;
    let stats = service.stats();
    r.updates_sent = stats.updates_sent;
    r.retries = stats.ingest_retries;
    (r, service)
}

/// The sequential reference: each tenant's accepted batches through a
/// fresh engine, one `delta_batch` per batch.
struct Replay {
    engines: Vec<IncrementalEngine>,
    /// Per tenant, the seqs whose batch changed something (the updates a
    /// gap-free subscription must carry).
    visible: Vec<Vec<u64>>,
    /// Apply time per (tenant, seq), microseconds.
    apply_us: Vec<Vec<f64>>,
}

fn replay(streams: &[Vec<FaultEvent>], accepted: &[Vec<usize>], mesh: u32) -> Replay {
    let mut out = Replay {
        engines: Vec::new(),
        visible: Vec::new(),
        apply_us: Vec::new(),
    };
    for (tenant, batches) in accepted.iter().enumerate() {
        let mut engine = IncrementalEngine::new(Mesh2D::square(mesh));
        let mut visible = Vec::new();
        let mut apply_us = Vec::new();
        for (i, &b) in batches.iter().enumerate() {
            let events = &streams[tenant][b * BATCH..(b + 1) * BATCH];
            let t = Instant::now();
            let delta = scoped("incremental.apply", || {
                engine.delta_batch(events.iter().copied())
            });
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !delta.is_empty() {
                visible.push(i as u64 + 1);
            }
        }
        out.engines.push(engine);
        out.visible.push(visible);
        out.apply_us.push(apply_us);
    }
    out
}

/// Every subscription's seqs must be exactly the batches that changed
/// something, in order, with no gap.
pub fn check_seqs(
    received: &[(TenantId, u64, Duration)],
    expected: &[Vec<u64>],
) -> Result<(), String> {
    let mut got = vec![Vec::new(); expected.len()];
    for &(tenant, seq, _) in received {
        got[tenant as usize].push(seq);
    }
    for (tenant, (got, want)) in got.iter().zip(expected).enumerate() {
        if got != want {
            let missing = want.iter().find(|s| !got.contains(s));
            return Err(format!(
                "tenant {tenant}: subscription carried seqs {got:?}, expected {want:?} (first missing {missing:?})"
            ));
        }
    }
    Ok(())
}

/// After quiesce, every tenant's served state equals the replay.
fn check_state(
    service: &MonitorService,
    replay: &Replay,
    accepted: &[Vec<usize>],
) -> Result<(), String> {
    for (tenant, engine) in replay.engines.iter().enumerate() {
        let id = tenant as TenantId;
        let counts = scoped("serve.query", || service.counts(id))
            .ok_or(format!("tenant {tenant} missing"))?;
        let same = counts.faulty == engine.faulty_count()
            && counts.disabled_nonfaulty == engine.disabled_nonfaulty()
            && counts.components == engine.component_count()
            && counts.events_applied == engine.stats().events
            && counts.seq == accepted[tenant].len() as u64;
        if !same {
            return Err(format!(
                "tenant {tenant}: served counts {counts:?} differ from the sequential replay"
            ));
        }
        if scoped("serve.query", || service.polygons(id)) != Some(engine.polygons()) {
            return Err(format!(
                "tenant {tenant}: served polygons differ from the sequential replay"
            ));
        }
    }
    Ok(())
}

/// What the benchmark keeps of one round once its subscriptions are
/// checked. Latency samples are kept for the first [`SAMPLED_ROUNDS`]
/// rounds only, so memory does not grow with the number of rounds.
#[derive(Default)]
struct Summary {
    setup_s: f64,
    capacity_s: f64,
    capacity_events: u64,
    attempted: u64,
    failed: u64,
    saturated: u64,
    backlog_max: u64,
    updates_sent: u64,
    retries: u64,
    /// The round's 95th-percentile point-query latency (every round).
    query_p95_us: f64,
    visible_us: Vec<f64>,
    wait_us: Vec<f64>,
    call_us: Vec<f64>,
    late_us: Vec<f64>,
    query_us: Vec<f64>,
    subscriber_spans: Vec<Span>,
}

const SAMPLED_ROUNDS: usize = 10;

/// The replay of one round's accepted batches, reused across rounds that
/// accepted the same batches.
fn replay_of<'a>(
    cache: &'a mut Vec<(Vec<Vec<usize>>, Replay)>,
    streams: &[Vec<FaultEvent>],
    size: &Size,
    accepted: &[Vec<usize>],
) -> &'a Replay {
    let i = match cache.iter().position(|(a, _)| a == accepted) {
        Some(i) => i,
        None => {
            cache.push((accepted.to_vec(), replay(streams, accepted, size.mesh)));
            cache.len() - 1
        }
    };
    &cache[i].1
}

/// Checks one round's subscriptions against the replay: each must carry
/// exactly the batches that changed something. A batch never made
/// visible counts as failed, like a `Saturated` one. Derives each
/// open-loop batch's visible latency and its queue wait: visible latency
/// minus the generator's lateness, the ingest call and the replayed
/// apply time.
fn digest(r: Round, reference: &Replay, sampled: bool, errors: &mut Vec<String>) -> Summary {
    let accepted: u64 = r.accepted.iter().map(|a| a.len() as u64).sum();
    let mut s = Summary {
        setup_s: r.setup_s,
        capacity_s: r.capacity_s,
        capacity_events: r.capacity_events,
        attempted: accepted + r.saturated,
        failed: r.saturated,
        saturated: r.saturated,
        backlog_max: r.backlog_max,
        updates_sent: r.updates_sent,
        retries: r.retries,
        subscriber_spans: r.subscriber_spans,
        ..Summary::default()
    };
    if let Err(e) = check_seqs(&r.received, &reference.visible) {
        errors.push(e);
        let got: HashSet<(TenantId, u64)> = r.received.iter().map(|&(t, q, _)| (t, q)).collect();
        s.failed += reference
            .visible
            .iter()
            .enumerate()
            .flat_map(|(t, seqs)| seqs.iter().map(move |&q| (t as TenantId, q)))
            .filter(|k| !got.contains(k))
            .count() as u64;
    }
    s.query_p95_us = percentile(&r.query_us, 95.0);
    if sampled {
        let arrival: HashMap<(TenantId, u64), Duration> =
            r.received.iter().map(|&(t, q, at)| ((t, q), at)).collect();
        for b in &r.open {
            s.call_us.push(b.call_us);
            s.late_us.push(b.late_us);
            if let Some(&at) = arrival.get(&(b.tenant, b.seq)) {
                let visible = at.saturating_sub(b.due).as_secs_f64() * 1e6;
                let apply = reference.apply_us[b.tenant as usize][b.seq as usize - 1];
                s.visible_us.push(visible);
                s.wait_us.push(visible - b.late_us - b.call_us - apply);
            }
        }
        s.query_us = r.query_us;
    }
    s
}

/// Rounds until the budget is spent, each digested as it ends; the last
/// round's service is returned running, with the batches it accepted.
struct Rounds {
    summaries: Vec<Summary>,
    service: MonitorService,
    accepted: Vec<Vec<usize>>,
}

fn rounds_for(
    budget: Duration,
    streams: &[Vec<FaultEvent>],
    size: &Size,
    seed: u64,
    errors: &mut Vec<String>,
) -> Rounds {
    let mut cache = Vec::new();
    let mut summaries = Vec::new();
    let mut last: Option<(MonitorService, Vec<Vec<usize>>)> = None;
    let start = Instant::now();
    while summaries.is_empty() || start.elapsed() < budget {
        if let Some((service, _)) = last.take() {
            shut_down(service, errors);
        }
        let (r, service) = round(streams, size, seed);
        let accepted = r.accepted.clone();
        let reference = replay_of(&mut cache, streams, size, &accepted);
        let sampled = summaries.len() < SAMPLED_ROUNDS;
        summaries.push(digest(r, reference, sampled, errors));
        last = Some((service, accepted));
    }
    let (service, accepted) = last.expect("at least one round");
    Rounds {
        summaries,
        service,
        accepted,
    }
}

/// Shuts a round's service down; a worker that panicked is an error.
fn shut_down(service: MonitorService, errors: &mut Vec<String>) {
    let report = scoped("serve.shutdown", || service.shutdown());
    if report.panicked_workers > 0 {
        errors.push(format!("{} workers panicked", report.panicked_workers));
    }
}

/// After quiesce, the last round's served state must equal the replay;
/// shuts the service down and fills the engine counters.
fn finish(out: &mut Outcome, streams: &[Vec<FaultEvent>], size: &Size, rounds: Rounds) {
    let reference = replay(streams, &rounds.accepted, size.mesh);
    if let Err(e) = check_state(&rounds.service, &reference, &rounds.accepted) {
        out.errors.push(e);
    }
    shut_down(rounds.service, &mut out.errors);
    let apply_us: Vec<f64> = reference.apply_us.iter().flatten().copied().collect();
    out.set("incremental.apply_p50_us", median(&apply_us));
    out.set("incremental.apply_p99_us", percentile(&apply_us, 99.0));
    let sum =
        |f: fn(&IncrementalEngine) -> u64| reference.engines.iter().map(f).sum::<u64>() as f64;
    out.set("incremental.merges", sum(|e| e.stats().merges));
    out.set("incremental.splits", sum(|e| e.stats().splits));
    out.set("incremental.recomputes", sum(|e| e.stats().recomputes));
    out.set("incremental.cache_hits", sum(|e| e.stats().cache_hits));
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Inputs, Outcome) {
    let mut out = Outcome::default();
    let size = size(cfg);
    let per_tenant = (size.capacity_batches + size.open_batches) * BATCH;
    let workload = ServeWorkloadConfig {
        tenants: size.tenants,
        mesh_size: size.mesh,
        events_per_tenant: per_tenant,
        queries_per_tenant: 0,
        batch_size: BATCH,
        repair_fraction: 0.3,
        distribution: FaultDistribution::Clustered,
        seed: cfg.seed,
        ingest_threads: 1,
        verify: false,
    };
    let inputs = vec![
        ("tenants", size.tenants.to_string()),
        ("mesh", format!("{0}x{0}", size.mesh)),
        ("events_per_tenant", per_tenant.to_string()),
        ("batch", BATCH.to_string()),
        ("repair_fraction", "0.3".to_string()),
        ("distribution", "clustered".to_string()),
        ("workers", WORKERS.to_string()),
        (
            "capacity_batches_per_tenant",
            size.capacity_batches.to_string(),
        ),
        ("open_loop_eps", size.open_eps.to_string()),
        ("query_rate_per_s", size.query_rate.to_string()),
    ];
    let generate = || -> Vec<Vec<FaultEvent>> {
        (0..size.tenants)
            .map(|t| tenant_events(&workload, t as TenantId))
            .collect()
    };
    let streams = generate();

    let mut errors = Vec::new();
    let rounds = rounds_for(cfg.budget(), &streams, &size, cfg.seed, &mut errors);
    let summaries = if cfg.trace {
        let Rounds {
            summaries, service, ..
        } = rounds;
        shut_down(service, &mut errors);
        trace::set_enabled(true);
        let root = trace::span("run");
        scoped("experiments.tenant_events", || drop(generate()));
        let mut traced = rounds_for(cfg.budget(), &streams, &size, cfg.seed, &mut errors);
        let traced_summaries = std::mem::take(&mut traced.summaries);
        scoped("bench.check", || finish(&mut out, &streams, &size, traced));
        drop(root);
        trace::set_enabled(false);
        let subscriber: Vec<Span> = traced_summaries
            .iter()
            .flat_map(|r| r.subscriber_spans.iter().cloned())
            .collect();
        let spans = [
            ("main", trace::take_thread_spans()),
            ("subscriber", subscriber),
        ];
        let cap = |rs: &[Summary]| median(&rs.iter().map(|r| r.capacity_s).collect::<Vec<_>>());
        finish_trace(
            &mut out,
            "serve_stream",
            cfg.seed,
            &spans,
            cap(&summaries),
            cap(&traced_summaries),
        );
        summaries
    } else {
        let mut rounds = rounds;
        let summaries = std::mem::take(&mut rounds.summaries);
        finish(&mut out, &streams, &size, rounds);
        summaries
    };
    out.errors.extend(errors);

    let rounds = &summaries;
    // Means over the timed phase, as in `figures_2d`.
    let eps = rounds.iter().map(|r| r.capacity_events).sum::<u64>() as f64
        / rounds.iter().map(|r| r.capacity_s).sum::<f64>();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    out.set("setup_s", median(&setups));
    out.set("throughput", eps);
    out.set("serve.ingest_eps", eps);
    let query_p95: Vec<f64> = rounds.iter().map(|r| r.query_p95_us).collect();
    out.set("latency_p95_us", mean(&query_p95));
    let all =
        |f: fn(&Summary) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let (visible, query, call) = (
        all(|r| &r.visible_us),
        all(|r| &r.query_us),
        all(|r| &r.call_us),
    );
    out.set("serve.visible_p50_us", median(&visible));
    out.set("serve.visible_p99_us", percentile(&visible, 99.0));
    out.set("serve.queue_wait_p50_us", median(&all(|r| &r.wait_us)));
    out.set("serve.query_p50_us", median(&query));
    out.set("serve.query_p99_us", percentile(&query, 99.0));
    out.set("serve.ingest_call_p50_us", median(&call));
    out.set("serve.ingest_call_p99_us", percentile(&call, 99.0));
    out.set(
        "serve.gen_late_p99_us",
        percentile(&all(|r| &r.late_us), 99.0),
    );
    let backlog = rounds.iter().map(|r| r.backlog_max).max().unwrap_or(0);
    out.set("serve.backlog_max", backlog as f64);
    let per_round = |f: fn(&Summary) -> f64| mean(&rounds.iter().map(f).collect::<Vec<_>>());
    out.set("serve.updates_sent", per_round(|r| r.updates_sent as f64));
    out.set("serve.ingest_retries", per_round(|r| r.retries as f64));
    out.set("serve.ingest_saturated", per_round(|r| r.saturated as f64));
    out.attempted = rounds.iter().map(|r| r.attempted).sum();
    out.failed = rounds.iter().map(|r| r.failed).sum();
    out.set(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    eprintln!(
        "serve: {} rounds, capacity {:.0} events/s, visible p50 {:.1} us p99 {:.1} us, query p50 {:.2} us p99 {:.2} us",
        rounds.len(),
        eps,
        out.values["serve.visible_p50_us"],
        out.values["serve.visible_p99_us"],
        out.values["serve.query_p50_us"],
        out.values["serve.query_p99_us"]
    );
    (inputs, out)
}
