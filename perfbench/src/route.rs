//! `route_clustered`: `ExtendedECube::route_traced` over seeded random
//! pairs on 30×30 meshes with clustered faults at 10% density, for FB and
//! CMFP regions. The delivered routes feed a `ChannelDependencyGraph`.
//!
//! The detour search does most of the work here. Some connected pairs
//! come back `Unreachable` after walking the router's whole step budget;
//! each such pair costs a large, fixed time, and how many a seed's fault
//! sets produce varies far more between seeds than any bound allows. So
//! throughput counts routed pairs per second of the time spent routing
//! them, and the unrouted pairs are reported as failed operations with
//! their own latency.

use crate::metrics::Outcome;
use crate::stats::{self, mean, median, percentile};
use crate::trace::{self, scoped};
use crate::{finish_trace, Inputs, RunCfg};
use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{
    ChannelDependencyGraph, ExtendedECube, PairSample, RegionMap, RouteError, RoutePath,
    TracedRoute,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const MODELS: [(&str, &str); 2] = [("FB", "fblock.fb"), ("CMFP", "core.cmfp")];

struct Size {
    mesh: u32,
    faults: usize,
    configs: usize,
    pairs: usize,
    deadlock_configs: usize,
    deadlock_pairs: usize,
}

fn size(cfg: &RunCfg) -> Size {
    if cfg.quick {
        Size {
            mesh: 16,
            faults: 20,
            configs: 3,
            pairs: 60,
            deadlock_configs: 1,
            deadlock_pairs: 60,
        }
    } else {
        Size {
            mesh: 30,
            faults: 90,
            configs: 192,
            pairs: 10,
            deadlock_configs: 4,
            deadlock_pairs: 250,
        }
    }
}

/// One model's network over one fault set.
struct Network {
    status: StatusMap,
    regions: RegionMap,
    /// Connected-component label of every enabled node (`u32::MAX` for
    /// excluded nodes), from the benchmark's own BFS.
    component: Vec<u32>,
}

struct Config {
    networks: Vec<Network>,
    pairs: PairSample,
    /// The denser sample whose routes build the dependency graphs; empty
    /// for all but the first few fault sets.
    deadlock_pairs: PairSample,
}

/// Labels the 4-connected components of the enabled nodes.
fn components(mesh: &Mesh2D, status: &StatusMap) -> Vec<u32> {
    let mut label = vec![u32::MAX; mesh.node_count()];
    let mut next = 0;
    let mut queue = VecDeque::new();
    for start in mesh.nodes() {
        if status.status(start).is_excluded() || label[mesh.index_of(start)] != u32::MAX {
            continue;
        }
        label[mesh.index_of(start)] = next;
        queue.push_back(start);
        while let Some(c) = queue.pop_front() {
            for n in c.neighbors4() {
                if mesh.contains(n)
                    && !status.status(n).is_excluded()
                    && label[mesh.index_of(n)] == u32::MAX
                {
                    label[mesh.index_of(n)] = next;
                    queue.push_back(n);
                }
            }
        }
        next += 1;
    }
    label
}

/// A returned path must start at the source, end at the destination and
/// step between enabled 4-neighbours, one virtual channel per hop.
pub fn validate_path(
    mesh: &Mesh2D,
    status: &StatusMap,
    src: Coord,
    dst: Coord,
    path: &RoutePath,
) -> Result<(), String> {
    let enabled = |c: Coord| mesh.contains(c) && !status.status(c).is_excluded();
    if path.hops.first() != Some(&src) || path.hops.last() != Some(&dst) {
        return Err(format!(
            "path {src:?}->{dst:?} does not run from source to destination"
        ));
    }
    if path.channels.len() + 1 != path.hops.len() {
        return Err(format!(
            "path {src:?}->{dst:?} has {} channels for {} hops",
            path.channels.len(),
            path.len()
        ));
    }
    if let Some(&c) = path.hops.iter().find(|&&c| !enabled(c)) {
        return Err(format!("path {src:?}->{dst:?} visits excluded node {c:?}"));
    }
    if let Some(w) = path.hops.windows(2).find(|w| !w[0].is_neighbor4(w[1])) {
        return Err(format!(
            "path {src:?}->{dst:?} jumps from {:?} to {:?}",
            w[0], w[1]
        ));
    }
    Ok(())
}

/// What routing one (configuration, model) network's pairs returned.
type Routes = Vec<Result<TracedRoute, RouteError>>;

/// One pass's timings and results.
#[derive(Default)]
struct Pass {
    routes: Vec<Routes>,
    ok_us: Vec<f64>,
    fail_us: Vec<f64>,
    ok_s: f64,
    routed: u64,
    calls: u64,
}

/// Routes every pair of every network. Given the first pass, pairs it
/// found `Unreachable` are not routed again: the result repeats, and a
/// connected pair the router gives up on costs its whole step budget.
fn route_all(mesh: &Mesh2D, configs: &[Config], first: Option<&Pass>) -> Pass {
    let mut pass = Pass::default();
    let networks = configs
        .iter()
        .flat_map(|c| c.networks.iter().map(move |net| (net, &c.pairs)));
    for (i, (net, pairs)) in networks.enumerate() {
        let router = ExtendedECube::with_regions(mesh, &net.status, &net.regions);
        let mut routes = Vec::with_capacity(pairs.len());
        for (j, (src, dst)) in pairs.iter().enumerate() {
            if let Some(Err(RouteError::Unreachable)) = first.map(|f| &f.routes[i][j]) {
                routes.push(Err(RouteError::Unreachable));
                continue;
            }
            let t = Instant::now();
            let r = scoped("meshroute.route", || router.route_traced(src, dst));
            let dt = t.elapsed().as_secs_f64();
            pass.calls += 1;
            match &r {
                Ok(_) => {
                    pass.ok_s += dt;
                    pass.routed += 1;
                    pass.ok_us.push(dt * 1e6);
                }
                Err(RouteError::Unreachable) => pass.fail_us.push(dt * 1e6),
                Err(_) => {}
            }
            routes.push(r);
        }
        pass.routes.push(routes);
    }
    pass
}

/// The timed phase: a first pass over every pair, then passes that skip
/// the pairs it found unreachable, until `budget` is spent.
struct Routing {
    first: Pass,
    pass_s: Vec<f64>,
    /// Routed pairs and the time spent routing them, over every pass.
    routed: u64,
    ok_s: f64,
    /// The 95th-percentile time of a call that routes, per pass.
    ok_p95_us: Vec<f64>,
    ok_us: Vec<f64>,
    same: bool,
}

fn timed_routing(budget: Duration, mesh: &Mesh2D, configs: &[Config]) -> Routing {
    let mut first: Option<Pass> = None;
    let mut routing = Routing {
        first: Pass::default(),
        pass_s: Vec::new(),
        routed: 0,
        ok_s: 0.0,
        ok_p95_us: Vec::new(),
        ok_us: Vec::new(),
        same: true,
    };
    let passes = stats::timed_passes(budget, 2, |i| {
        let mut pass = route_all(mesh, configs, first.as_ref());
        routing.ok_p95_us.push(percentile(&pass.ok_us, 95.0));
        // Latencies from the first ten passes; keeping every pass's
        // would make the memory footprint depend on the pass count.
        if i < 10 {
            routing.ok_us.append(&mut pass.ok_us);
        }
        routing.routed += pass.routed;
        routing.ok_s += pass.ok_s;
        match &first {
            None => first = Some(pass),
            Some(f) => routing.same &= f.routes == pass.routes,
        }
    });
    routing.pass_s = passes.iter().map(|(s, _)| *s).collect();
    routing.first = first.expect("at least one pass");
    routing
}

/// Exact counts of one pass, from the checks.
#[derive(Default)]
struct Counts {
    connected: u64,
    unrouted_connected: u64,
    invalid: u64,
    detours: u64,
    fallbacks: u64,
    abnormal_hops: u64,
    stretch: Vec<f64>,
}

/// Validates one network's routes against the benchmark's BFS, counts
/// them, and returns the channel dependency graph of the valid ones.
fn tally(
    mesh: &Mesh2D,
    net: &Network,
    model: &str,
    pairs: &PairSample,
    routes: &Routes,
    counts: &mut Counts,
    errors: &mut Vec<String>,
) -> ChannelDependencyGraph {
    let mut cdg = ChannelDependencyGraph::new();
    for ((src, dst), r) in pairs.iter().zip(routes) {
        let (a, b) = (
            net.component[mesh.index_of(src)],
            net.component[mesh.index_of(dst)],
        );
        let connected = a != u32::MAX && a == b;
        counts.connected += connected as u64;
        match r {
            Ok(traced) => {
                if let Err(e) = validate_path(mesh, &net.status, src, dst, &traced.path) {
                    counts.invalid += 1;
                    errors.push(format!("{model}: {e}"));
                    continue;
                }
                counts.detours += traced.detoured.len() as u64;
                counts.fallbacks += traced.used_fallback as u64;
                counts.abnormal_hops += traced.path.abnormal_hops as u64;
                counts.stretch.push(traced.path.stretch());
                scoped("meshroute.cdg", || cdg.add_route(&traced.path));
            }
            Err(RouteError::Unreachable) if connected => counts.unrouted_connected += 1,
            Err(RouteError::Unreachable) => {}
            Err(RouteError::SourceExcluded | RouteError::DestinationExcluded) => {
                if a != u32::MAX && b != u32::MAX {
                    errors.push(format!(
                        "{model}: {src:?}->{dst:?} reported an enabled endpoint as excluded"
                    ));
                }
            }
        }
    }
    cdg
}

/// Checks every route of the first timed pass.
fn check(mesh: &Mesh2D, configs: &[Config], pass: &Pass, errors: &mut Vec<String>) -> Counts {
    let mut counts = Counts::default();
    let mut routes = pass.routes.iter();
    for config in configs {
        for (m, net) in config.networks.iter().enumerate() {
            let routes = routes.next().expect("one route list per network");
            tally(
                mesh,
                net,
                MODELS[m].0,
                &config.pairs,
                routes,
                &mut counts,
                errors,
            );
        }
    }
    counts
}

/// Routes the denser deadlock sample of the first few fault sets and
/// counts, per model, the networks whose channel dependency graph is
/// acyclic. The timed sample is too sparse per fault set to close
/// dependency cycles, so it would hide cyclic graphs.
fn cdg_check(mesh: &Mesh2D, configs: &[Config], errors: &mut Vec<String>) -> ([u64; 2], Counts) {
    let mut acyclic = [0u64; 2];
    let mut counts = Counts::default();
    for config in configs.iter().filter(|c| !c.deadlock_pairs.is_empty()) {
        for (m, net) in config.networks.iter().enumerate() {
            let router = ExtendedECube::with_regions(mesh, &net.status, &net.regions);
            let routes: Routes = config
                .deadlock_pairs
                .iter()
                .map(|(src, dst)| scoped("meshroute.route", || router.route_traced(src, dst)))
                .collect();
            let cdg = tally(
                mesh,
                net,
                MODELS[m].0,
                &config.deadlock_pairs,
                &routes,
                &mut counts,
                errors,
            );
            acyclic[m] += scoped("meshroute.cdg", || cdg.is_acyclic()) as u64;
        }
    }
    (acyclic, counts)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Inputs, Outcome) {
    let mut out = Outcome::default();
    let size = size(cfg);
    let mesh = Mesh2D::square(size.mesh);
    let inputs = vec![
        ("mesh", format!("{0}x{0}", size.mesh)),
        ("faults", format!("{} clustered", size.faults)),
        ("fault_sets", size.configs.to_string()),
        ("pairs_per_fault_set", format!("{} random", size.pairs)),
        (
            "deadlock_sample",
            format!(
                "{} random pairs on each of the first {} fault sets",
                size.deadlock_pairs, size.deadlock_configs
            ),
        ),
        ("models", "FB,CMFP".to_string()),
    ];
    let registry = mocp_core::standard_registry();

    // Set-up: every fault set, both models' regions and region maps, the
    // pair samples and the reference connectivity, repeated; the median
    // is `setup_s`.
    let setup = || -> Vec<Config> {
        (0..size.configs)
            .map(|k| {
                let seed = stats::mix(cfg.seed, k as u64);
                let injector = scoped("faultgen.inject", || {
                    let mut injector = FaultInjector::new(mesh, FaultDistribution::Clustered, seed);
                    injector.inject_up_to(size.faults);
                    injector
                });
                let networks = MODELS
                    .iter()
                    .map(|&(model, span)| {
                        let outcome = scoped(span, || {
                            registry
                                .build(model)
                                .expect("paper model")
                                .construct(&mesh, injector.faults())
                        });
                        let regions = scoped("meshroute.regionmap", || {
                            RegionMap::from_status(&mesh, &outcome.status)
                        });
                        let component = scoped("bench.bfs", || components(&mesh, &outcome.status));
                        Network {
                            status: outcome.status,
                            regions,
                            component,
                        }
                    })
                    .collect();
                let pairs = PairSample::random(&mesh, size.pairs, stats::mix(seed, 0x9A1E));
                let deadlock = if k < size.deadlock_configs {
                    size.deadlock_pairs
                } else {
                    0
                };
                let deadlock_pairs = PairSample::random(&mesh, deadlock, stats::mix(seed, 0xCD6));
                Config {
                    networks,
                    pairs,
                    deadlock_pairs,
                }
            })
            .collect()
    };
    let (configs, setup_s) = stats::repeat_setup(cfg.setup_reps(), setup);
    out.set("setup_s", setup_s);

    // Timed: every pair of every network, repeatedly, until the budget
    // is spent.
    let routing = timed_routing(cfg.budget(), &mesh, &configs);
    let first = &routing.first;
    // Means over the timed phase, as in `figures_2d`.
    let pairs_per_s = routing.routed as f64 / routing.ok_s;
    out.set("throughput", pairs_per_s);
    out.set("route.pairs_per_s", pairs_per_s);
    out.set("latency_p95_us", mean(&routing.ok_p95_us));
    out.set("meshroute.route_ok_p50_us", median(&routing.ok_us));
    out.set(
        "meshroute.route_ok_p99_us",
        percentile(&routing.ok_us, 99.0),
    );
    out.set("meshroute.route_fail_p50_us", median(&first.fail_us));
    out.set(
        "meshroute.route_fail_max_us",
        percentile(&first.fail_us, 100.0),
    );
    out.check(routing.same, || {
        "repeated passes of the same seed route differently".to_string()
    });

    let mut errors = Vec::new();
    let checks = |errors: &mut Vec<String>| {
        (
            check(&mesh, &configs, first, errors),
            cdg_check(&mesh, &configs, errors),
        )
    };
    let counts = if cfg.trace {
        trace::set_enabled(true);
        let root = trace::span("run");
        scoped("bench.setup", || drop(setup()));
        let traced = timed_routing(cfg.budget(), &mesh, &configs);
        let counts = scoped("bench.check", || checks(&mut errors));
        drop(root);
        trace::set_enabled(false);
        let spans = trace::take_thread_spans();
        out.check(traced.same && traced.first.routes == first.routes, || {
            "traced passes route differently".to_string()
        });
        for (metric, span) in [
            ("faultgen.inject_ms", "faultgen.inject"),
            ("fblock.fb_ms", "fblock.fb"),
            ("core.cmfp_ms", "core.cmfp"),
            ("meshroute.regionmap_ms", "meshroute.regionmap"),
        ] {
            out.set(metric, stats::ms(trace::total_ns(&spans, span)));
        }
        // Overhead per pass that skips the unreachable pairs.
        let fast = |r: &Routing| median(&r.pass_s[1..]);
        finish_trace(
            &mut out,
            "route_clustered",
            cfg.seed,
            &[("main", spans)],
            fast(&routing),
            fast(&traced),
        );
        counts
    } else {
        checks(&mut errors)
    };
    let (counts, (acyclic, deadlock)) = counts;
    out.errors.extend(errors);

    // Failures are counted over the first pass, which routes every pair;
    // later passes skip the unreachable ones.
    out.attempted = first.calls;
    out.failed = counts.unrouted_connected + counts.invalid;
    out.set(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("meshroute.detours", counts.detours as f64);
    out.set("meshroute.fallbacks", counts.fallbacks as f64);
    out.set(
        "meshroute.unrouted_connected",
        counts.unrouted_connected as f64,
    );
    out.set("meshroute.abnormal_hops", counts.abnormal_hops as f64);
    out.set("meshroute.stretch_mean", mean(&counts.stretch));
    out.set("meshroute.cdg_acyclic_fb", acyclic[0] as f64);
    out.set("meshroute.cdg_acyclic_cmfp", acyclic[1] as f64);
    eprintln!(
        "route: {} connected pairs per pass, {} not routed, {} invalid; deadlock sample: {} connected, {} not routed, acyclic dependency graphs FB {}/{} CMFP {}/{}",
        counts.connected,
        counts.unrouted_connected,
        counts.invalid,
        deadlock.connected,
        deadlock.unrouted_connected,
        acyclic[0],
        size.deadlock_configs,
        acyclic[1],
        size.deadlock_configs
    );
    (inputs, out)
}
