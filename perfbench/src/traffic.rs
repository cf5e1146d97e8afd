//! `traffic_512`: `mocp_traffic::simulate`, sequential, on a 512×512
//! mesh with 250 random faults, for FB and CMFP regions under the
//! `uniform` and `hotspot` patterns.
//!
//! The per-hop loop does the work; detours are a small share and region
//! construction is set-up. Throughput counts message hops per second.

use crate::metrics::Outcome;
use crate::stats::{self, mean, median};
use crate::trace::{self, scoped};
use crate::{finish_trace, Inputs, RunCfg};
use experiments::{render_traffic_csv, run_traffic, TrafficScenario};
use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::Coord;
use mesh2d::{Mesh2D, StatusMap};
use meshroute::{ExtendedECube, MessageClass, RegionMap};
use mocp_traffic::{pattern_by_name, simulate, SimConfig, TrafficReport};
use std::time::Instant;

/// The golden quick-sweep CSV (read-only fixture of the repository's own
/// test suite).
pub const FIXTURE: &str = include_str!("../../tests/fixtures/traffic.csv");

const MODELS: [(&str, &str); 2] = [("FB", "fblock.fb"), ("CMFP", "core.cmfp")];
const PATTERNS: [&str; 2] = ["uniform", "hotspot"];

struct Size {
    mesh: u32,
    faults: usize,
    messages: usize,
    injection_rate: usize,
    reachable_sample: usize,
}

fn size(cfg: &RunCfg) -> Size {
    if cfg.quick {
        Size {
            mesh: 64,
            faults: 16,
            messages: 2_000,
            injection_rate: 32,
            reachable_sample: 200,
        }
    } else {
        Size {
            mesh: 512,
            faults: 250,
            messages: 4_000,
            injection_rate: 256,
            reachable_sample: 2_000,
        }
    }
}

/// Every message offered is injected or excluded at an endpoint, and
/// every injected message is delivered, unreachable or stranded.
pub fn check_conservation(report: &TrafficReport) -> Result<(), String> {
    if report.offered != report.injected + report.endpoint_excluded {
        return Err(format!(
            "{}: offered {} != injected {} + endpoint-excluded {}",
            report.pattern, report.offered, report.injected, report.endpoint_excluded
        ));
    }
    if report.injected != report.delivered + report.unreachable + report.stranded {
        return Err(format!(
            "{}: injected {} != delivered {} + unreachable {} + stranded {}",
            report.pattern, report.injected, report.delivered, report.unreachable, report.stranded
        ));
    }
    Ok(())
}

/// The quick traffic sweep's CSV must equal the fixture byte for byte.
pub fn check_fixture(csv: &str) -> Result<(), String> {
    if csv == FIXTURE {
        Ok(())
    } else {
        Err("the TrafficScenario::quick() CSV differs from tests/fixtures/traffic.csv".to_string())
    }
}

struct Network {
    model: &'static str,
    status: StatusMap,
    regions: RegionMap,
}

/// Fault populations are drawn again (at most this many times) while a
/// region needs the router's whole-mesh fallback search.
const MAX_POPULATIONS: u64 = 64;

/// True when a message crossing some region straight through can only get
/// around it by the router's fallback search over every enabled node:
/// for example two diagonal faults against the mesh border. On a 512×512
/// mesh such a message can walk the router's 16×N step budget, one
/// whole-mesh search per step, for hours. That defect is counted in
/// `route_clustered`; this workload draws such populations again.
pub fn needs_fallback(mesh: &Mesh2D, status: &StatusMap, regions: &RegionMap) -> bool {
    let router = ExtendedECube::with_regions(mesh, status, regions);
    regions.regions().iter().enumerate().any(|(id, region)| {
        let (mut x0, mut x1, mut y0, mut y1) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
        for c in region.iter() {
            (x0, x1, y0, y1) = (x0.min(c.x), x1.max(c.x), y0.min(c.y), y1.max(c.y));
        }
        let (mx, my) = ((x0 + x1) / 2, (y0 + y1) / 2);
        [
            ((x0 - 1, my), (x1 + 3, my)),
            ((x1 + 1, my), (x0 - 3, my)),
            ((mx, y0 - 1), (mx, y1 + 3)),
            ((mx, y1 + 1), (mx, y0 - 3)),
        ]
        .into_iter()
        .map(|((fx, fy), (dx, dy))| (Coord::new(fx, fy), Coord::new(dx, dy)))
        .filter(|&(from, dst)| router.enabled(from) && router.enabled(dst))
        .any(|(from, dst)| {
            let class = MessageClass::classify(from, dst).expect("distinct nodes");
            !matches!(router.detour(id as u32, from, dst, class), Ok((_, false)))
        })
    })
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Inputs, Outcome) {
    let mut out = Outcome::default();
    let size = size(cfg);
    let mesh = Mesh2D::square(size.mesh);
    let sim = SimConfig {
        messages: size.messages,
        seed: cfg.seed,
        injection_rate: size.injection_rate,
        vc_capacity: 4,
        max_cycles: 0,
        reachable_sample: size.reachable_sample,
    };
    let inputs = vec![
        ("mesh", format!("{0}x{0}", size.mesh)),
        ("faults", format!("{} random", size.faults)),
        ("models", "FB,CMFP".to_string()),
        ("patterns", PATTERNS.join(",")),
        ("messages_per_cell", size.messages.to_string()),
        ("injection_rate", size.injection_rate.to_string()),
        ("reachable_sample", size.reachable_sample.to_string()),
    ];
    let registry = mocp_core::standard_registry();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool builds");

    // Set-up: faults, both models' regions and region maps, and the quick
    // sweep's golden CSV check, repeated; the median is `setup_s`. The
    // first population is the seed's own; one that needs the fallback
    // search is drawn again from a derived seed.
    let population = |k: u64| {
        let seed = if k == 0 {
            cfg.seed
        } else {
            stats::mix(cfg.seed, k)
        };
        let injector = scoped("faultgen.inject", || {
            let mut injector = FaultInjector::new(mesh, FaultDistribution::Random, seed);
            injector.inject_up_to(size.faults);
            injector
        });
        MODELS
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
                Network {
                    model,
                    status: outcome.status,
                    regions,
                }
            })
            .collect::<Vec<Network>>()
    };
    let setup = || {
        let (rejected, networks) = (0..MAX_POPULATIONS)
            .map(|k| (k, population(k)))
            .find(|(_, nets)| {
                !scoped("meshroute.probe", || {
                    nets.iter()
                        .any(|n| needs_fallback(&mesh, &n.status, &n.regions))
                })
            })
            .expect("a population the router passes without its fallback search");
        let quick_csv = scoped("experiments.run_traffic", || {
            pool.install(|| {
                render_traffic_csv(
                    &run_traffic(&registry, &TrafficScenario::quick()).expect("known names"),
                )
            })
        });
        (networks, rejected, quick_csv)
    };
    let ((networks, rejected, quick_csv), setup_s) = stats::repeat_setup(cfg.setup_reps(), setup);
    out.set("setup_s", setup_s);
    out.set("traffic.rejected_populations", rejected as f64);
    if let Err(e) = check_fixture(&quick_csv) {
        out.errors.push(e);
    }

    // One pass: the four cells, with the slowest cell's wall time in
    // seconds.
    let pass = |_| -> (Vec<TrafficReport>, f64) {
        let mut cells = Vec::new();
        let mut slowest = 0.0f64;
        for net in &networks {
            for name in PATTERNS {
                let pattern = pattern_by_name(name).expect("known pattern");
                let t = Instant::now();
                cells.push(scoped("traffic.simulate", || {
                    simulate(&mesh, &net.status, &net.regions, pattern.as_ref(), &sim)
                }));
                slowest = slowest.max(stats::secs(t));
            }
        }
        (cells, slowest)
    };

    // Timed: all four cells per pass until the budget is spent. Means over
    // the timed phase, as in `figures_2d`; with four cells per pass, a
    // pass's 95th percentile is its slowest cell.
    let passes = stats::timed_passes(cfg.budget(), 1, pass);
    let cell_us: Vec<f64> = passes.iter().map(|(_, (_, s))| s * 1e6).collect();
    out.set("latency_p95_us", mean(&cell_us));
    let passes: Vec<(f64, Vec<TrafficReport>)> = passes
        .into_iter()
        .map(|(s, (cells, _))| (s, cells))
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let sweep_s = median(&pass_s);
    let first = &passes[0].1;
    let hops: u64 = first.iter().map(|r| r.total_hops).sum();
    let injected: u64 = first.iter().map(|r| r.injected as u64).sum();
    let lost: u64 = first
        .iter()
        .map(|r| (r.stranded + r.unreachable) as u64)
        .sum();
    out.attempted = injected * passes.len() as u64;
    out.failed = lost * passes.len() as u64;
    out.set(
        "throughput",
        (hops * passes.len() as u64) as f64 / pass_s.iter().sum::<f64>(),
    );
    out.set("traffic.sweep_s", sweep_s);
    out.set("failed_ratio", lost as f64 / injected.max(1) as f64);

    if cfg.trace {
        trace::set_enabled(true);
        let root = trace::span("run");
        scoped("bench.setup", || drop(setup()));
        let traced = stats::timed_passes(cfg.budget(), 1, pass);
        let checked = scoped("bench.check", || check(&passes, &networks));
        drop(root);
        trace::set_enabled(false);
        let spans = trace::take_thread_spans();
        if let Err(e) = checked {
            out.errors.push(e);
        }
        out.check(traced.iter().all(|(_, (cells, _))| cells == first), || {
            "traced passes differ from untraced ones".to_string()
        });
        let simulate_ns = trace::total_ns(&spans, "traffic.simulate");
        let cells = traced.len() * first.len();
        let traced_hops = hops * traced.len() as u64;
        out.set("traffic.simulate_ms", stats::ms(simulate_ns) / cells as f64);
        out.set(
            "traffic.ns_per_hop",
            simulate_ns as f64 / traced_hops as f64,
        );
        // Set-up ran once inside the root span.
        for (metric, span) in [
            ("faultgen.inject_ms", "faultgen.inject"),
            ("fblock.fb_ms", "fblock.fb"),
            ("core.cmfp_ms", "core.cmfp"),
            ("meshroute.regionmap_ms", "meshroute.regionmap"),
        ] {
            out.set(metric, stats::ms(trace::total_ns(&spans, span)));
        }
        let sum = |f: fn(&TrafficReport) -> u64| first.iter().map(f).sum::<u64>() as f64;
        out.set("traffic.hops", sum(|r| r.total_hops));
        out.set("traffic.cycles", sum(|r| r.cycles));
        out.set("traffic.detours", sum(|r| r.detours));
        out.set("traffic.delivered", sum(|r| r.delivered as u64));
        out.set("traffic.stranded", sum(|r| r.stranded as u64));
        let p50: Vec<f64> = first.iter().map(|r| r.latency.p50 as f64).collect();
        let p99: Vec<f64> = first.iter().map(|r| r.latency.p99 as f64).collect();
        out.set("traffic.latency_p50_cycles", mean(&p50));
        out.set("traffic.latency_p99_cycles", mean(&p99));
        let traced_s: Vec<f64> = traced.iter().map(|(s, _)| *s).collect();
        finish_trace(
            &mut out,
            "traffic_512",
            cfg.seed,
            &[("main", spans)],
            sweep_s,
            median(&traced_s),
        );
    } else if let Err(e) = check(&passes, &networks) {
        out.errors.push(e);
    }
    for (net, cell) in networks.iter().zip(first.chunks(PATTERNS.len())) {
        for r in cell {
            eprintln!(
                "traffic {} {}: delivered {} of {} injected, stranded {}, unreachable {}, {} hops, {} cycles, {} detours",
                net.model, r.pattern, r.delivered, r.injected, r.stranded, r.unreachable, r.total_hops, r.cycles, r.detours
            );
        }
    }
    (inputs, out)
}

/// Conservation in every cell of every pass, and every pass of the same
/// seed reporting the same numbers.
fn check(passes: &[(f64, Vec<TrafficReport>)], networks: &[Network]) -> Result<(), String> {
    for (_, cells) in passes {
        for (i, report) in cells.iter().enumerate() {
            check_conservation(report)
                .map_err(|e| format!("{} {e}", networks[i / PATTERNS.len()].model))?;
        }
        if *cells != passes[0].1 {
            return Err("repeated passes of the same seed report different traffic".to_string());
        }
    }
    Ok(())
}
