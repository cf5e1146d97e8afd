//! Pins the **whole** `TrafficReport` of the simulator on a small matrix
//! of cases that the golden CSV (`fixtures/traffic.csv`: 32×32, 12 random
//! faults, capacity 4, almost no contention) leaves out: single-slot
//! buffers under saturating hotspot load, a horizon that strands messages,
//! a walled-off mesh that drops them, and clustered faults whose regions
//! force detours. Every field — per-VC occupancy histograms, latency
//! percentiles, stretch, the reachability probe — is compared through its
//! `{:#?}` rendering against `fixtures/traffic_reports.txt`, so any change
//! to request order, arbitration or buffer accounting shows up as a diff.
//!
//! Each case also asserts the property it is in the matrix for, so the
//! matrix cannot quietly stop covering it.

use mocp::faultgen::{FaultDistribution, FaultInjector};
use mocp::mesh2d::{Coord, FaultSet, Mesh2D, StatusMap};
use mocp::meshroute::RegionMap;
use mocp::mocp_traffic::{simulate, Hotspot, SimConfig, TrafficPattern, TrafficReport};
use mocp::mocp_traffic::{Transpose, Uniform};

/// The status map of `model` over `faults` faults drawn from `seed`.
fn model_status(
    mesh: &Mesh2D,
    model: &str,
    distribution: FaultDistribution,
    faults: usize,
    seed: u64,
) -> StatusMap {
    let mut injector = FaultInjector::new(*mesh, distribution, seed);
    injector.inject_up_to(faults);
    mocp::mocp_core::standard_registry()
        .build(model)
        .expect("paper model")
        .construct(mesh, injector.faults())
        .status
}

fn run(
    mesh: &Mesh2D,
    status: &StatusMap,
    pattern: &dyn TrafficPattern,
    cfg: SimConfig,
) -> TrafficReport {
    let regions = RegionMap::from_status(mesh, status);
    simulate(mesh, status, &regions, pattern, &cfg)
}

/// A named case, its report and the property it is in the matrix for.
type Case = (&'static str, TrafficReport, fn(&TrafficReport) -> bool);

/// The matrix, in fixture order.
fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();

    // Single-slot buffers under a saturating hotspot: full buffers, busy
    // links and every VC competing for the hot node's links, so messages
    // wait far longer than they travel.
    let mesh = Mesh2D::square(16);
    let status = model_status(&mesh, "CMFP", FaultDistribution::Random, 6, 11);
    let report = run(
        &mesh,
        &status,
        &Hotspot { percent: 30 },
        SimConfig {
            messages: 3_000,
            seed: 5,
            injection_rate: 256,
            vc_capacity: 1,
            reachable_sample: 200,
            ..SimConfig::default()
        },
    );
    cases.push(("hotspot_capacity_1_rate_256", report, |r| {
        r.latency.mean > 4.0 * r.total_hops as f64 / r.delivered as f64
    }));

    // A horizon far below the drain time leaves messages queued and in
    // flight.
    let mesh = Mesh2D::square(24);
    let status = model_status(&mesh, "FB", FaultDistribution::Random, 8, 3);
    let report = run(
        &mesh,
        &status,
        &Uniform,
        SimConfig {
            messages: 2_000,
            seed: 7,
            injection_rate: 64,
            vc_capacity: 2,
            max_cycles: 25,
            reachable_sample: 200,
        },
    );
    cases.push(("uniform_max_cycles_25", report, |r| r.stranded > 0));

    // A faulty column splits the mesh: cross-wall messages are dropped as
    // unreachable, not left stuck.
    let mesh = Mesh2D::square(8);
    let wall = FaultSet::from_coords(mesh, (0..8).map(|y| Coord::new(4, y)));
    let status = StatusMap::from_faults(&mesh, &wall.region());
    let report = run(
        &mesh,
        &status,
        &Uniform,
        SimConfig {
            messages: 300,
            seed: 2,
            injection_rate: 8,
            ..SimConfig::default()
        },
    );
    cases.push(("walled_off_uniform", report, |r| r.unreachable > 0));

    // Clustered faults under CMFP: orthogonally convex regions that
    // messages circumnavigate in the abnormal mode.
    let mesh = Mesh2D::square(32);
    let status = model_status(&mesh, "CMFP", FaultDistribution::Clustered, 40, 2004);
    for (name, pattern) in [
        (
            "clustered_cmfp_transpose",
            &Transpose as &dyn TrafficPattern,
        ),
        ("clustered_cmfp_uniform", &Uniform as &dyn TrafficPattern),
    ] {
        let report = run(
            &mesh,
            &status,
            pattern,
            SimConfig {
                messages: 3_000,
                seed: 9,
                injection_rate: 32,
                reachable_sample: 300,
                ..SimConfig::default()
            },
        );
        cases.push((name, report, |r| r.detours > 0 && r.abnormal_hops > 0));
    }
    cases
}

fn render(cases: &[Case]) -> String {
    let mut out = String::new();
    for (name, report, _) in cases {
        out.push_str(&format!("== {name} ==\n{report:#?}\n"));
    }
    out
}

#[test]
fn traffic_reports_match_the_fixture_field_for_field() {
    let cases = cases();
    for (name, report, covers) in &cases {
        assert!(covers(report), "{name} no longer covers its property");
        assert_eq!(
            report.injected,
            report.delivered + report.unreachable + report.stranded,
            "{name}: conservation"
        );
    }
    let actual = render(&cases);
    let golden = include_str!("fixtures/traffic_reports.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traffic_reports.txt");
        std::fs::write(&path, &actual).expect("write the actual reports");
        panic!(
            "traffic reports diverged from tests/fixtures/traffic_reports.txt; \
             the actual reports are in {}",
            path.display()
        );
    }
}
