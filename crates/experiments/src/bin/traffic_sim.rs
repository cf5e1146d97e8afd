//! Drives the heavy-traffic network simulation from the command line.
//!
//! ```text
//! cargo run --release -p experiments --bin traffic_sim
//! cargo run --release -p experiments --bin traffic_sim -- --quick
//! cargo run --release -p experiments --bin traffic_sim -- \
//!     --mesh 512 --faults 250 --messages 1000000 --models FB,CMFP \
//!     --pattern uniform,transpose,hotspot --threads 8
//! cargo run --release -p experiments --bin traffic_sim -- --metrics  # with --features obs
//! ```
//!
//! The default shape is the acceptance workload: one million messages per
//! (model × pattern) cell on a 512×512 mesh with 250 random faults, FB vs
//! CMFP under all three patterns. The CSV goes to stdout, a human summary
//! to stderr. Output is byte-identical at any `--threads` value.

use std::time::Instant;

use experiments::{render_traffic_csv, run_traffic, TrafficScenario};
use faultgen::FaultDistribution;

fn usage() -> ! {
    eprintln!(
        "usage: traffic_sim [--quick] [--mesh SIDE] [--faults N] [--messages M] [--trials T] \
         [--models A,B,..] [--pattern P,Q,..] [--distribution random|clustered] [--rate R] \
         [--vc-capacity C] [--max-cycles N] [--seed S] [--threads N] [--csv-only] [--metrics]\n\
         Simulates cycle-driven traffic over the fault regions of each model and\n\
         prints the per-cell CSV (stdout) plus a summary (stderr).\n\
         --quick shrinks the run to CI size; --pattern/--models take comma lists\n\
         (patterns: uniform, transpose, hotspot); --rate is injected messages per\n\
         cycle; --vc-capacity is buffer slots per link and virtual channel (at\n\
         most 255); --threads pins the worker-pool size (output is identical at any\n\
         value); --csv-only suppresses the stderr summary;\n\
         --metrics dumps the mocp_obs registry (build with --features obs)."
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// Parses a count that must be at least 1: zero is a usage error, not a
/// value to clamp.
fn positive<T: std::str::FromStr + Default + PartialEq>(value: Option<String>) -> T {
    let n: T = parse(value);
    if n == T::default() {
        usage();
    }
    n
}

fn list(value: Option<String>) -> Vec<String> {
    let list: Vec<String> = value
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    if list.is_empty() || list.iter().any(String::is_empty) {
        usage();
    }
    list
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // --quick picks the small base shape; every other flag then overrides
    // it, regardless of flag order.
    let mut scenario = if raw.iter().any(|a| a == "--quick") {
        TrafficScenario::quick()
    } else {
        TrafficScenario::full()
    };
    let mut threads: Option<usize> = None;
    let mut show_metrics = false;
    let mut csv_only = false;

    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {}
            "--mesh" => scenario.mesh_size = parse(args.next()),
            "--faults" => scenario.faults = parse(args.next()),
            "--messages" => scenario.messages = parse(args.next()),
            "--trials" => scenario.trials = positive(args.next()),
            "--models" => scenario.models = list(args.next()),
            "--pattern" => scenario.patterns = list(args.next()),
            "--distribution" => {
                let label: String = parse(args.next());
                scenario.distribution =
                    FaultDistribution::from_label(&label).unwrap_or_else(|| usage());
            }
            "--rate" => scenario.injection_rate = positive(args.next()),
            "--vc-capacity" => scenario.vc_capacity = positive(args.next()),
            "--max-cycles" => scenario.max_cycles = parse(args.next()),
            "--seed" => scenario.base_seed = parse(args.next()),
            "--threads" => {
                threads = Some(parse(args.next()));
                if threads == Some(0) {
                    usage();
                }
            }
            "--csv-only" => csv_only = true,
            "--metrics" => show_metrics = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if show_metrics && !mocp_obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature; --metrics emits empty output \
             (rebuild with `--features obs`)"
        );
    }

    // Pin the global pool before any parallel work, overriding the
    // RAYON_NUM_THREADS environment variable.
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("--threads must be set before the pool is used");
    }

    if !csv_only {
        eprintln!(
            "traffic_sim: {}x{} mesh, {} {} faults, {} msgs x {} trials per cell, \
             models [{}], patterns [{}], rate {}/cycle, seed {:#x}",
            scenario.mesh_size,
            scenario.mesh_size,
            scenario.faults,
            scenario.distribution.label(),
            scenario.messages,
            scenario.trials,
            scenario.models.join(","),
            scenario.patterns.join(","),
            scenario.injection_rate,
            scenario.base_seed,
        );
    }

    let start = Instant::now();
    let result = run_traffic(&mocp_core::standard_registry(), &scenario).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2);
    });
    let elapsed = start.elapsed();

    print!("{}", render_traffic_csv(&result));

    if !csv_only {
        let mut routed: u64 = 0;
        for cell in &result.cells {
            for r in &cell.reports {
                routed += r.delivered as u64;
            }
            let n = cell.reports.len().max(1) as f64;
            let mean = |f: &dyn Fn(&mocp_traffic::TrafficReport) -> f64| {
                cell.reports.iter().map(f).sum::<f64>() / n
            };
            eprintln!(
                "  {:<5} {:<9} delivered {:>5.1}%  throughput {:>8.2} msg/cyc  \
                 latency p50/p99 {:>6.0}/{:>6.0}  stretch {:.4}  reachable {:.4}",
                cell.model,
                cell.pattern,
                100.0 * mean(&|r| r.delivered_fraction()),
                mean(&|r| r.throughput()),
                mean(&|r| r.latency.p50 as f64),
                mean(&|r| r.latency.p99 as f64),
                mean(&|r| r.avg_stretch),
                mean(&|r| r.reachable.fraction()),
            );
        }
        eprintln!(
            "delivered {} messages across {} cells in {:.3}s",
            routed,
            result.cells.len(),
            elapsed.as_secs_f64(),
        );
    }
    if show_metrics {
        eprintln!("metrics:");
        eprint!("{}", mocp_obs::render_table(&mocp_obs::snapshot()));
    }
}
