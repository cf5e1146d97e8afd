//! The repository benchmark.
//!
//! Four workloads drive the library's public functions: `figures_2d`
//! (the paper's Figure 9–11 sweep), `traffic_512` (the packet simulator
//! on a 512×512 mesh), `route_clustered` (extended e-cube routing around
//! clustered faults) and `serve_stream` (the multi-tenant monitoring
//! service under inject/repair churn). Each run generates its inputs from
//! `--seed` before timing, measures for `--seconds`, checks the outputs
//! outside the timed region and prints one JSON result line. See
//! `README.md` in this directory for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod figures;
pub mod metrics;
pub mod provenance;
pub mod route;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traffic;

use metrics::Outcome;
use std::time::Duration;
use trace::{Ledger, Span};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "figures_2d",
    "traffic_512",
    "route_clustered",
    "serve_stream",
];

/// The input sizes a run reports in its provenance, as `(name, value)`.
pub type Inputs = Vec<(&'static str, String)>;

/// How one run is configured.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub quick: bool,
}

impl RunCfg {
    /// Time budget of one timed phase. A traced run measures an untraced
    /// half (the baseline for the tracing overhead) and a traced half.
    pub fn budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s.max(0.0))
    }

    /// Times set-up is repeated; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            2
        } else {
            15
        }
    }
}

/// Runs one workload. Returns the provenance inputs and the outcome, or
/// an error for an unknown workload name.
pub fn run(workload: &str, cfg: &RunCfg) -> Result<(Inputs, Outcome), String> {
    match workload {
        "figures_2d" => Ok(figures::run(cfg)),
        "traffic_512" => Ok(traffic::run(cfg)),
        "route_clustered" => Ok(route::run(cfg)),
        "serve_stream" => Ok(serve::run(cfg)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Fills the traced run's ledger metrics from the workload thread's
/// spans (root span named `run`) and writes every thread's spans out.
///
/// `untraced_pass_s` and `traced_pass_s` are the median pass times of
/// the two halves; their difference is the tracing overhead per pass.
pub fn finish_trace(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    threads: &[(&str, Vec<Span>)],
    untraced_pass_s: f64,
    traced_pass_s: f64,
) {
    let main = &threads[0].1;
    let Some(root) = main
        .iter()
        .position(|s| s.name == "run" && s.parent.is_none())
    else {
        out.errors
            .push("traced run recorded no root span".to_string());
        return;
    };
    let ledger = Ledger::of(main, root);
    out.check(ledger.total_ns() == ledger.wall_ns, || {
        format!(
            "ledger does not add up: {} ns of self time for {} ns of wall time",
            ledger.total_ns(),
            ledger.wall_ns
        )
    });
    out.set("trace.wall_ms", stats::ms(ledger.wall_ns));
    out.set("trace.unattributed_ms", stats::ms(ledger.unattributed_ns));
    out.set("trace.overhead_ms", (traced_pass_s - untraced_pass_s) * 1e3);
    for (layer, &ns) in &ledger.layers {
        match ledger_metric(layer) {
            Some(name) => out.set(name, stats::ms(ns)),
            None => out
                .errors
                .push(format!("span layer {layer:?} has no ledger metric")),
        }
    }
    let lists: Vec<(&str, &[Span])> = threads.iter().map(|(n, s)| (*n, s.as_slice())).collect();
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&lists)));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            lists.iter().map(|l| l.1.len()).sum::<usize>(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
    eprintln!(
        "trace ledger ({workload}): wall {:.3} ms = unattributed {:.3} ms + {}",
        stats::ms(ledger.wall_ns),
        stats::ms(ledger.unattributed_ns),
        ledger
            .layers
            .iter()
            .map(|(l, ns)| format!("{l} {:.3} ms", stats::ms(*ns)))
            .collect::<Vec<_>>()
            .join(" + ")
    );
}

fn ledger_metric(layer: &str) -> Option<&'static str> {
    Some(match layer {
        "faultgen" => "ledger.faultgen_ms",
        "fblock" => "ledger.fblock_ms",
        "core" => "ledger.core_ms",
        "experiments" => "ledger.experiments_ms",
        "meshroute" => "ledger.meshroute_ms",
        "traffic" => "ledger.traffic_ms",
        "incremental" => "ledger.incremental_ms",
        "serve" => "ledger.serve_ms",
        "bench" => "ledger.bench_ms",
        _ => return None,
    })
}
