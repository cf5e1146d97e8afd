//! `figures_2d`: the paper's Figure 9–11 sweep through `run_scenario`.
//!
//! FB, FP, CMFP and DMFP on the 100×100 mesh with 100..800 faults, under
//! both fault distributions, for several seeded trials, on a pool of one
//! thread. The construction layers do all the work; nothing routes,
//! simulates traffic or serves. Throughput counts model constructions
//! (figure points) per second.

use crate::metrics::Outcome;
use crate::stats::{self, mean, median};
use crate::trace::{self, scoped};
use crate::{finish_trace, Inputs, RunCfg};
use experiments::{
    render_csv, run_scenario, Metric, ModelPoint, Scenario, ScenarioResult, SweepConfig,
};
use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::Mesh2D;
use mocp_topology::ModelRegistry;
use std::fmt::Write as _;
use std::time::Instant;

/// The golden trial-0 CSV at the default seed (read-only fixture of the
/// repository's own test suite).
pub const FIXTURE: &str = include_str!("../../tests/fixtures/figures_2d.csv");
/// The seed the fixture was captured at.
pub const DEFAULT_SEED: u64 = 2004;

/// The paper's models, in the fixture's column order, with the span each
/// construction is recorded under.
const MODELS: [(&str, &str); 4] = [
    ("FB", "fblock.fb"),
    ("FP", "fblock.fp"),
    ("CMFP", "core.cmfp"),
    ("DMFP", "core.dmfp"),
];

fn sweep_config(cfg: &RunCfg, seed: u64, trials: u32) -> SweepConfig {
    if cfg.quick {
        SweepConfig {
            mesh_size: 30,
            fault_counts: vec![20, 40, 60],
            trials,
            base_seed: seed,
        }
    } else {
        SweepConfig {
            mesh_size: 100,
            fault_counts: (1..=8).map(|i| i * 100).collect(),
            trials,
            base_seed: seed,
        }
    }
}

fn trials(cfg: &RunCfg) -> u32 {
    if cfg.quick {
        2
    } else {
        6
    }
}

/// One sweep: both distributions through `run_scenario`.
fn sweep(registry: &ModelRegistry<Mesh2D>, config: &SweepConfig) -> Vec<ScenarioResult> {
    sweep_timed(registry, config).0
}

/// One sweep, with the wall time in seconds of its slower `run_scenario`
/// call (one figure).
fn sweep_timed(
    registry: &ModelRegistry<Mesh2D>,
    config: &SweepConfig,
) -> (Vec<ScenarioResult>, f64) {
    let mut slowest = 0.0f64;
    let results = FaultDistribution::ALL
        .iter()
        .map(|&dist| {
            let t = Instant::now();
            let result = run_scenario(registry, &Scenario::paper_figures(config, dist))
                .expect("the paper's model names resolve");
            slowest = slowest.max(stats::secs(t));
            result
        })
        .collect();
    (results, slowest)
}

/// The figure CSV in the layout of `tests/fixtures/figures_2d.csv`.
pub fn render_fixture_csv(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    for result in results {
        for metric in [Metric::DisabledNonfaulty, Metric::AvgRegionSize] {
            let _ = writeln!(
                out,
                "# 2d {} {:?}",
                result.scenario.distribution.label(),
                metric
            );
            out.push_str(&render_csv(&result.series(metric)));
        }
    }
    out
}

/// Checks the paper's ordering at every point of one trial: FB ≥ FP ≥
/// MFP in disabled nodes, and CMFP equal to DMFP.
pub fn check_ordering(result: &ScenarioResult) -> Result<(), String> {
    let dist = result.scenario.distribution.label();
    for p in &result.points {
        let [fb, fp, cmfp, dmfp] = [0, 1, 2, 3].map(|i| p.metrics[i].disabled_nonfaulty);
        if !(fb >= fp && fp >= cmfp) {
            return Err(format!(
                "{dist} @ {} faults: FB {fb} >= FP {fp} >= MFP {cmfp} does not hold",
                p.fault_count
            ));
        }
        if cmfp != dmfp {
            return Err(format!(
                "{dist} @ {} faults: CMFP disables {cmfp} but DMFP {dmfp}",
                p.fault_count
            ));
        }
    }
    Ok(())
}

/// The trial-averaged points exactly as `run_scenario` folds them.
fn average(per_trial: &[Vec<ModelPoint>]) -> Vec<ModelPoint> {
    let mut acc = vec![ModelPoint::default(); per_trial[0].len()];
    for trial in per_trial {
        for (a, m) in acc.iter_mut().zip(trial) {
            a.disabled_nonfaulty += m.disabled_nonfaulty;
            a.avg_region_size += m.avg_region_size;
            a.rounds += m.rounds;
        }
    }
    let factor = 1.0 / per_trial.len() as f64;
    for a in &mut acc {
        a.disabled_nonfaulty *= factor;
        a.avg_region_size *= factor;
        a.rounds *= factor;
    }
    acc
}

fn flat(result: &ScenarioResult) -> Vec<ModelPoint> {
    result
        .points
        .iter()
        .flat_map(|p| p.metrics.iter().copied())
        .collect()
}

/// Exact work counts of one traced sweep.
#[derive(Default)]
struct Counts {
    fb_rounds: u64,
    fp_rounds: u64,
    dmfp_rounds: u64,
    cmfp_disabled: u64,
}

/// The sweep again, call by call, with a span around each layer: the
/// same public calls `run_scenario` makes at pool size 1. Returns the
/// per-trial points of each distribution (trial-major, then point, then
/// model).
fn traced_sweep(
    registry: &ModelRegistry<Mesh2D>,
    config: &SweepConfig,
    counts: &mut Counts,
) -> Vec<Vec<Vec<ModelPoint>>> {
    let mesh = Mesh2D::square(config.mesh_size);
    let models: Vec<_> = MODELS
        .iter()
        .map(|(name, span)| (registry.build(name).expect("paper model"), *span))
        .collect();
    FaultDistribution::ALL
        .iter()
        .map(|&dist| {
            (0..config.trials)
                .map(|t| {
                    let mut injector = scoped("faultgen.inject", || {
                        FaultInjector::new(mesh, dist, config.base_seed + t as u64)
                    });
                    let mut points = Vec::new();
                    for &count in &config.fault_counts {
                        scoped("faultgen.inject", || injector.inject_up_to(count));
                        for (model, span) in &models {
                            let outcome =
                                scoped(span, || model.construct(&mesh, injector.faults()));
                            let rounds = outcome.rounds.rounds as u64;
                            match *span {
                                "fblock.fb" => counts.fb_rounds += rounds,
                                "fblock.fp" => counts.fp_rounds += rounds,
                                "core.dmfp" => counts.dmfp_rounds += rounds,
                                _ => counts.cmfp_disabled += outcome.disabled_nonfaulty() as u64,
                            }
                            points.push(scoped("experiments.analyze", || {
                                ModelPoint::from_outcome(&outcome)
                            }));
                        }
                    }
                    points
                })
                .collect()
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Inputs, Outcome) {
    let mut out = Outcome::default();
    let seed = cfg.seed;
    let config = sweep_config(cfg, seed, trials(cfg));
    let inputs = vec![
        ("mesh", format!("{0}x{0}", config.mesh_size)),
        ("fault_counts", format!("{:?}", config.fault_counts)),
        ("distributions", "random,clustered".to_string()),
        ("models", "FB,FP,CMFP,DMFP".to_string()),
        ("trials", config.trials.to_string()),
        ("pool_threads", "1".to_string()),
    ];
    let constructions =
        (2 * config.fault_counts.len() * MODELS.len() * config.trials as usize) as u64;

    // Set-up: the registry, a one-thread pool and one warm-up sweep of a
    // single trial, repeated; the median is `setup_s`.
    let setup = || {
        let registry = mocp_core::standard_registry();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread pool builds");
        pool.install(|| sweep(&registry, &sweep_config(cfg, seed, 1)));
        (registry, pool)
    };
    let ((registry, pool), setup_s) = stats::repeat_setup(cfg.setup_reps(), setup);
    out.set("setup_s", setup_s);

    // Timed: whole sweeps through run_scenario until the budget is spent.
    let passes =
        pool.install(|| stats::timed_passes(cfg.budget(), 1, |_| sweep_timed(&registry, &config)));
    // End-to-end figures are means over the timed phase, not medians of
    // passes: the host's speed moves between levels that last seconds to
    // minutes, and a median jumps from one level to the next where a
    // mean averages over them. With two calls per sweep, a pass's 95th
    // percentile is the slower one.
    let call_us: Vec<f64> = passes.iter().map(|(_, (_, s))| s * 1e6).collect();
    out.set("latency_p95_us", mean(&call_us));
    let passes: Vec<(f64, Vec<ScenarioResult>)> =
        passes.into_iter().map(|(s, (r, _))| (s, r)).collect();
    let pass_s: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let sweep_s = median(&pass_s);
    out.attempted = constructions * passes.len() as u64;
    out.set(
        "throughput",
        out.attempted as f64 / pass_s.iter().sum::<f64>(),
    );
    out.set("figures.sweep_s", sweep_s);

    // Traced half: the same sweep call by call, inside a root span that
    // also covers one set-up and the checks.
    let mut traced_passes = Vec::new();
    let checked = if cfg.trace {
        trace::set_enabled(true);
        let root = trace::span("run");
        scoped("experiments.run_scenario", || drop(setup()));
        let mut counts = Counts::default();
        traced_passes = stats::timed_passes(cfg.budget(), 1, |i| {
            let mut c = Counts::default();
            let r = traced_sweep(&registry, &config, &mut c);
            if i == 0 {
                counts = c;
            }
            r
        });
        let checked = scoped("bench.check", || {
            pool.install(|| check(cfg, &registry, &config, &passes[0].1))
        });
        drop(root);
        trace::set_enabled(false);
        let spans = trace::take_thread_spans();
        let n = traced_passes.len() as f64;
        for (metric, span) in [
            ("faultgen.inject_ms", "faultgen.inject"),
            ("fblock.fb_ms", "fblock.fb"),
            ("fblock.fp_ms", "fblock.fp"),
            ("core.cmfp_ms", "core.cmfp"),
            ("core.dmfp_ms", "core.dmfp"),
            ("experiments.analyze_ms", "experiments.analyze"),
        ] {
            out.set(metric, stats::ms(trace::total_ns(&spans, span)) / n);
        }
        out.set("fblock.fb_rounds", counts.fb_rounds as f64);
        out.set("fblock.fp_rounds", counts.fp_rounds as f64);
        out.set("core.dmfp_rounds", counts.dmfp_rounds as f64);
        out.set("core.cmfp_disabled", counts.cmfp_disabled as f64);
        let traced_s: Vec<f64> = traced_passes.iter().map(|(s, _)| *s).collect();
        finish_trace(
            &mut out,
            "figures_2d",
            seed,
            &[("main", spans)],
            sweep_s,
            median(&traced_s),
        );
        checked
    } else {
        pool.install(|| check(cfg, &registry, &config, &passes[0].1))
    };

    // Checks, outside the timed region.
    match checked {
        Ok(per_trial) => out.check(traced_passes.iter().all(|(_, r)| *r == per_trial), || {
            "the call-by-call sweep differs from run_scenario".to_string()
        }),
        Err(e) => out.errors.push(e),
    }
    out.check(
        passes
            .iter()
            .all(|(_, r)| flat_all(r) == flat_all(&passes[0].1)),
        || "repeated sweeps of the same seed differ".to_string(),
    );
    out.set("failed_ratio", 0.0);
    (inputs, out)
}

fn flat_all(results: &[ScenarioResult]) -> Vec<ModelPoint> {
    results.iter().flat_map(flat).collect()
}

/// The output checks. Re-runs each trial alone through `run_scenario`:
/// every trial must keep the paper's ordering, and the trials must
/// average to the timed sweep's result bit for bit. The default seed's
/// trial-0 CSV must equal the fixture byte for byte. Returns the
/// per-trial points (distribution, trial, flattened points).
fn check(
    cfg: &RunCfg,
    registry: &ModelRegistry<Mesh2D>,
    config: &SweepConfig,
    timed: &[ScenarioResult],
) -> Result<Vec<Vec<Vec<ModelPoint>>>, String> {
    let mut per_trial = vec![Vec::new(); 2];
    for t in 0..config.trials {
        let one = sweep(registry, &sweep_config(cfg, config.base_seed + t as u64, 1));
        for (d, result) in one.iter().enumerate() {
            check_ordering(result)
                .map_err(|e| format!("seed {} trial {t}: {e}", config.base_seed))?;
            per_trial[d].push(flat(result));
        }
    }
    for (d, result) in timed.iter().enumerate() {
        if average(&per_trial[d]) != flat(result) {
            return Err(format!(
                "{}: the trials do not average to the timed sweep",
                result.scenario.distribution.label()
            ));
        }
    }
    let full = SweepConfig::paper(1);
    let golden = SweepConfig {
        base_seed: DEFAULT_SEED,
        ..full
    };
    check_fixture(&render_fixture_csv(&sweep(registry, &golden)))?;
    Ok(per_trial)
}

/// The default seed's trial-0 CSV must equal the fixture byte for byte.
pub fn check_fixture(csv: &str) -> Result<(), String> {
    if csv == FIXTURE {
        Ok(())
    } else {
        Err("the default seed's trial-0 CSV differs from tests/fixtures/figures_2d.csv".to_string())
    }
}
