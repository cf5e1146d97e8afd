//! Regenerates the paper's figures as plain-text tables.
//!
//! ```text
//! cargo run --release -p experiments --bin paper_figures -- all
//! cargo run --release -p experiments --bin paper_figures -- fig9a fig11b
//! cargo run --release -p experiments --bin paper_figures -- --quick all
//! cargo run --release -p experiments --bin paper_figures -- --dim 3 --csv all
//! cargo run --release -p experiments --bin paper_figures -- --models FB,CMFP fig9a
//! cargo run --release -p experiments --bin paper_figures -- --distribution clustered all
//! cargo run --release -p experiments --bin paper_figures -- --list-models
//! ```
//!
//! `--quick` runs a small sweep (useful as a smoke test); the default
//! reproduces the paper's 100×100 mesh with 100..800 faults. Every figure in
//! every dimension is produced by the *same* scenario runner: `--dim 3`
//! swaps the 2-D registry for the 3-D one (FB-3D vs MFP-3D on a 32×32×32
//! mesh) and nothing else, model names (`--models`) and distribution labels
//! (`--distribution`) are spelled identically across dimensions, and
//! `--list-models` prints both registries.

use experiments::fig10::figure10;
use experiments::fig11::figure11;
use experiments::fig9::{figure9, figure9_raw};
use experiments::scenario::Scenario;
use experiments::{
    render_table, run_scenario, run_scenario_streaming, Metric, ScenarioResult, SweepConfig,
};
use faultgen::FaultDistribution;

/// The figure names accepted on the command line.
const FIGURES: [&str; 7] = [
    "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "all",
];

fn usage() -> ! {
    eprintln!(
        "usage: paper_figures [--dim 2|3] [--quick] [--trials N] [--threads N] [--csv] \
         [--streaming] [--models A,B,..] [--distribution random|clustered] [--list-models] \
         [--metrics] [--trace FILE] \
         <fig9a|fig9b|fig10a|fig10b|fig11a|fig11b|all>...\n\
         --metrics dumps the mocp_obs registry after the sweeps (stderr);\n\
         --trace FILE writes a Chrome trace of the sweep spans. Both need\n\
         a build with `--features obs` to produce non-empty output.\n\
         --threads pins the worker-pool size (overriding RAYON_NUM_THREADS);\n\
         1 disables the pool entirely. Output is identical at any thread count.\n\
         figures suffixed 'a' use the random distribution, 'b' the clustered one;\n\
         --distribution restricts the run to one distribution regardless of suffix.\n\
         --dim 3 runs the 3-D extension sweep (FB-3D vs MFP-3D on a 32x32x32 mesh)\n\
         through the same scenario runner and emits the Figure 9/10 analogues\n\
         (fig11 has no 3-D figure and is skipped).\n\
         --models overrides the model list; the output is then the generic\n\
         per-metric series instead of the paper-shaped figures.\n\
         --streaming runs the incremental-engine sweep (one pass per injection\n\
         sequence) and emits its Figure 9/10 MFP series; for equal seeds the\n\
         numbers match the batch MFP column exactly, so the two outputs can be\n\
         diffed (2-D only; fig11 is skipped)."
    );
    std::process::exit(2);
}

/// Emits the end-of-run observability output: the trace file (when
/// `--trace` was given) and the metric table (when `--metrics` was).
fn finish_obs(show_metrics: bool, trace_path: Option<&str>) {
    if let Some(path) = trace_path {
        match mocp_obs::trace::write_chrome_trace(path) {
            Ok(events) => eprintln!("wrote {path} ({events} trace events)"),
            Err(e) => {
                eprintln!("error: cannot write trace {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if show_metrics {
        eprintln!("metrics:");
        eprint!("{}", mocp_obs::render_table(&mocp_obs::snapshot()));
    }
}

fn main() {
    let mut quick = false;
    let mut csv = false;
    let mut streaming = false;
    let mut dim: u32 = 2;
    let mut trials: Option<u32> = None;
    let mut threads: Option<usize> = None;
    let mut models: Option<Vec<String>> = None;
    let mut only_distribution: Option<FaultDistribution> = None;
    let mut show_metrics = false;
    let mut trace_path: Option<String> = None;
    let mut figures: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--streaming" => streaming = true,
            "--dim" => {
                let d = args.next().unwrap_or_else(|| usage());
                dim = d.parse().unwrap_or_else(|_| usage());
                if dim != 2 && dim != 3 {
                    usage();
                }
            }
            "--trials" => {
                let n = args.next().unwrap_or_else(|| usage());
                trials = Some(n.parse().unwrap_or_else(|_| usage()));
                if trials == Some(0) {
                    usage();
                }
            }
            "--threads" => {
                let n = args.next().unwrap_or_else(|| usage());
                threads = Some(n.parse().unwrap_or_else(|_| usage()));
                if threads == Some(0) {
                    usage();
                }
            }
            "--models" => {
                let list = args.next().unwrap_or_else(|| usage());
                models = Some(list.split(',').map(|m| m.trim().to_string()).collect());
            }
            "--distribution" => {
                let label = args.next().unwrap_or_else(|| usage());
                only_distribution =
                    Some(FaultDistribution::from_label(&label).unwrap_or_else(|| usage()));
            }
            "--metrics" => show_metrics = true,
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--list-models" => {
                println!("registered fault models (mocp_core::standard_registry):");
                for (name, description) in mocp_core::standard_registry().descriptions() {
                    println!("  {name:<6} {description}");
                }
                println!("registered 3-D fault models (mocp_3d::standard_registry_3d):");
                for (name, description) in mocp_3d::standard_registry_3d().descriptions() {
                    println!("  {name:<6} {description}");
                }
                return;
            }
            other if FIGURES.contains(&other) => figures.push(other.to_string()),
            _ => usage(),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }

    if (show_metrics || trace_path.is_some()) && !mocp_obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature; --metrics/--trace emit empty output \
             (rebuild with `--features obs`)"
        );
    }
    if trace_path.is_some() {
        mocp_obs::trace::start_capture();
    }

    // Pin the global pool before any parallel work, overriding the
    // RAYON_NUM_THREADS environment variable.
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("--threads must be set before the pool is used");
    }

    let mut config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    if let Some(t) = trials {
        config.trials = t;
    }

    let wants = |name: &str| figures.iter().any(|f| f == name || f == "all");
    let allowed = |dist: FaultDistribution| only_distribution.is_none_or(|only| only == dist);
    let emit = |series: &experiments::Series| {
        if csv {
            print!("{}", experiments::render_csv(series));
        } else {
            println!("{}", render_table(series));
        }
    };

    // Builds the scenario for one distribution in the selected dimension,
    // applying the --trials and --models overrides.
    let scenario = |dist: FaultDistribution| {
        let mut s = match (dim, quick) {
            (3, true) => Scenario::quick_3d(dist),
            (3, false) => Scenario::paper_figures_3d(dist),
            _ => Scenario::paper_figures(&config, dist),
        };
        if let Some(t) = trials {
            s.trials = t;
        }
        if let Some(m) = &models {
            s.models = m.clone();
        }
        s
    };

    // A figure whose suffix names the filtered-out distribution (including
    // via the default "all") would otherwise vanish silently; say so once.
    if let Some(only) = only_distribution {
        let (other, other_figures): (_, [&str; 3]) = match only {
            FaultDistribution::Random => {
                (FaultDistribution::Clustered, ["fig9b", "fig10b", "fig11b"])
            }
            FaultDistribution::Clustered => {
                (FaultDistribution::Random, ["fig9a", "fig10a", "fig11a"])
            }
        };
        if other_figures.iter().any(|f| wants(f)) {
            eprintln!(
                "note: --distribution {} suppresses the {} figures ({})",
                only.label(),
                other.label(),
                other_figures.join(", ")
            );
        }
    }

    if streaming {
        if dim != 2 {
            eprintln!("error: --streaming is a 2-D execution mode (the incremental engine)");
            std::process::exit(2);
        }
        if models.is_some() {
            eprintln!(
                "error: --models has no effect with --streaming (the incremental \
                 engine always maintains the minimum-polygon model)"
            );
            std::process::exit(2);
        }
        if wants("fig11a") || wants("fig11b") {
            eprintln!("note: fig11 (rounds) has no streaming formulation; skipped");
        }
        let run = |dist: FaultDistribution| {
            run_scenario_streaming(&Scenario::paper_figures(&config, dist))
        };
        // Only figures 9/10 exist in streaming form; a fig11-only request
        // must not pay for a sweep whose output would be discarded.
        let stream_random =
            (wants("fig9a") || wants("fig10a")) && allowed(FaultDistribution::Random);
        let stream_clustered =
            (wants("fig9b") || wants("fig10b")) && allowed(FaultDistribution::Clustered);
        // The two distributions are independent sweeps; run them concurrently.
        let (random, clustered) = rayon::join(
            || stream_random.then(|| run(FaultDistribution::Random)),
            || stream_clustered.then(|| run(FaultDistribution::Clustered)),
        );
        for (result, fig9_wanted, fig10_wanted) in [
            (&random, wants("fig9a"), wants("fig10a")),
            (&clustered, wants("fig9b"), wants("fig10b")),
        ] {
            if let Some(r) = result {
                if fig9_wanted {
                    emit(&r.fig9_series());
                }
                if fig10_wanted {
                    emit(&r.fig10_series());
                }
            }
        }
        finish_obs(show_metrics, trace_path.as_deref());
        return;
    }

    // In 3-D (or with a custom --models list) the output is the generic
    // per-metric series; fig11 only exists as a 2-D paper figure.
    let generic_series = dim == 3 || models.is_some();
    let fig11_possible = dim == 2;
    let need = |fig9_name: &str, fig10_name: &str, fig11_name: &str, dist: FaultDistribution| {
        allowed(dist)
            && (wants(fig9_name) || wants(fig10_name) || (fig11_possible && wants(fig11_name)))
    };
    let need_random = need("fig9a", "fig10a", "fig11a", FaultDistribution::Random);
    let need_clustered = need("fig9b", "fig10b", "fig11b", FaultDistribution::Clustered);
    if dim == 3 && (wants("fig11a") || wants("fig11b")) && !figures.iter().any(|f| f == "all") {
        eprintln!("note: fig11 (rounds) has no 3-D figure; skipped");
    }

    // One runner for both dimensions; only the registry differs. The two
    // distributions are independent sweeps; run them concurrently.
    let run = |dist: FaultDistribution| -> ScenarioResult {
        let s = scenario(dist);
        if dim == 3 {
            run_scenario(&mocp_3d::standard_registry_3d(), &s)
        } else {
            run_scenario(&mocp_core::standard_registry(), &s)
        }
        .unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    };
    let (random, clustered) = rayon::join(
        || need_random.then(|| run(FaultDistribution::Random)),
        || need_clustered.then(|| run(FaultDistribution::Clustered)),
    );

    let print_for =
        |result: &ScenarioResult, fig9_wanted: bool, fig10_wanted: bool, fig11_wanted: bool| {
            if generic_series {
                if fig9_wanted {
                    emit(&result.series(Metric::DisabledNonfaulty));
                }
                if fig10_wanted {
                    emit(&result.series(Metric::AvgRegionSize));
                }
                if fig11_wanted && fig11_possible {
                    emit(&result.series(Metric::Rounds));
                }
            } else {
                if fig9_wanted {
                    emit(&figure9(result));
                    emit(&figure9_raw(result));
                }
                if fig10_wanted {
                    emit(&figure10(result));
                }
                if fig11_wanted {
                    emit(&figure11(result));
                }
            }
        };

    if let Some(r) = &random {
        print_for(r, wants("fig9a"), wants("fig10a"), wants("fig11a"));
    }
    if let Some(c) = &clustered {
        print_for(c, wants("fig9b"), wants("fig10b"), wants("fig11b"));
    }
    finish_obs(show_metrics, trace_path.as_deref());
}
