//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric untraced, every per-layer metric traced. The line
//! before it is the run's provenance. Progress and diagnostics go to
//! standard error.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{provenance, run, RunCfg};
use std::process::ExitCode;

fn parse() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (steal0, total0) = provenance::cpu_ticks();
    let (inputs, mut outcome) = match run(&workload, &cfg) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::stats::peak_rss_mb() {
        Ok(mb) => outcome.set("peak_rss_mb", mb),
        Err(e) => outcome.errors.push(e),
    }
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in declared {
        match outcome.values.get(name) {
            Some(v) if !v.is_finite() => outcome.errors.push(format!("{name} is not a number")),
            None if !cfg.trace => outcome.errors.push(format!("{name} was not measured")),
            _ => {}
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let seconds = cfg.seconds.round() as u64;
    let (steal1, total1) = provenance::cpu_ticks();
    let steal_share =
        steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    println!(
        "{}",
        provenance::json(
            &workload,
            cfg.seed,
            seconds,
            cfg.trace,
            &inputs,
            steal_share
        )
    );
    println!("{}", outcome.result_line(declared));
    ExitCode::SUCCESS
}
