//! Where a result came from: source revision, build, host and inputs.

use std::process::Command;

/// Printed with every result: the numbers come from whatever host ran
/// the benchmark, which is usually shared.
pub const HOST_NOTE: &str = "measured on a shared host (2 cores when this benchmark was defined); \
     other tenants' load shows up as noise, so compare medians of many runs";

/// The source revision and whether the working tree differs from it.
/// Outside a git checkout both read `"unknown"`.
fn git_revision() -> (String, String) {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = match run(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(s) if s.is_empty() => "false",
                Some(_) => "true",
                None => "unknown",
            };
            (rev, dirty.to_string())
        }
        None => ("unknown".to_string(), "unknown".to_string()),
    }
}

/// The host's CPU time so far, in clock ticks: `(stolen, total)` from
/// the first line of `/proc/stat`; zeros where unavailable. Time the
/// hypervisor gave to other guests is the main source of noise on a
/// shared host.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One JSON object describing the run; `inputs` is a list of
/// `(name, value)` input sizes, `steal_share` the share of the host's
/// CPU time stolen while the run lasted.
pub fn json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    inputs: &[(&str, String)],
    steal_share: f64,
) -> String {
    let (revision, dirty) = git_revision();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let inputs: Vec<String> = inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"git_revision\": \"{revision}\", \"git_dirty\": \"{dirty}\", \
         \"profile\": \"{}\", \"obs_enabled\": {}, \"available_parallelism\": {threads}, \
         \"inputs\": {{{}}}, \"host_steal_share\": {steal_share:.4}, \"host_note\": \"{HOST_NOTE}\"}}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        mocp_obs::enabled(),
        inputs.join(", ")
    )
}
