//! `paper_figures` checks its figure names and trial count while the
//! arguments are parsed: an unknown figure name, even beside a known one,
//! and `--trials 0` exit 2 with the usage text and print no figure.

use std::process::{Command, Output};

fn paper_figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_figures"))
        .args(args)
        .output()
        .expect("paper_figures runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = paper_figures(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "no figures for {args:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_figure_names_are_rejected() {
    let known = paper_figures(&["--quick", "--trials", "1", "--csv", "fig11a"]);
    assert!(
        known.status.success() && !known.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&known.stderr)
    );
    assert_usage_error(&["--quick", "fig99"]);
    assert_usage_error(&["--quick", "fig9a", "fig9z"]);
}

#[test]
fn zero_trials_are_rejected() {
    assert_usage_error(&["--quick", "--trials", "0", "fig9a"]);
}
