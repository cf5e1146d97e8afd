//! `traffic_sim --vc-capacity` accepts exactly the capacities the
//! simulator can hold: one occupancy byte per virtual channel, so 255 is
//! the largest, and anything above it is rejected while the arguments are
//! parsed instead of being truncated to a smaller (or zero) capacity.
//! Zero trials, rate or capacity is rejected the same way: each must be at
//! least 1.

use std::process::{Command, Output};

/// Runs a small uniform-traffic sweep; `extra` flags override the base ones.
fn traffic_sim(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_traffic_sim"))
        .args([
            "--quick",
            "--csv-only",
            "--messages",
            "200",
            "--trials",
            "1",
        ])
        .args(["--pattern", "uniform"])
        .args(extra)
        .output()
        .expect("traffic_sim runs")
}

fn assert_usage_error(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what} must exit 2");
    assert!(out.stdout.is_empty(), "no CSV for {what}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn vc_capacity_above_255_is_rejected() {
    assert_usage_error(&traffic_sim(&["--vc-capacity", "256"]), "--vc-capacity 256");
}

#[test]
fn zero_trials_rate_or_capacity_is_rejected() {
    for flag in ["--trials", "--rate", "--vc-capacity"] {
        assert_usage_error(&traffic_sim(&[flag, "0"]), &format!("{flag} 0"));
    }
}

#[test]
fn vc_capacity_255_delivers_every_message() {
    let out = traffic_sim(&["--vc-capacity", "255"]);
    assert!(out.status.success(), "--vc-capacity 255 must run");
    let csv = String::from_utf8(out.stdout).expect("utf-8 CSV");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let (fraction, stranded) = (col("delivered_fraction"), col("stranded"));
    // The per-cell table ends at the blank line before the histogram table.
    let rows: Vec<Vec<&str>> = lines
        .take_while(|l| !l.is_empty())
        .map(|l| l.split(',').collect())
        .collect();
    assert!(!rows.is_empty());
    for row in rows {
        assert_eq!(row[fraction], "1.000000", "{row:?}");
        assert_eq!(row[stranded], "0.0", "{row:?}");
    }
}
