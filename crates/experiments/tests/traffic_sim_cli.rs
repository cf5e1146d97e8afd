//! `traffic_sim --vc-capacity` accepts exactly the capacities the
//! simulator can hold: one occupancy byte per virtual channel, so 255 is
//! the largest, and anything above it is rejected while the arguments are
//! parsed instead of being truncated to a smaller (or zero) capacity.

use std::process::Command;

fn traffic_sim(capacity: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_traffic_sim"))
        .args([
            "--quick",
            "--csv-only",
            "--messages",
            "200",
            "--trials",
            "1",
        ])
        .args(["--pattern", "uniform", "--vc-capacity", capacity])
        .output()
        .expect("traffic_sim runs")
}

#[test]
fn vc_capacity_above_255_is_rejected() {
    let out = traffic_sim("256");
    assert!(!out.status.success(), "--vc-capacity 256 must fail");
    assert!(out.stdout.is_empty(), "no CSV for a rejected capacity");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn vc_capacity_255_delivers_every_message() {
    let out = traffic_sim("255");
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
