//! The benchmark's own tests: its names match `BENCHMARK.json`, every
//! workload passes its checks at quick size, and the checks reject
//! corrupted outputs.

use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{RoutePath, VirtualChannel};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{figures, route, serve, traffic, RunCfg, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Duration;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_names_equal_the_names_benchmark_json_declares() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = json
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("better").str(), "lower");
}

/// One test runs every workload in turn: span recording is switched on
/// and off for the whole process, so traced runs must not overlap.
#[test]
fn a_quick_pass_of_every_workload_passes_its_checks() {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 7,
                seconds: 0.2,
                trace,
                quick: true,
            };
            let (_, outcome) = perfbench::run(workload, &cfg).unwrap();
            assert!(
                outcome.errors.is_empty(),
                "{workload} (trace {trace}): {:?}",
                outcome.errors
            );
            assert!(outcome.attempted > 0, "{workload} attempted nothing");
            let names = if trace { PER_LAYER } else { END_TO_END };
            let line = Json::parse(&outcome.result_line(names));
            assert_eq!(line.get("correct"), &Json::Bool(true));
            let Json::Obj(metrics) = line.get("metrics") else {
                panic!("metrics object")
            };
            let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = names.iter().map(|&(n, _)| n).collect();
            expected.sort_unstable();
            assert_eq!(
                printed, expected,
                "{workload} prints exactly the declared names"
            );
            if !trace {
                for &(name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
                    let Json::Num(v) = metrics[name].get("value") else {
                        panic!("number")
                    };
                    assert!(*v > 0.0, "{workload}: {name} = {v}");
                }
            } else {
                let ms = |k: &str| match metrics[k].get("value") {
                    Json::Num(v) => *v,
                    _ => panic!("number"),
                };
                let layers: f64 = PER_LAYER
                    .iter()
                    .filter(|(n, _)| n.starts_with("ledger."))
                    .map(|(n, _)| ms(n))
                    .sum();
                let wall = ms("trace.wall_ms");
                assert!(wall > 0.0);
                assert!(
                    (layers + ms("trace.unattributed_ms") - wall).abs() < 1e-6 * wall.max(1.0),
                    "{workload}: ledger {layers} + remainder does not add up to {wall}"
                );
            }
        }
    }
}

#[test]
fn a_flipped_byte_in_either_golden_csv_is_rejected() {
    let flip = |s: &str| {
        let mut b = s.as_bytes().to_vec();
        let i = b.len() / 2;
        b[i] ^= 1;
        String::from_utf8(b).unwrap()
    };
    assert!(figures::check_fixture(figures::FIXTURE).is_ok());
    assert!(figures::check_fixture(&flip(figures::FIXTURE)).is_err());
    assert!(traffic::check_fixture(traffic::FIXTURE).is_ok());
    assert!(traffic::check_fixture(&flip(traffic::FIXTURE)).is_err());
}

#[test]
fn an_invalid_path_is_rejected() {
    let mesh = Mesh2D::square(4);
    let status = StatusMap::all_enabled(&mesh);
    let c = Coord::new;
    let path = |hops: Vec<Coord>| RoutePath {
        channels: vec![VirtualChannel(0); hops.len() - 1],
        abnormal_hops: 0,
        hops,
    };
    let good = path(vec![c(0, 0), c(1, 0), c(1, 1)]);
    assert!(route::validate_path(&mesh, &status, c(0, 0), c(1, 1), &good).is_ok());
    let jump = path(vec![c(0, 0), c(1, 1)]);
    assert!(route::validate_path(&mesh, &status, c(0, 0), c(1, 1), &jump).is_err());
    let short = path(vec![c(0, 0), c(1, 0)]);
    assert!(route::validate_path(&mesh, &status, c(0, 0), c(1, 1), &short).is_err());
    let mut faulty = status.clone();
    faulty.set(c(1, 0), mesh2d::NodeStatus::Faulty);
    assert!(route::validate_path(&mesh, &faulty, c(0, 0), c(1, 1), &good).is_err());
}

#[test]
fn broken_traffic_conservation_is_rejected() {
    let report = mocp_traffic::TrafficReport {
        offered: 10,
        injected: 8,
        endpoint_excluded: 2,
        delivered: 7,
        stranded: 1,
        ..Default::default()
    };
    assert!(traffic::check_conservation(&report).is_ok());
    let lost = mocp_traffic::TrafficReport {
        delivered: 6,
        ..report.clone()
    };
    assert!(traffic::check_conservation(&lost).is_err());
}

#[test]
fn a_subscription_gap_is_rejected() {
    let at = Duration::ZERO;
    let expected = vec![vec![1, 2, 3], vec![2]];
    assert!(
        serve::check_seqs(&[(0, 1, at), (1, 2, at), (0, 2, at), (0, 3, at)], &expected).is_ok()
    );
    assert!(serve::check_seqs(&[(0, 1, at), (0, 3, at), (1, 2, at)], &expected).is_err());
    assert!(serve::check_seqs(&[(0, 1, at), (0, 2, at), (0, 3, at)], &expected).is_err());
}

#[test]
fn diagonal_faults_against_the_border_need_the_fallback_search() {
    let mesh = Mesh2D::square(16);
    let cmfp = mocp_core::standard_registry().build("CMFP").unwrap();
    let needs = |coords: Vec<Coord>| {
        let faults = mesh2d::FaultSet::from_coords(mesh, coords);
        let outcome = cmfp.construct(&mesh, &faults);
        let regions = meshroute::RegionMap::from_status(&mesh, &outcome.status);
        traffic::needs_fallback(&mesh, &outcome.status, &regions)
    };
    assert!(needs(vec![Coord::new(0, 6), Coord::new(1, 7)]));
    assert!(!needs(vec![Coord::new(5, 6), Coord::new(6, 7)]));
    assert!(!needs(vec![Coord::new(8, 8)]));
}
