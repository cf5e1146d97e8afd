//! Snapshot types and the table renderer shared by both build modes.
//!
//! Everything here is plain data: the live registry produces
//! [`MetricSample`]s, the no-op stubs produce an empty list, and the
//! renderer works on either. Keeping these types feature-independent
//! means consumers (`paper_figures`, `serve_workload`) can format metrics
//! without any `cfg` of their own.

/// Digest of one histogram at snapshot time. Percentiles are reported as
/// the lower bound of the log-linear bucket holding that rank, so they
/// under-report by at most one part in sixteen (see
/// [`Histogram`](crate::Histogram)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values (not bucketed).
    pub sum: u64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 90th percentile (bucket lower bound).
    pub p90: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
    /// Largest recorded value, rounded down to its bucket lower bound.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The value of one registered metric at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-written gauge level.
    Gauge(i64),
    /// Histogram digest.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// True when the metric recorded nothing since the last reset.
    pub fn is_zero(&self) -> bool {
        match self {
            MetricValue::Counter(v) => *v == 0,
            MetricValue::Gauge(v) => *v == 0,
            MetricValue::Histogram(h) => h.count == 0,
        }
    }
}

/// One named metric sampled from the registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Registry name, e.g. `"pool.steals"`.
    pub name: &'static str,
    /// Sampled value.
    pub value: MetricValue,
}

/// Renders samples as an aligned human-readable table, one metric per
/// line. Intended for the `--metrics` flags; returns an explanatory
/// placeholder when the list is empty (the `obs` feature is off or
/// nothing was recorded).
pub fn render_table(samples: &[MetricSample]) -> String {
    if samples.is_empty() {
        return "  (no metrics recorded; build with `--features obs`)\n".to_string();
    }
    let width = samples.iter().map(|s| s.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for sample in samples {
        let rendered = match sample.value {
            MetricValue::Counter(v) => format!("{v}"),
            MetricValue::Gauge(v) => format!("gauge {v}"),
            MetricValue::Histogram(h) => format!(
                "count {} sum {} mean {:.1} p50 {} p90 {} p99 {} max {}",
                h.count,
                h.sum,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            ),
        };
        out.push_str(&format!("  {:<width$}  {rendered}\n", sample.name));
    }
    out
}
