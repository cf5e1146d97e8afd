//! Spans recorded in the benchmark's own code around each call into a
//! layer of the program.
//!
//! Every thread keeps its spans in memory; nothing is written until the
//! workload ends. A span's layer is its name up to the first `.`
//! (`fblock.fb` belongs to `fblock`). Self time is a span's duration minus
//! the time its child spans cover, so per thread the self times of all
//! spans under one root add up exactly to the root's duration; the root's
//! own self time is the unattributed remainder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, for example `fblock.fb`.
    pub name: &'static str,
    /// Nanoseconds since the process's trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the process's trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct ThreadSpans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct SpanGuard {
    index: Option<usize>,
}

/// Opens a span on the calling thread; it closes when the guard drops.
/// Costs one relaxed load when recording is off.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { index: None };
    }
    let start_ns = now_ns();
    let index = SPANS.with(|cell| {
        let mut t = cell.borrow_mut();
        let parent = t.open.last().copied();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let index = t.spans.len() - 1;
        t.open.push(index);
        index
    });
    SpanGuard { index: Some(index) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = now_ns();
            SPANS.with(|cell| {
                let mut t = cell.borrow_mut();
                t.spans[index].end_ns = end_ns;
                t.open.pop();
            });
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn scoped<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Takes every finished span the calling thread recorded.
pub fn take_thread_spans() -> Vec<Span> {
    SPANS.with(|cell| {
        let mut t = cell.borrow_mut();
        assert!(t.open.is_empty(), "spans still open when taken");
        std::mem::take(&mut t.spans)
    })
}

/// Per-layer self times of one thread's spans under one root span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// The root span's duration.
    pub wall_ns: u64,
    /// The root span's own self time: benchmark code between spans.
    pub unattributed_ns: u64,
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Builds the ledger of the root span at `root` in `spans`.
    pub fn of(spans: &[Span], root: usize) -> Ledger {
        let mut children_ns = vec![0u64; spans.len()];
        let mut in_root = vec![false; spans.len()];
        in_root[root] = true;
        // Parents precede their children in recording order.
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children_ns[p] += span.dur_ns();
                in_root[i] = in_root[p];
            }
        }
        let mut ledger = Ledger {
            wall_ns: spans[root].dur_ns(),
            ..Ledger::default()
        };
        for (i, span) in spans.iter().enumerate() {
            if !in_root[i] {
                continue;
            }
            let own = span.dur_ns() - children_ns[i];
            if i == root {
                ledger.unattributed_ns = own;
            } else {
                *ledger.layers.entry(span.layer()).or_default() += own;
            }
        }
        ledger
    }

    /// Self times plus the remainder; equals [`Ledger::wall_ns`].
    pub fn total_ns(&self) -> u64 {
        self.unattributed_ns + self.layers.values().sum::<u64>()
    }
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`),
/// one thread id per input list.
pub fn chrome_json(threads: &[(&str, &[Span])]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (tid, (label, spans)) in threads.iter().enumerate() {
        for span in spans.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"thread\":\"{}\"}}}}",
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                tid,
                label
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_and_remainder_add_up_to_the_root() {
        let spans = vec![
            span("run", 0, 100, None),
            span("fblock.fb", 10, 40, Some(0)),
            span("core.cmfp", 40, 70, Some(0)),
            span("core.inner", 50, 60, Some(2)),
            span("other", 200, 300, None),
        ];
        let ledger = Ledger::of(&spans, 0);
        assert_eq!(ledger.wall_ns, 100);
        assert_eq!(ledger.unattributed_ns, 40);
        assert_eq!(ledger.layers["fblock"], 30);
        assert_eq!(ledger.layers["core"], 30);
        assert_eq!(ledger.total_ns(), ledger.wall_ns);
    }
}
