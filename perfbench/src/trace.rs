//! Spans recorded from the benchmark's own code around its calls into each
//! layer of the simulator. Spans are kept in memory and written as JSON
//! lines when the run ends; a disabled tracer calls straight through and
//! reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in the run.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer whose public function was called (module name).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped, also when the traced call panics.
struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.id].end_ns = end;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    /// A tracer that records spans under `run_id` when `enabled`.
    pub fn new(enabled: bool, run_id: String) -> Self {
        Tracer { enabled, run_id, origin: Instant::now(), spans: RefCell::default(), open: RefCell::default() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, String::new())
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span { id, parent, layer, name: name.to_string(), start_ns: start, end_ns: start });
            id
        };
        self.open.borrow_mut().push(id);
        let _open = OpenSpan { tracer: self, id };
        f()
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as JSON lines, each carrying the run id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            out.push_str(&json::object([
                ("run", json::string(&self.run_id)),
                ("id", s.id.to_string()),
                ("parent", s.parent.map_or("null".to_string(), |p| p.to_string())),
                ("layer", json::string(s.layer)),
                ("name", json::string(&s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
            ]));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own
}

/// Self time summed per layer over span `root` and its descendants, so
/// spans recorded outside it (probes, checks) do not count. The root's own
/// layer gets the time no child covers.
pub fn self_seconds_by_layer(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_seconds(spans);
    // Spans are recorded in start order, so a parent precedes its children.
    let mut inside = vec![false; spans.len()];
    let mut by_layer = BTreeMap::new();
    for s in spans {
        inside[s.id] = s.id == root || s.parent.is_some_and(|p| inside[p]);
        if inside[s.id] {
            *by_layer.entry(s.layer).or_insert(0.0) += own[s.id];
        }
    }
    by_layer
}

/// Share of span `root`'s time that none of its children covers.
pub fn uncovered_share(spans: &[Span], root: usize) -> f64 {
    let total = spans[root].seconds();
    if total > 0.0 {
        self_seconds(spans)[root] / total
    } else {
        0.0
    }
}

/// The per-layer self-time table of span `root`, for humans.
pub fn self_time_table(spans: &[Span], root: usize) -> String {
    let by_layer = self_seconds_by_layer(spans, root);
    let total: f64 = by_layer.values().sum();
    let mut out = format!("{:<14} {:>10} {:>7}\n", "layer", "self s", "share");
    for (layer, secs) in &by_layer {
        out.push_str(&format!("{layer:<14} {secs:>10.4} {:>6.1}%\n", 100.0 * secs / total.max(1e-12)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer, name: layer.to_string(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "workload", 0, 10_000),
            span(1, Some(0), "experiments", 1_000, 8_000),
            span(2, Some(1), "batch", 2_000, 5_000),
            span(3, Some(0), "diskcache", 8_000, 9_000),
        ];
        let own = self_seconds(&spans);
        for (got, want) in own.iter().zip([2e-6, 4e-6, 3e-6, 1e-6]) {
            assert!((got - want).abs() < 1e-18, "{got} vs {want}");
        }
        let by_layer = self_seconds_by_layer(&spans, 0);
        assert!((by_layer["experiments"] - 4e-6).abs() < 1e-18);
        assert!((by_layer.values().sum::<f64>() - 1e-5).abs() < 1e-18, "self times partition the root");
        assert!((uncovered_share(&spans, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn self_time_by_layer_counts_only_the_root_subtree() {
        let spans = vec![
            span(0, None, "charstore", 0, 500),
            span(1, None, "workload", 1_000, 10_000),
            span(2, Some(1), "experiments", 1_000, 9_000),
            span(3, None, "batch", 10_000, 20_000),
        ];
        let by_layer = self_seconds_by_layer(&spans, 1);
        assert_eq!(by_layer.keys().copied().collect::<Vec<_>>(), ["experiments", "workload"]);
        assert!((by_layer["experiments"] - 8e-6).abs() < 1e-18);
        assert!((by_layer["workload"] - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn the_tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true, "t".to_string());
        let out = tracer.span("workload", "pass", || tracer.span("experiments", "fig", || 7));
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false, "t".to_string());
        off.span("workload", "pass", || ());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn a_panicking_call_still_closes_its_span() {
        let tracer = Tracer::new(true, "t".to_string());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.span("batch", "boom", || panic!("boom"));
        }));
        assert!(caught.is_err());
        tracer.span("batch", "after", || ());
        assert_eq!(tracer.spans()[1].parent, None, "the failed span was popped");
    }
}
