//! In-memory spans for the traced run.
//!
//! A span records one call from the benchmark into a layer's public
//! function: its name (`layer.call`), start and end, the span that was open
//! on the same thread when it began (its parent), and the request it served.
//! Spans stay in memory and are written out when the run ends. A *lane* is
//! one thread's timeline; every lane registers the interval it was active,
//! so time on it that no span covers is reported as unattributed instead of
//! disappearing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub lane: u64,
    pub request: Option<u64>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The interval one lane (thread) was active during the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneExtent {
    pub lane: u64,
    pub start: u64,
    pub end: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn this_lane() -> u64 {
    LANE.with(|lane| {
        let id = lane
            .get()
            .unwrap_or_else(|| NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        lane.set(Some(id));
        id
    })
}

/// Collects spans when enabled; when disabled every call is a no-op, so the
/// untraced run executes the same code with nothing recorded.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    lanes: Mutex<Vec<LaneExtent>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_for(name, None)
    }

    /// [`Tracer::span`] tagged with the request it serves.
    pub fn span_for(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                span: Span {
                    id,
                    parent,
                    name,
                    lane: this_lane(),
                    request,
                    start: self.now(),
                    end: 0,
                },
            }),
        }
    }

    /// Registers the calling thread as a lane for as long as the guard
    /// lives.
    pub fn lane(&self) -> LaneGuard<'_> {
        LaneGuard {
            tracer: self,
            lane: this_lane(),
            start: self.now(),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    pub fn lanes(&self) -> Vec<LaneExtent> {
        self.lanes.lock().expect("lane lock poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"lane\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.lane,
                opt(s.request),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    span: Span,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(OpenSpan { tracer, mut span }) = self.open.take() else {
            return;
        };
        span.end = tracer.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == span.id) {
                open.remove(at);
            }
        });
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Records its lane's active interval on drop.
pub struct LaneGuard<'a> {
    tracer: &'a Tracer,
    lane: u64,
    start: u64,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end = self.tracer.now();
        if let Ok(mut lanes) = self.tracer.lanes.lock() {
            lanes.push(LaneExtent {
                lane: self.lane,
                start: self.start,
                end,
            });
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Where the lanes' time went: self time per layer, plus what no span
/// covered. By construction `self_total() + unattributed == lane_time` for
/// spans that nest within their parents and lanes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    pub lane_time: u64,
    pub by_layer: BTreeMap<&'static str, u64>,
    pub unattributed: u64,
    pub spans: usize,
}

impl Attribution {
    pub fn self_total(&self) -> u64 {
        self.by_layer.values().sum()
    }

    /// The share of lane time a layer spent in itself.
    pub fn layer_frac(&self, layer: &str) -> f64 {
        let t = self.by_layer.get(layer).copied().unwrap_or(0);
        t as f64 / self.lane_time.max(1) as f64
    }

    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed as f64 / self.lane_time.max(1) as f64
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let child = children.iter().map(|c| (c.start, c.end)).collect();
    (span.end - span.start) - covered(child, span.start, span.end)
}

/// Attributes every lane's time to the layers whose spans covered it.
pub fn attribute(spans: &[Span], lanes: &[LaneExtent]) -> Attribution {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let mut out = Attribution {
        spans: spans.len(),
        ..Attribution::default()
    };
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        *out.by_layer.entry(s.layer()).or_default() += self_time(s, kids);
    }
    for lane in lanes {
        let roots = spans
            .iter()
            .filter(|s| s.lane == lane.lane && s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        let wall = lane.end - lane.start;
        out.lane_time += wall;
        out.unattributed += wall - covered(roots, lane.start, lane.end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            lane: 0,
            request: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let parent = span(1, None, "server.sweep", 0, 100);
        let a = span(2, Some(1), "json.parse", 10, 40);
        // Overlaps `a`: the union, not the sum, is subtracted.
        let b = span(3, Some(1), "json.parse", 30, 50);
        let c = span(4, Some(1), "json.render", 90, 120);
        assert_eq!(self_time(&parent, &[&a, &b, &c]), 100 - 40 - 10);
        assert_eq!(self_time(&a, &[]), 30);
    }

    #[test]
    fn layers_plus_unattributed_reconcile_with_lane_time() {
        let spans = vec![
            span(1, None, "server.sweep", 10, 60),
            span(2, Some(1), "json.parse", 20, 30),
            span(3, None, "trace.gen", 70, 90),
        ];
        let lanes = [LaneExtent {
            lane: 0,
            start: 0,
            end: 100,
        }];
        let a = attribute(&spans, &lanes);
        assert_eq!(a.lane_time, 100);
        assert_eq!(a.by_layer["server"], 40);
        assert_eq!(a.by_layer["json"], 10);
        assert_eq!(a.by_layer["trace"], 20);
        assert_eq!(a.unattributed, 30);
        assert_eq!(a.self_total() + a.unattributed, a.lane_time);
    }

    #[test]
    fn tracer_records_nesting_lanes_and_requests() {
        let tracer = Tracer::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _lane = tracer.lane();
                let _outer = tracer.span_for("server.point", Some(7));
                let _inner = tracer.span("json.parse");
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "json.parse").unwrap();
        let outer = spans.iter().find(|s| s.name == "server.point").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.request, Some(7));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let a = attribute(&spans, &tracer.lanes());
        assert_eq!(a.self_total() + a.unattributed, a.lane_time);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        {
            let _lane = tracer.lane();
            let _s = tracer.span("trace.gen");
        }
        assert!(tracer.spans().is_empty());
        assert!(tracer.lanes().is_empty());
    }
}
