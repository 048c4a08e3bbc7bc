//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name (`"<layer>.<call>"`), a start and end on the tracer's
//! monotonic clock, a parent span and a group id shared by every span of one
//! scenario or submission. Spans stay in memory and are written once, as
//! JSON lines, when the benchmark ends.
//!
//! Calls too frequent to record one by one (`ResourceManager::on_interval`)
//! are folded into one *aggregate* span per parent: its duration is the
//! measured busy time, not the wall interval, and it carries the call count.
//!
//! A layer's self time is the summed duration of its spans minus the
//! durations of their direct children. Children are sequential and lie
//! inside their parent, so their durations sum to the part of the parent
//! they cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Identifier of a span within one [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `"<layer>.<call>"`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one scenario or submission.
    pub group: u64,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Busy time of an aggregate span (`None` for an interval span).
    pub busy_ns: Option<u64>,
    /// Calls folded into an aggregate span (1 for an interval span).
    pub calls: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Busy time of an aggregate span, `end - start` otherwise.
    pub fn duration_ns(&self) -> u64 {
        self.busy_ns
            .unwrap_or_else(|| self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Records spans, or nothing at all when disabled (the untraced walk).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns a dummy id
    /// when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, group: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            group,
            start_ns,
            end_ns: 0,
            busy_ns: None,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a span measured elsewhere, from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            group,
            start_ns: at(start),
            end_ns: at(end),
            busy_ns: None,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Records an aggregate child of `parent`: `calls` calls that were busy
    /// for `busy` in total.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        calls: u64,
        busy: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            group,
            start_ns,
            end_ns,
            busy_ns: Some(busy.as_nanos() as u64),
            calls,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (re-basing their ids and clock), so
    /// per-thread tracers can be written out as one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span.start_ns += shift;
            span.end_ns += shift;
            span
        }));
    }

    /// Summed span duration per span name, in seconds.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += span.duration_ns() as f64 * 1e-9;
        }
        totals
    }

    /// Self time per layer, in seconds (see the module docs).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let busy = span
                .busy_ns
                .map_or_else(|| "null".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{busy},\"calls\":{}}}",
                span.group, span.name, span.start_ns, span.end_ns, span.calls
            );
        }
        out
    }
}

/// Self time per layer, in seconds: each span's duration minus the summed
/// durations of its direct children, accumulated by the span's layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    let mut totals = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children_ns) {
        let own = span.duration_ns().saturating_sub(covered);
        *totals.entry(span.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    totals
}
