//! Tracing for the per-layer run.
//!
//! Two sources: spans the benchmark records around each public call it
//! makes (kept per thread in a [`SpanLog`], merged at the end), and the
//! pool's own lifecycle spans collected by a `cim_obs::RingRecorder`
//! attached through `RuntimePool::with_sink`. Everything stays in memory
//! until the run ends, then [`write_out`] saves it.

use cim_obs::Event;
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark-side span. Spans of one op share `op`; the `op` span
/// is the parent of that op's `submit`/`wait`/`register` spans.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op id (0 for layer microbenches and set-up).
    pub op: u64,
    /// Span name (`op`, `submit`, `wait`, `register`, `drop`, `layer`…).
    pub name: &'static str,
    /// Workload kind, dataset kind or layer metric the span belongs to.
    pub label: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span buffer; records nothing when tracing is off.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for one thread; all logs of a run share `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end)` as a span when tracing is on.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                op,
                name,
                label,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Moves another thread's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations (µs) of spans named `name`, optionally with `label`.
    pub fn durations_us(&self, name: &str, label: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(Span::us)
            .collect()
    }
}

/// One closed pool span, rebuilt from its Open/Close events.
#[derive(Debug, Clone)]
pub struct PoolSpan {
    /// Stage name.
    pub name: &'static str,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Open time, ns since the pool tracer's epoch.
    pub open_ns: u64,
    /// Close time, ns since the pool tracer's epoch.
    pub close_ns: u64,
    /// Self time: duration minus the union of its children's intervals.
    pub self_ns: u64,
}

/// Rebuilds closed pool spans from recorder events and computes each
/// span's self time. Spans whose open or close fell out of the ring are
/// skipped.
pub fn pool_spans(events: &[Event]) -> Vec<PoolSpan> {
    let mut open: BTreeMap<u64, (&'static str, u64, u64)> = BTreeMap::new();
    let mut closed: BTreeMap<u64, PoolSpan> = BTreeMap::new();
    for e in events {
        match e {
            Event::Open {
                span,
                parent,
                name,
                wall_ns,
                ..
            } => {
                open.insert(span.0, (name, parent.0, *wall_ns));
            }
            Event::Close { span, wall_ns, .. } => {
                if let Some((name, parent, open_ns)) = open.remove(&span.0) {
                    closed.insert(
                        span.0,
                        PoolSpan {
                            name,
                            parent,
                            open_ns,
                            close_ns: (*wall_ns).max(open_ns),
                            self_ns: 0,
                        },
                    );
                }
            }
            _ => {}
        }
    }
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in closed.values() {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.open_ns, s.close_ns));
        }
    }
    for (id, s) in closed.iter_mut() {
        let covered = children
            .get_mut(id)
            .map_or(0, |iv| union_within(iv, s.open_ns, s.close_ns));
        s.self_ns = (s.close_ns - s.open_ns).saturating_sub(covered);
    }
    closed.into_values().collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Writes the run's spans under `perfbench/out/`: the benchmark spans
/// as JSON lines and the pool's events as a Chrome trace. Best effort:
/// a write error is reported on stderr and does not fail the run.
pub fn write_out(tag: &str, log: &SpanLog, pool_chrome_trace: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let mut lines = String::new();
    for s in &log.spans {
        lines.push_str(&format!(
            "{{\"op\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op, s.name, s.label, s.start_ns, s.end_ns
        ));
    }
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{tag}-spans.jsonl")), lines))
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{tag}-pool-trace.json")),
                pool_chrome_trace,
            )
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write trace files: {e}");
    }
}
