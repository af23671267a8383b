//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call and each
//! replayed layer function — nothing inside the workspace is
//! instrumented. Every span carries the op id it belongs to and the name
//! of the span that caused it; counts are recorded at the same
//! boundaries. Everything stays in memory until [`Tracer::write_jsonl`]
//! runs at the end of the benchmark.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
struct Span {
    /// Layer span name, e.g. `core.search`.
    name: &'static str,
    /// The span that caused this one (empty for an op's root span).
    parent: &'static str,
    op: u64,
    /// Recording thread (small integer, in order of first use).
    thread: u32,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    dur_ns: u64,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans and counts from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Time `f` as span `name` of op `op`, caused by `parent`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, op, start, Instant::now());
        out
    }

    /// Record an interval measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            parent,
            op,
            thread: THREAD.with(|t| *t),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        };
        self.spans.lock().expect("tracer lock").push(span);
    }

    /// Add `value` to counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        *self
            .counts
            .lock()
            .expect("tracer lock")
            .entry(name)
            .or_insert(0.0) += value;
    }

    /// A counter's total (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("tracer lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Total milliseconds of all spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations (ms) of the spans named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line, then the counters.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("tracer lock").iter() {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.op,
                s.name,
                s.parent,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        for (name, value) in self.counts.lock().expect("tracer lock").iter() {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}
