//! In-memory spans recorded around the benchmark's own calls into the
//! program (set-up phases, feed batches, client requests). They are kept in
//! memory while the run measures and written out as JSON when it ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer's epoch;
/// `parent` and `request` are 0 when absent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so it
    /// can open children. Returns `f`'s result and the span's duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            name,
            id,
            parent,
            request: 0,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (out, end - start)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Stores spans recorded elsewhere (a load thread's own buffer).
    pub fn absorb(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span store poisoned").extend(spans);
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Durations in milliseconds of every span named `name` whose parent
    /// span is named `parent`.
    pub fn durations_ms_under(&self, name: &str, parent: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let parents: std::collections::HashSet<u64> =
            spans.iter().filter(|s| s.name == parent).map(|s| s.id).collect();
        spans
            .iter()
            .filter(|s| s.name == name && parents.contains(&s.parent))
            .map(Span::ms)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Every span as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out.push('\n');
        out
    }
}
