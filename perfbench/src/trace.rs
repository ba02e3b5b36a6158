//! In-memory span recording for the traced run.
//!
//! A span covers one call from the benchmark into a layer's public
//! function: its layer, a name, start and end, the span that caused it,
//! and the trace (campaign, request, or setup round) it belongs to.
//! Spans stay in memory and are written out once, when the run ends. A
//! layer's self time is the total duration of its spans minus the part
//! of each span that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0; 0 means "no parent").
    pub id: u64,
    /// The causing span, or 0 for a root.
    pub parent: u64,
    /// The campaign, request, or setup round this span belongs to.
    pub trace: u64,
    /// Layer name, e.g. `engine` or `http`.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A span recorder. When disabled, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh trace id (one per campaign, request, or setup round).
    pub fn new_trace(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span of `layer`/`name` under `parent` (0 for a
    /// root); `f` receives the new span's id to parent its children.
    pub fn span<R>(
        &self,
        parent: u64,
        trace: u64,
        layer: &'static str,
        name: impl FnOnce() -> String,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = Span { id, parent, trace, layer, name: name(), start_ns: start, end_ns: end };
        self.spans.lock().expect("no span recorder panicked").push(span);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span recorder panicked").len()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// union of its children's intervals.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("no span recorder panicked");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            *out.entry(s.layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span recorder panicked");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.trace,
                s.layer,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span(
            0,
            1,
            "outer",
            || "o".into(),
            |id| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                t.span(
                    id,
                    1,
                    "inner",
                    || "i".into(),
                    |_| std::thread::sleep(std::time::Duration::from_millis(5)),
                );
            },
        );
        let by = t.self_ns_by_layer();
        assert!(by["inner"] >= 5_000_000);
        assert!(by["outer"] >= 2_000_000 && by["outer"] < 5_000_000, "{by:?}");
    }
}
