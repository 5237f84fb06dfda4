//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run began), the
//! id of the span that caused it, and the id of the request it belongs to
//! (0 outside requests). Each thread records into its own [`SpanSink`];
//! sinks merge into the shared [`Tracer`] when they are dropped, so the
//! request path takes no lock. Per-name totals cover every span; the
//! first [`RETAINED_PER_NAME`] spans of each name are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans of one name kept for the trace file; later ones still count in
/// the totals.
pub const RETAINED_PER_NAME: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and summed duration of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Default)]
struct Merged {
    spans: Vec<Span>,
    kept: BTreeMap<&'static str, usize>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

/// The run's span store. Disabled tracers hand out sinks that record
/// nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    merged: Mutex<Merged>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            merged: Mutex::new(Merged::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span or request id (never 0).
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn sink(&self) -> SpanSink<'_> {
        SpanSink {
            tracer: self,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            overflow: 0,
        }
    }

    /// Totals of the spans named `name` recorded by dropped sinks.
    pub fn total(&self, name: &str) -> Total {
        let merged = self.merged.lock().expect("tracer lock poisoned");
        merged.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        crate::common::ratio(t.total_ns, t.count)
    }

    /// Write the retained spans as JSON lines, oldest first.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let merged = self.merged.lock().expect("tracer lock poisoned");
        let mut spans = merged.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        if merged.dropped > 0 {
            writeln!(out, "{{\"spans_not_retained\":{}}}", merged.dropped)?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// One thread's span buffer.
pub struct SpanSink<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    overflow: u64,
}

impl SpanSink<'_> {
    pub fn new_id(&self) -> u64 {
        self.tracer.new_id()
    }

    /// Record a finished leaf span (one no other span names as parent)
    /// under a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.tracer.enabled {
            let id = self.tracer.new_id();
            self.push(id, name, parent, request, start, end);
        }
    }

    /// Record a finished span under an id taken earlier with
    /// [`SpanSink::new_id`], so its children could name it as parent.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.tracer.enabled {
            self.push(id, name, parent, request, start, end);
        }
    }

    fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let epoch = self.tracer.epoch;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let total = self.totals.entry(name).or_default();
        total.count += 1;
        total.total_ns += end_ns - start_ns;
        if total.count <= RETAINED_PER_NAME as u64 {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.overflow += 1;
        }
    }
}

impl Drop for SpanSink<'_> {
    fn drop(&mut self) {
        let Ok(mut merged) = self.tracer.merged.lock() else {
            return;
        };
        merged.dropped += self.overflow;
        for span in self.spans.drain(..) {
            let kept = merged.kept.entry(span.name).or_default();
            if *kept < RETAINED_PER_NAME {
                *kept += 1;
                merged.spans.push(span);
            } else {
                merged.dropped += 1;
            }
        }
        for (name, t) in std::mem::take(&mut self.totals) {
            let total = merged.totals.entry(name).or_default();
            total.count += t.count;
            total.total_ns += t.total_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn totals_merge_across_sinks() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let phase = tracer.new_id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut sink = tracer.sink();
                    sink.record("get", phase, sink.new_id(), at(10), at(40));
                });
            }
        });
        let mut sink = tracer.sink();
        sink.record_as(phase, "phase", 0, 0, at(0), at(100));
        drop(sink);
        assert_eq!(tracer.total("get").count, 2);
        assert_eq!(tracer.total("get").total_ns, 60_000);
        assert_eq!(tracer.mean_ns("get"), 30_000.0);
        assert_eq!(tracer.total("phase").count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut sink = tracer.sink();
        let now = Instant::now();
        sink.record("get", 0, 0, now, now);
        drop(sink);
        assert_eq!(tracer.total("get").count, 0);
    }

    #[test]
    fn write_emits_one_line_per_span_with_parent_and_request() {
        let tracer = Tracer::new(true);
        let now = Instant::now();
        let mut sink = tracer.sink();
        let root = sink.new_id();
        sink.record_as(root, "root", 0, 0, now, now + Duration::from_micros(5));
        sink.record("child", root, 7, now, now + Duration::from_micros(1));
        drop(sink);
        let dir = std::env::temp_dir().join(format!("pbc-benchmark-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(tracer.write(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(&format!(
            "\"parent\":{root},\"request\":7,\"name\":\"child\""
        )));
    }
}
