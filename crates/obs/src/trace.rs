//! Structured tracing with a bounded flight recorder.
//!
//! A [`Tracer`] records **spans** (named regions with a duration, closed
//! by dropping a [`SpanGuard`]) and **events** (point-in-time records)
//! into a bounded in-memory ring — the *flight recorder*. Nothing is
//! written anywhere until someone asks: the gap server's
//! `GET /admin/trace` serves the last N records as NDJSON, and
//! [`Tracer::dump_to_stderr`] empties the ring into stderr on a panic or
//! an unrecoverable `SolverFault`, giving a post-mortem of what the
//! process was doing when it died.
//!
//! Time comes from the injected [`Clock`] — the
//! AN001-approved source — so tests drive span durations with a
//! `TestClock` and record timestamps deterministically. Timestamps are
//! microseconds since the tracer's construction (its *epoch*), not wall
//! clock, so records are comparable within one process lifetime only.
//!
//! Like the metrics registry, a disabled tracer ([`Tracer::disabled`])
//! costs a branch per call and allocates nothing.

use crate::clock::Clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span: `at_micros` is its start, `dur_micros` its length.
    Span,
    /// A point-in-time event.
    Event,
}

/// One entry in the flight recorder.
#[derive(Debug, Clone)]
pub struct Record {
    /// Span or event.
    pub kind: RecordKind,
    /// The static name (`"lp.solve"`, `"server.request"`, …).
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub at_micros: u64,
    /// Span duration in microseconds (`None` for events).
    pub dur_micros: Option<u64>,
    /// Recorder-unique span id (0 for events).
    pub span_id: u64,
    /// Structured context (job id, cell, engine, thread, …).
    pub fields: Vec<(&'static str, String)>,
}

impl Record {
    /// Renders the record as one NDJSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let kind = match self.kind {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        };
        out.push_str(&format!("\"kind\":\"{kind}\",\"name\":\"{}\"", escape(self.name)));
        out.push_str(&format!(",\"at_us\":{}", self.at_micros));
        if let Some(d) = self.dur_micros {
            out.push_str(&format!(",\"dur_us\":{d}"));
        }
        if self.span_id != 0 {
            out.push_str(&format!(",\"span\":{}", self.span_id));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug)]
struct TracerCore {
    clock: Arc<dyn Clock>,
    epoch: Instant,
    capacity: usize,
    // lock-order: tracer.ring (leaf; held only to push/snapshot records).
    ring: Mutex<VecDeque<Record>>,
    next_span: AtomicU64,
}

/// The default flight-recorder capacity (records, spans + events).
pub const DEFAULT_RING_CAPACITY: usize = 512;

/// A span/event recorder over a bounded ring buffer. Cloning shares the
/// ring.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A live tracer with the given clock and ring capacity.
    pub fn new(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        let epoch = clock.now();
        Tracer {
            inner: Some(Arc::new(TracerCore {
                clock,
                epoch,
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// A tracer that records nothing.
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; the returned guard records it when dropped.
    pub fn span(&self, name: &'static str, fields: Vec<(&'static str, String)>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                tracer: Tracer::disabled(),
                name,
                fields: Vec::new(),
                start: None,
                id: 0,
            },
            Some(core) => SpanGuard {
                tracer: self.clone(),
                name,
                fields,
                start: Some(core.clock.now()),
                id: core.next_span.fetch_add(1, Ordering::Relaxed),
            },
        }
    }

    /// Records a point-in-time event.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, String)>) {
        if let Some(core) = &self.inner {
            let at = core.clock.now().saturating_duration_since(core.epoch);
            self.push(Record {
                kind: RecordKind::Event,
                name,
                at_micros: at.as_micros() as u64,
                dur_micros: None,
                span_id: 0,
                fields,
            });
        }
    }

    /// Logs a human-readable line to stderr **and** records it as a
    /// structured event. The stderr output is exactly `text` plus a
    /// newline — byte-identical to a plain `eprintln!` — so scripts that
    /// parse tool stderr keep working when callers migrate to this API.
    pub fn log_stderr(&self, name: &'static str, text: &str) {
        self.event(name, vec![("msg", text.to_string())]);
        eprintln!("{text}");
    }

    fn push(&self, record: Record) {
        if let Some(core) = &self.inner {
            let mut ring = core.ring.lock().expect("tracer ring lock poisoned");
            if ring.len() == core.capacity {
                ring.pop_front();
            }
            ring.push_back(record);
        }
    }

    /// The last `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Record> {
        match &self.inner {
            None => Vec::new(),
            Some(core) => {
                let ring = core.ring.lock().expect("tracer ring lock poisoned");
                let skip = ring.len().saturating_sub(n);
                ring.iter().skip(skip).cloned().collect()
            }
        }
    }

    /// The last `n` records as NDJSON (one JSON object per line).
    pub fn tail_ndjson(&self, n: usize) -> String {
        let mut out = String::new();
        for r in self.tail(n) {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Dumps the whole flight recorder to stderr with a reason header.
    /// Called from panic hooks and `SolverFault` handlers; a disabled
    /// tracer prints nothing at all.
    pub fn dump_to_stderr(&self, reason: &str) {
        if self.inner.is_none() {
            return;
        }
        let records = self.tail(usize::MAX);
        eprintln!("=== obs flight recorder dump ({reason}; {} records) ===", records.len());
        for r in &records {
            eprintln!("{}", r.to_json());
        }
        eprintln!("=== end flight recorder dump ===");
    }

    /// Installs a panic hook that dumps the flight recorder before
    /// delegating to the previously-installed hook. Call once, from a
    /// binary's startup; repeated installs stack harmlessly.
    pub fn install_panic_dump(&self) {
        if self.inner.is_none() {
            return;
        }
        let tracer = self.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            tracer.dump_to_stderr("panic");
            previous(info);
        }));
    }
}

/// Closes its span on drop, recording start offset and duration.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Option<Instant>,
    id: u64,
}

impl SpanGuard {
    /// Attaches another field to the span before it closes.
    pub fn field(&mut self, key: &'static str, value: String) {
        if self.start.is_some() {
            self.fields.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(core), Some(start)) = (self.tracer.inner.clone(), self.start) else {
            return;
        };
        let at = start.saturating_duration_since(core.epoch);
        let dur = core.clock.now().saturating_duration_since(start);
        self.tracer.push(Record {
            kind: RecordKind::Span,
            name: self.name,
            at_micros: at.as_micros() as u64,
            dur_micros: Some(dur.as_micros() as u64),
            span_id: self.id,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use std::time::Duration;

    fn test_tracer(capacity: usize) -> (Arc<TestClock>, Tracer) {
        let clock = Arc::new(TestClock::new());
        let tracer = Tracer::new(clock.clone(), capacity);
        (clock, tracer)
    }

    #[test]
    fn spans_record_clock_driven_durations() {
        let (clock, tracer) = test_tracer(16);
        clock.advance(Duration::from_micros(10));
        {
            let mut span = tracer.span("lp.solve", vec![("engine", "serial".into())]);
            span.field("nodes", "3".into());
            clock.advance(Duration::from_micros(250));
        }
        let tail = tracer.tail(10);
        assert_eq!(tail.len(), 1);
        let r = &tail[0];
        assert_eq!(r.kind, RecordKind::Span);
        assert_eq!(r.at_micros, 10);
        assert_eq!(r.dur_micros, Some(250));
        assert_eq!(r.fields.len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let (_clock, tracer) = test_tracer(3);
        for i in 0..10u32 {
            tracer.event("tick", vec![("i", i.to_string())]);
        }
        let tail = tracer.tail(100);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].fields[0].1, "7");
        assert_eq!(tail[2].fields[0].1, "9");
    }

    #[test]
    fn ndjson_is_deterministic_under_test_clock() {
        let (clock, tracer) = test_tracer(8);
        clock.advance(Duration::from_micros(5));
        tracer.event("job.admit", vec![("job", "1".into())]);
        assert_eq!(
            tracer.tail_ndjson(8),
            "{\"kind\":\"event\",\"name\":\"job.admit\",\"at_us\":5,\"job\":\"1\"}\n"
        );
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        let (_clock, tracer) = test_tracer(8);
        tracer.event("msg", vec![("m", "a\"b\\c\nd".into())]);
        let line = tracer.tail_ndjson(1);
        assert!(line.contains("a\\\"b\\\\c\\nd"), "{line}");
    }

    #[test]
    fn disabled_tracer_records_and_prints_nothing() {
        let tracer = Tracer::disabled();
        {
            let _span = tracer.span("x", vec![]);
            tracer.event("y", vec![]);
        }
        assert!(tracer.tail(10).is_empty());
        assert_eq!(tracer.tail_ndjson(10), "");
        tracer.dump_to_stderr("should print nothing");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let (_clock, tracer) = test_tracer(8);
        drop(tracer.span("a", vec![]));
        drop(tracer.span("b", vec![]));
        let tail = tracer.tail(2);
        assert!(tail[0].span_id > 0);
        assert_ne!(tail[0].span_id, tail[1].span_id);
    }
}
