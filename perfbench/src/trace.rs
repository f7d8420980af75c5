//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into one layer from the
//! benchmark's own code. Each span records its parent, so a layer's self
//! time is its duration minus the part of it that child spans cover.
//! Nothing is written until [`Recorder::dump`] at the end of the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans for one thread of benchmark code.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                name: name.to_string(),
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Seconds from the recorder's origin to `at`.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a span measured elsewhere (for example on a client
    /// thread), with explicit times, under `parent` or else the innermost
    /// open span; returns its id.
    pub fn push(&self, name: &str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let parent = parent.or_else(|| self.stack.borrow().last().copied());
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Durations of the spans called `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// The spans as NDJSON, one object per line, in opening order, each
    /// with its self time.
    pub fn dump(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"self\":{:.9}}}",
                s.id,
                parent,
                s.name,
                s.start,
                s.end,
                self_time(&spans, s.id)
            );
        }
        out
    }
}

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = me.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 3.0),
            span(2, Some(0), 2.0, 5.0),  // overlaps 1: the union is 1..5
            span(3, Some(2), 2.5, 4.0),  // grandchild: charged to 2, not 0
            span(4, Some(0), 9.0, 12.0), // runs past the parent: clipped
        ];
        assert!((self_time(&spans, 0) - (10.0 - 4.0 - 1.0)).abs() < 1e-12);
        assert!((self_time(&spans, 2) - (3.0 - 1.5)).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_self_times_sum_to_the_root() {
        let r = Recorder::new();
        r.span("root", || {
            r.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            r.span("b", || {
                r.span("c", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let sum: f64 = (0..spans.len()).map(|i| self_time(&spans, i)).sum();
        assert!((sum - spans[0].duration()).abs() < 1e-9);
        assert!(r.total("c") >= 0.005);
        assert_eq!(r.dump().lines().count(), 4);
    }
}
