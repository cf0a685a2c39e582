//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, around each call into
//! a layer's public functions; nothing inside the program is instrumented.
//! A span has a name, a start, an end and the span that caused it.  Calls
//! made once per datagram are far too many to keep one span each, so they are
//! folded into a [`Summary`] (count, total, max) under the span that made
//! them.  A span's *self time* is its duration minus what its child spans and
//! child summaries cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Many short calls of one kind made under one parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// A local accumulator for per-datagram calls: the hot loop times into one
/// of these and hands it to [`Recorder::summary`] once, when the loop ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl Acc {
    /// Run `f`, timing it when `on`.
    #[inline]
    pub fn time<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed().as_nanos() as u64);
        out
    }

    /// Fold one already-measured call in.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }
}

/// Records spans and summaries while on; costs one branch per call while off,
/// so traced and untraced runs execute the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    summaries: Vec<Summary>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            summaries: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Attach a finished accumulator to the innermost open span.
    pub fn summary(&mut self, name: &'static str, acc: Acc) {
        if self.on && acc.count > 0 {
            self.summaries.push(Summary {
                name,
                parent: self.stack.last().copied(),
                count: acc.count,
                total_ns: acc.total_ns,
                max_ns: acc.max_ns,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `index` minus the part its children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let child_spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let child_calls: u64 = self
            .summaries
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.total_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(child_spans + child_calls)
    }

    /// Total time under `name`, spans and summaries together.
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let calls: u64 = self
            .summaries
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.total_ns)
            .sum();
        spans + calls
    }

    /// Number of calls recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        let calls: u64 = self
            .summaries
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum();
        spans + calls
    }

    /// Longest single call recorded under `name`.
    pub fn max_ns(&self, name: &str) -> u64 {
        let spans = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns);
        let calls = self
            .summaries
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.max_ns);
        spans.chain(calls).max().unwrap_or(0)
    }

    /// Mean nanoseconds per call under `name` (0 when nothing was recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64,
        }
    }

    /// Sum of the self times of every span called `name`.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// The recording as one JSON object: every span with its self time, and
    /// every summary.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out.push_str("],\"summaries\":[");
        for (i, s) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"parent\":{parent},\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                s.name, s.count, s.total_ns, s.max_ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Recorder {
        let mut r = Recorder::new(true);
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
        };
        r.spans = vec![
            span("iteration", None, 0, 1000),
            span("setup", Some(0), 0, 300),
            span("server.new", Some(1), 10, 210),
            span("window", Some(0), 300, 1000),
            span("server.new", Some(1), 220, 280),
        ];
        r.summaries = vec![
            Summary {
                name: "poll_transmit",
                parent: Some(3),
                count: 10,
                total_ns: 200,
                max_ns: 40,
            },
            Summary {
                name: "handle_datagram",
                parent: Some(3),
                count: 9,
                total_ns: 450,
                max_ns: 300,
            },
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixture();
        // iteration: 1000 − setup 300 − window 700.
        assert_eq!(r.self_ns(0), 0);
        // setup: 300 − server.new (200 + 60).
        assert_eq!(r.self_ns(1), 40);
        // A leaf's self time is its whole duration.
        assert_eq!(r.self_ns(2), 200);
        // window: 700 − the two per-datagram summaries (200 + 450).
        assert_eq!(r.self_ns(3), 50);
    }

    #[test]
    fn children_longer_than_the_parent_do_not_underflow() {
        let mut r = fixture();
        r.summaries[1].total_ns = 10_000;
        assert_eq!(r.self_ns(3), 0);
    }

    #[test]
    fn aggregates_by_name_cover_spans_and_summaries() {
        let r = fixture();
        assert_eq!(r.total_ns("server.new"), 260);
        assert_eq!(r.count("server.new"), 2);
        assert_eq!(r.max_ns("server.new"), 200);
        assert_eq!(r.mean_ns("server.new"), 130.0);
        assert_eq!(r.total_ns("handle_datagram"), 450);
        assert_eq!(r.count("handle_datagram"), 9);
        assert_eq!(r.max_ns("handle_datagram"), 300);
        assert_eq!(r.self_total_ns("window"), 50);
        assert_eq!(r.mean_ns("absent"), 0.0);
    }

    #[test]
    fn live_recording_nests_and_an_off_recorder_records_nothing() {
        let mut r = Recorder::new(true);
        r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
            let mut acc = Acc::default();
            acc.time(true, || std::hint::black_box(2 + 2));
            r.summary("calls", acc);
        });
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.count("calls"), 1);
        let outer = &r.spans()[0];
        assert!(r.self_ns(0) <= outer.end_ns - outer.start_ns);
        assert!(r
            .to_json()
            .starts_with("{\"spans\":[{\"id\":0,\"parent\":null"));

        let mut off = Recorder::new(false);
        off.span("outer", |r| {
            let mut acc = Acc::default();
            acc.time(false, || ());
            r.summary("calls", acc);
        });
        assert!(off.spans().is_empty());
        assert_eq!(off.count("calls"), 0);
    }
}
