//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Spans::enter`]/[`Spans::exit`], which
//! return the measured duration in both modes. Only a traced run keeps
//! the spans (name, start, end, parent); they are written out as JSON
//! lines when the benchmark ends, never during a measurement.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span, in nanoseconds since the recorder's origin.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span: where it started and its slot once recorded.
#[must_use = "a span is measured only when it is exited"]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

/// The span recorder. Disabled recorders time calls but keep nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span named after the layer call it surrounds.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns_since_origin(started),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { started, slot }
    }

    /// Close a span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns_since_origin(ended);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close in nesting order");
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        let secs = self.exit(open);
        (out, secs)
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// The recorded spans as JSON lines. `self_ns` is the span's
    /// duration minus the part its direct children cover.
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.time("work", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(spans.to_jsonl().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer");
        let (_, _) = spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total_ns = (spans.exit(outer) * 1e9) as u64;
        let jsonl = spans.to_jsonl();
        let outer_line = jsonl.lines().next().expect("outer span recorded");
        let self_ns: u64 = outer_line
            .split("\"self_ns\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("self_ns field");
        assert!(
            self_ns + 5_000_000 <= total_ns,
            "children are not self time"
        );
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":0"));
    }
}
