//! Benchmark-side timing and spans.
//!
//! Every call into a layer's public function is timed here, from outside the
//! library. A [`Tracer`] always measures; while *recording* it also keeps a
//! span (name, start, end, parent) per call and per phase, installs the
//! `scream-obs` sink with a zero-capacity trace ring (registry totals only)
//! and attaches to each phase span the counters it moved. Spans stay in
//! memory until [`Tracer::write_json`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use scream::obs::Snapshot;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `scream-obs` counters this span moved (phase spans only).
    pub counters: Vec<(&'static str, u64)>,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    start: Instant,
    index: Option<usize>,
    base: Option<Snapshot>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span recording and the `scream-obs` sink on or off together.
    pub fn set_recording(&mut self, recording: bool) {
        if recording {
            scream::obs::install_with_capacity(0);
        } else {
            scream::obs::uninstall();
        }
        self.recording = recording;
    }

    fn begin_span(&mut self, name: &'static str, with_counters: bool) -> OpenSpan {
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
                counters: Vec::new(),
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        let base = if with_counters {
            scream::obs::snapshot()
        } else {
            None
        };
        let start = Instant::now();
        if let Some(index) = index {
            self.spans[index].start_ns = (start - self.origin).as_nanos() as u64;
        }
        OpenSpan { start, index, base }
    }

    /// Begins a phase: a span that groups calls and collects counter deltas.
    pub fn begin(&mut self, name: &'static str) -> OpenSpan {
        self.begin_span(name, true)
    }

    /// Ends a phase; returns its duration in seconds and, while recording,
    /// the `scream-obs` activity inside it.
    pub fn end(&mut self, open: OpenSpan) -> (f64, Option<Snapshot>) {
        let end = Instant::now();
        let delta = open
            .base
            .and_then(|base| Some(scream::obs::snapshot()?.diff(&base)));
        if let Some(index) = open.index {
            let span = &mut self.spans[index];
            span.end_ns = (end - self.origin).as_nanos() as u64;
            if let Some(delta) = &delta {
                span.counters = delta
                    .counters
                    .iter()
                    .filter(|(_, &value)| value > 0)
                    .map(|(&name, &value)| (name, value))
                    .collect();
            }
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
        ((end - open.start).as_secs_f64(), delta)
    }

    /// Times one call into a layer; returns its result and its seconds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin_span(name, false);
        let out = std::hint::black_box(f());
        let (seconds, _) = self.end(open);
        (out, seconds)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: calls, total seconds and self seconds (total minus the
    /// part its direct children cover), by decreasing self time.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, &children) in self.spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total as f64 / 1e9, own as f64 / 1e9))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                span.name, span.start_ns, span.end_ns
            );
            for (i, (name, value)) in span.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_tracer_times_calls_but_keeps_no_spans() {
        let mut tracer = Tracer::new();
        let (value, seconds) = tracer.call("leaf", || 41 + 1);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert!(tracer.spans().is_empty());
        assert!(!scream::obs::is_installed());
    }

    #[test]
    fn recorded_spans_nest_and_phases_carry_counter_deltas() {
        let mut tracer = Tracer::new();
        tracer.set_recording(true);
        scream::obs::counter_add("before", 5);
        let phase = tracer.begin("phase");
        tracer.call("leaf", || scream::obs::counter_add("inside", 3));
        tracer.call("leaf", || ());
        let (_, delta) = tracer.end(phase);
        tracer.set_recording(false);

        let delta = delta.expect("the sink was installed");
        assert_eq!(delta.counter("inside"), 3);
        assert_eq!(delta.counter("before"), 0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].counters, vec![("inside", 3)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let rows = tracer.self_times();
        let phase_row = rows.iter().find(|r| r.0 == "phase").expect("phase row");
        let leaf_row = rows.iter().find(|r| r.0 == "leaf").expect("leaf row");
        assert_eq!(leaf_row.1, 2);
        assert!((phase_row.3 - (phase_row.2 - leaf_row.2)).abs() < 1e-9);
        assert!(tracer.to_json("w", 1).contains("\"parent\":0"));
    }
}
