//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer (`name, start_ns, end_ns, parent, op_id`), kept in memory, and
//! written as JSON lines when the run ends. A span's *self time* is its
//! duration minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span and `op_id` of a span outside any operation.
pub const NONE: i64 = -1;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or [`NONE`].
    pub parent: i64,
    /// The operation (position in the workload's op list) this span
    /// belongs to, shared by every span of that operation, or [`NONE`].
    pub op_id: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run executes the same driver code without the recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op_id: i64) -> Open {
        self.begin_if(true, name, op_id)
    }

    /// [`Tracer::begin`] when `on` holds (and tracing is enabled); an inert
    /// handle otherwise — how the traced run records every k-th op only.
    pub fn begin_if(&mut self, on: bool, name: &'static str, op_id: i64) -> Open {
        if !(on && self.enabled) {
            return Open(None);
        }
        let parent = self.stack.last().map_or(NONE, |&p| p as i64);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; returns its duration (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].duration_ns()
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op_id: i64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op_id);
        let out = f();
        self.end(open);
        out
    }

    /// Run `f` inside a span and time it; the duration is measured whether
    /// or not tracing is on.
    pub fn timed<T>(&mut self, name: &'static str, op_id: i64, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name, op_id);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.end(open);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op_id\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent >= 0 {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: i64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("query", 0, 100, NONE),
            span("candidates", 10, 30, 0),
            span("features", 30, 70, 0),
            span("pair", 35, 45, 2),
        ];
        // query: 100 - (20 + 40); features: 40 - 10.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, NONE),
            span("a", 110, 150, 0),
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 260, 0), // overhangs the parent by 60
            span("d", 120, 130, 0), // inside a
        ];
        // Covered: [110,170) and [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_disabled() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, NONE);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].op_id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations("inner").len(), 1);

        let mut off = Tracer::new(false);
        let o = off.begin("x", 0);
        assert_eq!(off.end(o), 0);
        assert!(off.spans().is_empty());
    }
}
