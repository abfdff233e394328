//! In-memory span recording for the traced replay.
//!
//! A span is `(name, start, end, parent, request)`. Spans are pushed onto
//! a vector as they close and written out once, when the run ends. A
//! layer's *self time* is its span's duration minus the part of that
//! interval covered by its direct children. The recorder is single
//! threaded on purpose: the replay runs on one thread, so nesting is a
//! stack and no clock is shared across cores.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span in the span list, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside any request).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every method is a cheap no-op otherwise,
/// so the traced and untraced replays run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Spans in *open* order; a slot is filled in when the span closes.
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with request id `id`.
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[index].end = end;
        out
    }

    /// All recorded spans (closed ones only are meaningful).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(kids))
        .collect()
}

/// Total length of the union of intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                current = Some((lo, hi));
            }
            None => current = Some((lo, hi)),
        }
    }
    if let Some((lo, hi)) = current {
        total += hi - lo;
    }
    total
}

/// Self time summed per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Durations of every span named `name`, in ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("cache", 10, 30, Some(0)),
            span("policy", 40, 90, Some(0)),
            span("executor", 45, 85, Some(2)),
            span("executor", 50, 60, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["executor"], 40);
        assert_eq!(by_name["request"], 30);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(durations(&spans, "cache"), vec![20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10, 30) and [45, 50) -> 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let t = Tracer::on();
        t.set_request(7);
        let v = t.scope("outer", || t.scope("inner", || 5));
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let off = Tracer::off();
        assert_eq!(off.scope("x", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
