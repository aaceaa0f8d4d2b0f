//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the index of the span that caused it, and the id of
//! the request or step it belongs to. Spans stay in memory until the
//! run ends; [`Tracer::write_jsonl`] writes them out then. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover (children may overlap, e.g. parallel workers, so
//! the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.retrieval`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Request or step id shared by all spans of one operation.
    pub id: u64,
}

/// Total self time and occurrence count of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum of self times, ns.
    pub total_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

impl SelfTime {
    /// Mean self time per span in microseconds (0 when none ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Records a span timed elsewhere (another thread, or a call whose
    /// arguments borrow the tracer's owner).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Self time per span name over `spans`: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = s.end_ns - s.start_ns;
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let entry = out.entry(s.name).or_default();
        entry.total_ns += duration - covered;
        entry.count += 1;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); grandchild
        // [12,20) under the first child.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100 - 20 - 10);
        assert_eq!(t["a"].total_ns, 20 - 8);
        assert_eq!(t["b"].total_ns, 10);
        assert_eq!(t["c"].total_ns, 8);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|s| s.total_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Two parallel workers [10,60) and [20,80) under a step [0,70):
        // covered is [10,70) = 60, so the step's self time is 10.
        let spans = [
            span("step", 0, 70, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 20, 80, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["step"].total_ns, 10);
        assert_eq!(t["worker"].total_ns, 50 + 60);
        assert_eq!(t["worker"].count, 2);
        assert_eq!(t["worker"].mean_us(), 0.055);
    }

    #[test]
    fn recorded_spans_nest_under_their_parent() {
        let mut tr = Tracer::new();
        let root = tr.begin("root", 7, None);
        let x = tr.time("leaf", 7, Some(root), || 2 + 2);
        tr.end(root);
        assert_eq!(x, 4);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let t = tr.self_times();
        let root_ns = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(t["root"].total_ns + t["leaf"].total_ns, root_ns);
    }
}
