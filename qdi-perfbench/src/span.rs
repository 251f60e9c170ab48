//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! workspace crate's public functions (no program crate is
//! instrumented). Each span has a name, a start, an end and the span
//! that caused it; all spans stay in memory and are written as JSON
//! Lines once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::start`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. on a pool worker).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One span.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Durations of every span named `name` whose parent is `parent`.
    pub fn durations_under(&self, name: &str, parent: SpanId) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time((parent.start_ns, parent.end_ns), &children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of an interval: its length minus the length of the union
/// of the child intervals, each clipped to the parent. Overlapping
/// children (parallel work) are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let total = p1.saturating_sub(p0);
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.clamp(p0, p1), b.clamp(p0, p1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    total - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children covering [10, 60) together.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 60)]), 50);
        // Nested and identical intervals.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30), (10, 90)]), 20);
        // Touching intervals merge without a gap.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
    }

    #[test]
    fn tracer_self_time_uses_direct_children_only() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ns: u64| base + std::time::Duration::from_nanos(ns);
        let root = t.record("root", None, at(0), at(100));
        let child = t.record("child", Some(root), at(10), at(60));
        t.record("grandchild", Some(child), at(20), at(30));
        t.record("child", Some(root), at(70), at(80));
        assert_eq!(t.self_ns(root), 40);
        assert_eq!(t.self_ns(child), 40);
        assert_eq!(t.durations_under("child", root), vec![50, 10]);
    }
}
