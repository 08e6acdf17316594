//! In-memory spans for the traced replay.
//!
//! A span is a named interval with the span that caused it and the id of
//! the request it belongs to. Spans are kept in memory while the replay
//! runs and written out once at the end, so recording costs two clock
//! reads and a push. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; nesting follows the order of `begin`/`end` calls.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let r = f();
        self.end(id);
        r
    }

    /// Adds a closed span whose interval was measured elsewhere (the
    /// query engine's stage timers), under `parent`.
    pub fn record(&mut self, name: &str, request: u64, start: u64, end: u64, parent: usize) {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: Some(parent),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals, clipped to its own. Overlapping or overhanging
/// children never push the covered part above the parent's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration() - covered(s.start, s.end, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn children_never_exceed_the_parent() {
        // Overlapping children, and children that overhang the parent.
        let spans = vec![
            span("op", 100, 200, None),
            span("x", 90, 150, Some(0)),
            span("y", 120, 180, Some(0)),
            span("z", 170, 260, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 0);
        assert!(st[0] <= spans[0].duration());
        // Children summing to more than the parent still leave a
        // non-negative self time of exactly the uncovered part.
        let spans = vec![
            span("op", 0, 100, None),
            span("x", 0, 60, Some(0)),
            span("y", 50, 110, Some(0)),
            span("gap", 200, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = vec![span("op", 0, 100, None), span("x", 20, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn tracer_nests_and_writes() {
        let mut t = Tracer::new();
        let op = t.begin("op", 7);
        let v = t.time("inner", 7, || 41 + 1);
        t.end(op);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        let st = self_times(s);
        assert_eq!(st[0] + s[1].duration(), s[0].duration());
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\t7\tinner\t"));
    }
}
