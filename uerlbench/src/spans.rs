//! In-memory span recorder.
//!
//! A span is a named wall-clock interval with an optional parent, recorded by the
//! benchmark around its calls into the workspace's public functions. Spans stay in
//! memory while the benchmark runs and are written out once at exit. A span's self time
//! is its duration minus the part of it its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_s(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }
}

/// A single-threaded span recorder. Spans nest: a span entered while another is open
/// becomes its child, and spans close innermost first.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span; returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.record(name, now, now, parent)
    }

    /// Close the innermost open span, which must be `id`.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// Append an already measured span.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Every span, indexed by id.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `id`, in recording order.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Duration of the first child of `id` named `name`, in seconds (0 if absent).
    pub fn child_s(&self, id: usize, name: &str) -> f64 {
        self.children(id)
            .find(|s| s.name == name)
            .map_or(0.0, Span::duration_s)
    }

    /// Self time of span `id`: its duration minus the union of its children's
    /// intervals clipped to it. Never negative, even for overlapping children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| {
                (
                    c.start_ns.clamp(parent.start_ns, parent.end_ns),
                    c.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        covered.sort_unstable();
        let mut cursor = parent.start_ns;
        let mut covered_ns = 0;
        for (start, end) in covered {
            let start = start.max(cursor);
            if end > start {
                covered_ns += end - start;
                cursor = end;
            }
        }
        parent.duration_ns() - covered_ns
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                self.self_ns(id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_never_goes_negative() {
        let mut t = Tracer::default();
        let root = t.record("root", 100, 200, None);
        // Overlapping children, one sticking out on each side, one covering all.
        t.record("a", 90, 150, Some(root));
        t.record("b", 140, 260, Some(root));
        t.record("c", 120, 130, Some(root));
        assert_eq!(t.self_ns(root), 0);
        let lone = t.record("lone", 10, 50, None);
        t.record("inner", 20, 30, Some(lone));
        t.record("inner2", 25, 35, Some(lone));
        assert_eq!(t.self_ns(lone), 40 - 15);
        for id in 0..t.spans.len() {
            assert!(t.self_ns(id) <= t.get(id).duration_ns());
        }
    }

    #[test]
    fn nested_spans_record_parents_and_close_in_order() {
        let mut t = Tracer::default();
        let outer = t.enter("outer");
        let inner = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(inner, 7);
        t.exit(outer);
        let spans: Vec<_> = t.children(outer).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "inner");
        assert!(t.get(outer).duration_ns() >= spans[0].duration_ns());
        assert!(t.self_ns(outer) <= t.get(outer).duration_ns());
        assert!(t.to_json_lines().contains("\"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
