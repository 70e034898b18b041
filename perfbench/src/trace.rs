//! Spans the benchmark records around its calls into the program.
//!
//! A disabled [`Tracer`] only runs the closure, so an untraced run pays
//! nothing. An enabled one keeps every span in memory (name, start, end,
//! parent) and [`write`] puts them on disk once the run is over. A
//! layer's self time is its span duration minus the part of that
//! interval its child spans cover ([`self_time`]).

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within one run.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `scenario.session.run`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans on one thread; nested calls become children.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    first_id: usize,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing. `first_id` lets
    /// per-thread tracers of one run keep their ids apart.
    pub fn new(enabled: bool, origin: Instant, first_id: usize) -> Self {
        Tracer {
            enabled,
            origin,
            first_id,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.first_id + self.spans.borrow().len();
        let parent = self.stack.borrow().last().copied();
        let start = self.now();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start,
            end: start,
        });
        self.stack.borrow_mut().push(id);
        let value = f();
        self.stack.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[id - self.first_id].end = end;
        value
    }

    /// Records an interval measured elsewhere (e.g. a cell's wall-clock
    /// span reported by the executor) as a child of the open span.
    /// `start` is seconds since the tracer's origin.
    pub fn record(&self, name: &'static str, start: f64, secs: f64) {
        if !self.enabled {
            return;
        }
        let id = self.first_id + self.spans.borrow().len();
        let parent = self.stack.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start,
            end: start + secs,
        });
    }

    /// Seconds since the origin, for [`Tracer::record`].
    pub fn offset(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Total self time of every span named `name`: each span's duration
/// minus the union of its direct children's intervals.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.secs() - covered
        })
        .sum()
}

/// Total duration of every span named `name`: 0 (not the −0 of an
/// empty `f64` sum) when there is none.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .fold(0.0, |a, b| a + b)
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Writes the spans and each name's total and self time as JSON.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use simnet::obs::json::{number, string};
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let summary: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                string(n),
                count(spans, n),
                number(total(spans, n)),
                number(self_time(spans, n))
            )
        })
        .collect();
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                string(s.name),
                number(s.start),
                number(s.end)
            )
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        format!(
            "{{\"summary\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
            summary.join(", "),
            rows.join(",\n")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 4.0),
            span(2, Some(0), "a", 3.0, 6.0),
            span(3, Some(2), "b", 3.0, 5.0),
        ];
        assert_eq!(self_time(&spans, "root"), 5.0);
        assert_eq!(self_time(&spans, "a"), 3.0 + 1.0);
        assert_eq!(total(&spans, "a"), 6.0);
        assert_eq!(count(&spans, "a"), 2);
    }

    #[test]
    fn nested_spans_get_parents_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true, Instant::now(), 10);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 10);
        assert_eq!(spans[1].parent, Some(10));
        let off = Tracer::new(false, Instant::now(), 0);
        off.span("x", || ());
        assert!(off.into_spans().is_empty());
    }
}
