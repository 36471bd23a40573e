//! In-memory spans for the traced pass, written out when the run ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `search.try_query`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (operation, or bring-up round) the span belongs to.
    pub request: u64,
}

/// An append-only span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log with room for `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        match self.spans.get_mut(id) {
            Some(span) => {
                span.end = end;
                end - span.start
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ns) of every closed span called `name`, in log order.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end >= s.start)
            .map(|s| s.end - s.start)
    }

    /// Spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as JSON lines, one span per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time_their_work() {
        let mut t = Tracer::new(4);
        let root = t.open("root", None, 7);
        let x = t.span("child", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        assert_eq!(t.len(), 2);
        assert_eq!(t.durations("child").count(), 1);
        let child = t.spans[1];
        assert_eq!((child.parent, child.request), (Some(root), 7));
        assert!(t.spans[0].start <= child.start && child.end <= t.spans[0].end);
    }
}
