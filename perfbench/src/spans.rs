//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions.  A span's *layer* is the part of its name
//! before the first `.`; spans named `bench.*` are the benchmark's own glue
//! and belong to no layer.  A *probe* span measures a call the traced run
//! makes beside the production path (for example a standalone WAL scan
//! before `recover` scans again); it is reported but not counted as epoch
//! work.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub probe: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether this is the benchmark's own glue rather than a layer call.
    pub fn is_glue(&self) -> bool {
        self.name.starts_with("bench.")
    }
}

/// Span recorder: spans nest through an explicit stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, probe: bool) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            probe,
        });
        self.open.push(id);
        id
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.push(name, false)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records `f` as a probe span (see the module docs).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.push(name, true);
        let out = f();
        self.exit(id);
        out
    }

    /// Marks the current end of the span list, so the spans recorded
    /// between two marks can be summarised on their own.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time (duration minus the time covered by direct children) of
    /// every span recorded between the marks `from` and `to`, in recording
    /// order.  Spans opened in that range must close in it.
    pub fn between(&self, from: usize, to: usize) -> Vec<(&Span, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans[from..to] {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans[from..to]
            .iter()
            .enumerate()
            .map(|(i, span)| (span, span.duration_ns().saturating_sub(child_ns[from + i])))
            .collect()
    }

    /// Writes every span as one JSON line: name, start, end (ns since the
    /// tracer started), parent index and probe flag.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"probe\": {}}}",
                span.name, span.start_ns, span.end_ns, span.probe
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of a span list: (count, summed self time in ns).
pub fn self_by_name(spans: &[(&Span, u64)]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        let outer = tr.enter("bench.round");
        tr.time("kernel.step", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit(outer);
        let spans = tr.between(0, tr.mark());
        let (round, round_self) = spans[0];
        let (step, step_self) = spans[1];
        assert!(round.is_glue());
        assert!(!step.is_glue());
        assert_eq!(step.parent, Some(0));
        assert_eq!(step_self, step.duration_ns());
        assert_eq!(round_self, round.duration_ns() - step.duration_ns());
    }
}
