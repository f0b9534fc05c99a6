//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself carries no spans). Each span has a name, a start
//! and end relative to the recorder's origin, the id of the span that
//! was open when it began, and a request id shared by every span of one
//! request (or one batch, for calls that serve a batch). When the
//! recorder is off, `begin`/`end` do nothing and read no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Request id for spans that belong to no request (phases, set-up).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off between spans (used to alternate
    /// traced and untraced batches of one phase).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with spans open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Share of the spans named `root` that their direct children cover.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for span in &self.spans {
            if span.name == root {
                total += span.end_ns - span.start_ns;
            } else if span.parent != 0 && self.spans[span.parent as usize - 1].name == root {
                covered += span.end_ns - span.start_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
