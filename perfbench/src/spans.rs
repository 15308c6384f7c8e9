//! In-memory span recorder for the traced replay: one span per call into
//! a layer (name, start, end, parent), kept in a flat vector and written
//! out once the run ends. Self time is a span's duration minus the part
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(u32);

const ROOT: u32 = u32::MAX;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str) -> Open {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        self.end_as(open, None);
    }

    /// Close a span, renaming it when its layer is only known after the
    /// call returned (an archive append that sealed a segment).
    pub fn end_as(&mut self, open: Open, rename: Option<&'static str>) {
        let top = self.stack.pop().expect("span stack not empty");
        assert_eq!(top, open.0, "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.start(name);
        let out = f();
        self.end(open);
        out
    }

    /// Seconds of self time per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.stack.is_empty(), "self time read with spans open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by root spans named `name`, children included.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent` (parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent == ROOT {
                writeln!(
                    out,
                    "{id}\t{}\t{}\t{}\t-",
                    span.name, span.start_ns, span.end_ns
                )?;
            } else {
                writeln!(
                    out,
                    "{id}\t{}\t{}\t{}\t{}",
                    span.name, span.start_ns, span.end_ns, span.parent
                )?;
            }
        }
        out.flush()
    }
}
