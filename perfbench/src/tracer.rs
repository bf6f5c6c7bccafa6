//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, start, end, parent and op id; spans stay in
//! memory and are written out as JSONL when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded during set-up rather than during a timed op.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `symath.bind`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to ([`SETUP_OP`] during set-up).
    pub op: u64,
    /// Time covered by this span's children (they run one after another on
    /// this thread).
    child_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part of it the child spans cover.
    fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Ops whose spans [`Tracer::write_jsonl`] writes (plus every set-up span):
/// the aggregates cover every op, the file stays a few MB.
pub const WRITTEN_OPS: u64 = 1000;

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP_OP,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            child_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_ns += self.spans[idx].dur_ns();
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean self time of the spans named `name`, in µs (0 when none ran).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.mean_of(name, Span::self_ns)
    }

    /// Mean full duration of the spans named `name`, in µs (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.mean_of(name, Span::dur_ns)
    }

    fn mean_of(&self, name: &str, ns: fn(&Span) -> u64) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + ns(s), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Write the set-up spans and those of the first [`WRITTEN_OPS`] ops, one
    /// JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op == SETUP_OP || s.op < WRITTEN_OPS);
        for (i, s) in written {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
