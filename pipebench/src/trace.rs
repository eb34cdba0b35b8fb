//! Clock and span recorder around the library's public calls.
//!
//! Every timed call goes through [`Tracer::enter`] / [`Tracer::exit`],
//! which always read the clock (the end-to-end metrics need the duration)
//! and, only when tracing is on, also record a span: name, correlation id
//! (one per query, batch, churn step or set-up repetition), parent span,
//! start and end. Untraced runs therefore pay two clock reads per call and
//! nothing else; the traced run's extra cost is the span bookkeeping,
//! which the benchmark measures and reports.
//!
//! Spans stay in memory until [`Tracer::write_tsv`] at exit. A span's
//! self time is its duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;
const NOT_RECORDED: usize = usize::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    id: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open timing; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Token {
    start: Instant,
    slot: usize,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches span recording on or off between calls (the traced run
    /// alternates to measure its own overhead). Must not be called while
    /// a span is open.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> Token {
        let start = Instant::now();
        if !self.on {
            return Token {
                start,
                slot: NOT_RECORDED,
            };
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: nanos(start - self.origin),
            end_ns: 0,
        });
        self.open
            .push(u32::try_from(slot).expect("fewer than 2^32 spans"));
        Token { start, slot }
    }

    pub fn exit(&mut self, token: Token) -> Duration {
        let end = Instant::now();
        if token.slot != NOT_RECORDED {
            self.spans[token.slot].end_ns = nanos(end - self.origin);
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(token.slot as u32), "spans close in LIFO order");
        }
        end - token.start
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: every span's duration and self time, in seconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTimes> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.total.push(dur as f64 * 1e-9);
            entry.own.push(dur.saturating_sub(children) as f64 * 1e-9);
        }
        out
    }

    /// Writes every span as one tab-separated line under a header of
    /// `# key value` provenance lines.
    pub fn write_tsv(
        &self,
        path: &std::path::Path,
        header: &[(&str, String)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (key, value) in header {
            writeln!(out, "# {key} {value}")?;
        }
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Durations and self times of all spans sharing one name, in seconds.
#[derive(Default)]
pub struct NameTimes {
    pub total: Vec<f64>,
    pub own: Vec<f64>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
