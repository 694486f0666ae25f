//! In-memory spans around the calls the benchmark makes into a layer.
//! Untraced runs take the same code path with recording off: `open`/`close`
//! still time the call (the phases need the duration either way) but keep
//! nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` is the id of the enclosing span (0 for none); spans of one wire
/// request or build round share `request`.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started; [`Tracer::close`] ends it.
pub struct Open {
    /// 0 when not tracing.
    pub id: u32,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock; hand it back with
    /// [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += shift;
            if span.parent != 0 {
                span.parent += shift;
            }
            span
        }));
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { id: 0, start };
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = (start - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open { id, start }
    }

    /// Ends the span; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if open.id != 0 {
            self.spans[open.id as usize - 1].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// `work` inside a span; returns its result and its seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        work: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent, request);
        let result = work();
        (result, self.close(open))
    }

    /// Seconds one open/close pair costs over a bare pair of clock reads,
    /// measured on a scratch tracer.
    pub fn cost_per_span() -> f64 {
        const PROBES: u32 = 200_000;
        let time = |enabled: bool| {
            let mut scratch = Tracer::new(enabled);
            let started = Instant::now();
            for request in 0..PROBES {
                let open = scratch.open("probe", 0, request);
                std::hint::black_box(scratch.close(open));
            }
            std::hint::black_box(scratch.spans.len());
            started.elapsed().as_secs_f64() / PROBES as f64
        };
        (time(true) - time(false)).max(0.0)
    }

    /// Per span name: count, total seconds and self seconds — a span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let total = span.end_ns - span.start_ns;
            let own = total.saturating_sub(child_ns[span.id as usize]);
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 * 1e-9;
            entry.2 += own as f64 * 1e-9;
        }
        by_name
    }

    /// `id parent request name start_ns end_ns`, tab separated, under one
    /// header line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
