//! Lock-free observability primitives: counters, gauges, log₂-bucketed
//! latency histograms, a metric [`Registry`] rendering Prometheus-style
//! text exposition, and a bounded lock-free [`EventRing`] for structured
//! event tracing.
//!
//! ## Design constraints
//!
//! The recording path is what ingest, seal and query code touches while
//! holding shard guards, so it must be:
//!
//! * **lock-free** — every record operation is a handful of relaxed
//!   atomic adds on [`AtomicU64`]s; no `Mutex` is ever taken while
//!   recording, which keeps recording legal under the `pds-analyze`
//!   lock-discipline rule even inside shard-guard windows;
//! * **allocation-free** — counters, gauges and histograms never allocate
//!   after construction; the [`EventRing`] writes fixed-width slots in
//!   place.  Formatting happens only at scrape time ([`Registry::render`]
//!   / [`EventRing::dump`]);
//! * **panic-free** — this file is held to the analyzer's whole-file
//!   panic-freedom rule: indexing is masked or `get`-guarded, mutex
//!   poisoning (render path only) is recovered, and no arithmetic can
//!   panic on hostile values;
//! * **bit-invisible** — telemetry only ever *reads* the clock; no result
//!   of any query, seal or merge may depend on it.  The workspace pins
//!   this with `telemetry_invisibility`: identical stores, one scraped
//!   and one never scraped, must answer bit-for-bit alike.
//!
//! ## Timing discipline
//!
//! Durations are measured with a [`Stopwatch`]: `Stopwatch::start()` at
//! the top of the timed window, `histogram.observe(sw)` at the bottom.
//! The type enforces the pairing: `observe` takes a `Stopwatch`, so a
//! literal or an unstarted duration cannot reach a histogram.
//!
//! ## Exposition format
//!
//! [`Registry::render`] emits the Prometheus text format: one
//! `# TYPE name kind` line per metric name, then one
//! `name{labels} value` sample line per series.  Histograms render
//! cumulative `_bucket{le="..."}` series (upper bounds in seconds; the
//! last bucket is `+Inf`) plus `_sum` (seconds) and `_count`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as its IEEE-754 bits in an
/// [`AtomicU64`], so reads and writes are lock-free).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A started duration measurement, consumed by
/// [`LatencyHistogram::observe`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    at: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { at: Instant::now() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (≈ 584 years).
    fn elapsed_nanos(&self) -> u64 {
        let nanos = self.at.elapsed().as_nanos();
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }
}

/// Number of histogram buckets: bucket `i < 36` counts samples shorter
/// than `2^i` nanoseconds (so the finite range tops out at `2^35` ns
/// ≈ 34 s); the last bucket is `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 37;

/// The bucket a sample of `nanos` nanoseconds lands in.
fn bucket_index(nanos: u64) -> usize {
    ((64 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket, log₂-scaled latency histogram: one atomic add per
/// recorded sample, no locks, no allocation.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records the elapsed time of `sw` (the parameter type is the pairing:
    /// only a started [`Stopwatch`] can be observed).
    pub fn observe(&self, sw: Stopwatch) {
        self.observe_nanos(sw.elapsed_nanos());
    }

    /// Records a raw nanosecond sample (test and replay entry point).
    fn observe_nanos(&self, nanos: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(nanos)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, in nanoseconds.
    fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum MetricKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    /// Pre-rendered label pairs without braces, e.g. `partition="3"`;
    /// empty for an unlabeled series.
    labels: String,
    kind: MetricKind,
}

/// A registry of named metrics rendering Prometheus-style text
/// exposition.
///
/// The internal `Mutex` is taken only at registration and render time —
/// never on the record path, which goes straight to the `Arc`'d atomics
/// handed out by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`].  Series sharing a metric name (label
/// variants) should be registered consecutively so the `# TYPE` header is
/// emitted once.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &'static str, labels: &str, kind: MetricKind) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(Entry {
            name,
            labels: labels.to_string(),
            kind,
        });
    }

    /// Registers and returns a counter series.  `labels` is either empty
    /// or pre-rendered pairs like `verb="est"`.
    pub fn counter(&self, name: &'static str, labels: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, labels, MetricKind::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a gauge series.
    pub fn gauge(&self, name: &'static str, labels: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register(name, labels, MetricKind::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers and returns a latency-histogram series.
    pub fn histogram(&self, name: &'static str, labels: &str) -> Arc<LatencyHistogram> {
        let h = Arc::new(LatencyHistogram::new());
        self.register(name, labels, MetricKind::Histogram(Arc::clone(&h)));
        h
    }

    /// Renders every registered series in the Prometheus text format (see
    /// the module docs).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut prev_name = "";
        for entry in entries.iter() {
            if entry.name != prev_name {
                let kind = match entry.kind {
                    MetricKind::Counter(_) => "counter",
                    MetricKind::Gauge(_) => "gauge",
                    MetricKind::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
                prev_name = entry.name;
            }
            let braced = |extra: &str| -> String {
                match (entry.labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{}}}", entry.labels),
                    (false, false) => format!("{{{},{extra}}}", entry.labels),
                }
            };
            match &entry.kind {
                MetricKind::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", entry.name, braced(""), c.get());
                }
                MetricKind::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", entry.name, braced(""), g.get());
                }
                MetricKind::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket.load(Ordering::Relaxed);
                        let le = if i + 1 == HISTOGRAM_BUCKETS {
                            "+Inf".to_string()
                        } else {
                            // Upper bound of bucket i is 2^i ns, in seconds.
                            format!("{}", (1u64 << i) as f64 / 1e9)
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            entry.name,
                            braced(&format!("le=\"{le}\""))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        entry.name,
                        braced(""),
                        h.sum_nanos() as f64 / 1e9
                    );
                    let _ = writeln!(out, "{}_count{} {}", entry.name, braced(""), h.count());
                }
            }
        }
        out
    }
}

/// One event slot of the ring: a per-slot sequence word (seqlock style)
/// plus the fixed-width payload.
#[derive(Debug, Default)]
struct EventSlot {
    /// `2*claim + 1` while the writer fills the slot, `2*claim + 2` once
    /// the record for `claim` is complete; readers skip anything else.
    seq: AtomicU64,
    t_nanos: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

/// A bounded, lock-free ring of recent structured events.
///
/// Writers claim a global slot index with one `fetch_add` and stamp the
/// slot seqlock-style (odd while writing, even when complete); readers
/// ([`EventRing::dump`]) detect in-flight or overwritten slots by their
/// sequence word and skip them, so a dump taken concurrently with pushes
/// never blocks a writer and never reports a torn record.  Events carry a
/// kind tag and three `u64` arguments — the owner decides how to decode
/// them at dump time, so pushing never allocates or formats.
#[derive(Debug)]
pub struct EventRing {
    epoch: Instant,
    next: AtomicU64,
    slots: Box<[EventSlot]>,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots: Vec<EventSlot> = (0..cap).map(|_| EventSlot::default()).collect();
        EventRing {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Records one event (kind tag plus three argument words), displacing
    /// the oldest once the ring is full.
    pub fn push(&self, kind: u64, a: u64, b: u64, c: u64) {
        let claim = self.next.fetch_add(1, Ordering::Relaxed);
        let mask = self.slots.len().wrapping_sub(1);
        let Some(slot) = self.slots.get((claim as usize) & mask) else {
            return;
        };
        slot.seq
            .store(claim.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        let t = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        slot.t_nanos.store(t, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq
            .store(claim.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// Total events ever pushed (not the number retained).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Renders the retained events oldest-first, one line per event:
    /// a `t=<seconds-since-ring-creation>s` prefix followed by
    /// `describe(kind, a, b, c)`.  Slots being written (or already
    /// overwritten) while dumping are skipped, never torn.
    pub fn dump(&self, describe: impl Fn(u64, u64, u64, u64) -> String) -> Vec<String> {
        let head = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mask = self.slots.len().wrapping_sub(1);
        let mut out = Vec::new();
        for claim in head.saturating_sub(cap)..head {
            let Some(slot) = self.slots.get((claim as usize) & mask) else {
                continue;
            };
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != claim.wrapping_mul(2).wrapping_add(2) {
                continue;
            }
            let t = slot.t_nanos.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq1 {
                continue;
            }
            out.push(format!(
                "t={:.6}s {}",
                t as f64 / 1e9,
                describe(kind, a, b, c)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(2.5);
        g.add(1.0);
        g.add(-0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_log2_nanoseconds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = LatencyHistogram::new();
        h.observe_nanos(3);
        h.observe_nanos(1024);
        h.observe_nanos(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[2].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[11].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stopwatch_observe_records_a_sample() {
        let h = LatencyHistogram::new();
        let sw = Stopwatch::start();
        h.observe(sw);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let reg = Registry::new();
        let c0 = reg.counter("demo_requests_total", "verb=\"est\"");
        let c1 = reg.counter("demo_requests_total", "verb=\"range\"");
        let g = reg.gauge("demo_active", "");
        let h = reg.histogram("demo_latency_seconds", "");
        c0.add(3);
        c1.add(4);
        g.set(1.5);
        h.observe_nanos(1000);
        h.observe_nanos(2000);
        let text = reg.render();
        // One TYPE header per metric name, even with two labeled series.
        assert_eq!(
            text.matches("# TYPE demo_requests_total counter").count(),
            1
        );
        assert!(text.contains("demo_requests_total{verb=\"est\"} 3"));
        assert!(text.contains("demo_requests_total{verb=\"range\"} 4"));
        assert!(text.contains("# TYPE demo_active gauge"));
        assert!(text.contains("demo_active 1.5"));
        assert!(text.contains("# TYPE demo_latency_seconds histogram"));
        assert!(text.contains("demo_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("demo_latency_seconds_count 2"));
        // The cumulative +Inf bucket always equals the count.
        assert!(text.contains("demo_latency_seconds_sum 0.000003"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_the_exposition() {
        let reg = Registry::new();
        let h = reg.histogram("h", "");
        h.observe_nanos(1); // bucket 1
        h.observe_nanos(1_000_000); // bucket 20
        let text = reg.render();
        let value_of = |le: &str| -> u64 {
            let needle = format!("h_bucket{{le=\"{le}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&needle))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        // 2^1 ns = 2e-9 s holds the first sample only.
        assert_eq!(value_of("0.000000002"), 1);
        assert_eq!(value_of("+Inf"), 2);
    }

    #[test]
    fn event_ring_retains_the_newest_events() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.push(1, i, 0, 0);
        }
        assert_eq!(ring.pushed(), 10);
        let lines = ring.dump(|kind, a, _, _| format!("k={kind} a={a}"));
        assert_eq!(lines.len(), 4);
        // Oldest-first, last four claims retained.
        for (line, want) in lines.iter().zip(6..10u64) {
            assert!(line.contains(&format!("a={want}")), "{line}");
            assert!(line.starts_with("t="), "{line}");
        }
    }

    #[test]
    fn event_ring_capacity_rounds_up() {
        let ring = EventRing::new(3);
        assert_eq!(ring.slots.len(), 4);
        let ring = EventRing::new(0);
        assert_eq!(ring.slots.len(), 2);
    }

    #[test]
    fn concurrent_pushes_and_dumps_stay_consistent() {
        let ring = std::sync::Arc::new(EventRing::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        ring.push(t, i, i * 2, i * 3);
                    }
                });
            }
            for _ in 0..50 {
                // Every dumped line decodes to a consistent record.
                for line in ring.dump(|k, a, b, c| {
                    assert!(k < 4);
                    assert_eq!(b, a * 2);
                    assert_eq!(c, a * 3);
                    format!("{k} {a}")
                }) {
                    assert!(line.starts_with("t="));
                }
            }
        });
        assert_eq!(ring.pushed(), 2000);
    }
}
