//! Zero-dependency metrics for InterWeave.
//!
//! The paper's whole evaluation (§4, Figs. 4–7) is about *measuring* hot
//! paths — translation, diffing, swizzling, bandwidth — so the runtime ships
//! a first-class metrics layer every subsystem can instrument against:
//!
//! * [`Counter`] — monotonic, saturating, atomic.
//! * [`Gauge`] — signed instantaneous value.
//! * [`Histogram`] — fixed power-of-two buckets for latencies and sizes,
//!   with a [`Timer`] RAII guard for scoped latency measurement.
//! * [`Registry`] — a named, shareable collection of the above.
//! * [`Snapshot`] — a point-in-time copy that renders as Prometheus text
//!   exposition or as JSON, and that `iw-proto` ships over the wire for
//!   remote scraping (`iwstat`).
//!
//! Everything is plain `std`: atomics for the hot-path types, one `RwLock`
//! around the registry's name map (taken only on first registration and on
//! scrape, never on increment — callers cache the returned `Arc` handles).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// A monotonically increasing atomic counter with saturating arithmetic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (`Transport::reset_stats` between experiment
    /// phases).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous signed value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via `sub`).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are defined by inclusive upper bounds (`value <= bound`); one
/// implicit overflow bucket catches everything beyond the last bound. Bounds
/// are fixed at construction so recording is a binary search plus one atomic
/// add — cheap enough to leave on in hot paths.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper `bounds`
    /// (must be strictly increasing and non-empty).
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must increase"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Power-of-two bounds `1, 2, 4, … 2^max_exp`.
    pub fn pow2_bounds(max_exp: u32) -> Vec<u64> {
        (0..=max_exp).map(|e| 1u64 << e).collect()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Saturate the running sum so pathological inputs cannot wrap it.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Starts a [`Timer`] that records into `self` when dropped.
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// RAII guard recording elapsed wall time (µs) into a [`Histogram`] on drop.
#[derive(Debug)]
pub struct Timer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Timer<'_> {
    /// Stops the timer early, recording now instead of at scope end.
    pub fn observe(self) {}
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram_*` are get-or-create: callers resolve a
/// handle once (holding the `Arc`) and then update it lock-free.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<HashMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it when absent.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge named `name`, creating it when absent.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name` with the given bucket bounds,
    /// creating it when absent (existing bounds win on rendezvous).
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A latency histogram in microseconds (1µs … ~67s, power-of-two).
    pub fn histogram_us(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, Histogram::pow2_bounds(26))
    }

    /// A size histogram in bytes (1B … 1GiB, power-of-two).
    pub fn histogram_bytes(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, Histogram::pow2_bounds(30))
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut snap = Snapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap.sort();
        snap
    }

    /// Renders the current state in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (last = overflow).
    pub counts: Vec<u64>,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Point-in-time copy of a whole [`Registry`] (or several, merged).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name after [`Snapshot::sort`].
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs for gauges.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` pairs for histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Sorts every section by metric name (stable rendering/wire order).
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Merges `other` into `self` with every name prefixed by `prefix`.
    pub fn merge_prefixed(&mut self, prefix: &str, other: Snapshot) {
        for (n, v) in other.counters {
            self.counters.push((format!("{prefix}{n}"), v));
        }
        for (n, v) in other.gauges {
            self.gauges.push((format!("{prefix}{n}"), v));
        }
        for (n, v) in other.histograms {
            self.histograms.push((format!("{prefix}{n}"), v));
        }
        self.sort();
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Renders as a JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,buckets,overflow}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, (b, c)) in h.bounds.iter().zip(&h.counts).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{b},{c}]"));
            }
            let overflow = h.counts.last().copied().unwrap_or(0);
            out.push_str(&format!("],\"overflow\":{overflow}}}"));
        }
        out.push_str("}}");
        out
    }

    /// Renders in Prometheus text exposition format. Metric names are
    /// sanitized (`[^a-zA-Z0-9_:]` → `_`); histogram buckets are cumulative
    /// with the usual `_bucket{le=…}` / `_sum` / `_count` triplet.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        for (n, v) in &self.counters {
            let n = sanitize(n);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (n, v) in &self.gauges {
            let n = sanitize(n);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (n, h) in &self.histograms {
            let n = sanitize(n);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (b, c) in h.bounds.iter().zip(&h.counts) {
                cum += c;
                out.push_str(&format!("{n}_bucket{{le=\"{b}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Renders a human-readable table (the default `iwstat` output).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(512);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("  {n:<52} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (n, v) in &self.gauges {
                out.push_str(&format!("  {n:<52} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (n, h) in &self.histograms {
                out.push_str(&format!(
                    "  {n:<52} count={} sum={} mean={}\n",
                    h.count,
                    h.sum,
                    h.mean()
                ));
            }
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let c = Counter::new();
        c.add(u64::MAX - 3);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(8);
        assert_eq!(g.get(), -3);
        g.set(17);
        assert_eq!(g.get(), 17);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new(vec![1, 2, 4, 8]);
        for v in [0, 1, 2, 3, 8, 9, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1023);
        // le=1: {0,1}; le=2: {2}; le=4: {3}; le=8: {8}; overflow: {9,1000}.
        assert_eq!(s.counts, vec![2, 1, 1, 1, 2]);
        assert_eq!(s.mean(), 1023 / 7);
    }

    #[test]
    fn timer_records_on_drop() {
        let h = Histogram::new(Histogram::pow2_bounds(26));
        {
            let _t = h.start_timer();
        }
        h.start_timer().observe();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x.total");
        let b = r.counter("x.total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x.total").get(), 3);
        r.gauge("g").set(-7);
        r.histogram_us("lat").record(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.total"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-7));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_clash() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn json_and_prometheus_render() {
        let r = Registry::new();
        r.counter("req.total").add(4);
        r.gauge("depth").set(-2);
        let h = r.histogram("sz", vec![1, 2]);
        h.record(1);
        h.record(100);
        let snap = r.snapshot();

        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"req.total\":4},\"gauges\":{\"depth\":-2},\
             \"histograms\":{\"sz\":{\"count\":2,\"sum\":101,\
             \"buckets\":[[1,1],[2,0]],\"overflow\":1}}}"
        );

        let prom = snap.render_prometheus();
        assert!(prom.contains("# TYPE req_total counter\nreq_total 4\n"));
        assert!(prom.contains("# TYPE depth gauge\ndepth -2\n"));
        assert!(prom.contains("sz_bucket{le=\"1\"} 1\n"));
        assert!(prom.contains("sz_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("sz_sum 101\nsz_count 2\n"));

        let text = snap.render_text();
        assert!(text.contains("req.total"));
        assert!(text.contains("mean=50"));
    }

    #[test]
    fn snapshot_merge_prefixed() {
        let a = Registry::new();
        a.counter("x").inc();
        let b = Registry::new();
        b.counter("x").add(5);
        let mut snap = a.snapshot();
        snap.merge_prefixed("server.", b.snapshot());
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.counter("server.x"), Some(5));
    }
}
