//! The metrics registry: counters, gauges, fixed-bucket histograms and
//! monotonic timers behind zero-cost-when-disabled handles.
//!
//! A [`Registry`] is either *enabled* (backed by shared atomic state) or
//! *disabled* (the default). Handles created from a disabled registry hold
//! no allocation and every operation on them compiles down to a branch on
//! `None` — instrumented code pays nothing when observability is off, and
//! in particular never perturbs the simulator's RNG draw order.
//!
//! Handles are cheap to clone and are meant to be created once at setup
//! time (registration formats metric names and takes a lock) and then used
//! lock-free on the hot path (plain relaxed atomic updates). Per-index
//! metrics such as `sim.chan{c}.bytes` ([`Registry::counters`] and its
//! siblings) format and look up each name once per registry; a later
//! request reuses the metrics it found.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A named-metric store. Cloning shares the underlying state.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<State>>>,
}

#[derive(Debug, Default)]
struct State {
    metrics: BTreeMap<String, Metric>,
    /// The metrics `{prefix}{i}{suffix}` resolved so far, `i`-th at `i`,
    /// keyed by `(prefix, suffix)`.
    indexed: Vec<(String, String, Vec<Metric>)>,
}

/// The metric `name`, registered as `mk()` if it is new. The key is
/// allocated only to insert.
fn resolve<'m>(
    metrics: &'m mut BTreeMap<String, Metric>,
    name: &str,
    mk: impl FnOnce() -> Metric,
) -> &'m Metric {
    if !metrics.contains_key(name) {
        metrics.insert(name.to_string(), mk());
    }
    &metrics[name]
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    /// Gauges store `f64` bits.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
    Timer(Arc<TimerCore>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Timer(_) => "timer",
        }
    }

    fn new_counter() -> Self {
        Metric::Counter(Arc::default())
    }

    fn counter(&self) -> Option<Counter> {
        match self {
            Metric::Counter(c) => Some(Counter(Some(c.clone()))),
            _ => None,
        }
    }

    fn new_gauge() -> Self {
        Metric::Gauge(Arc::default())
    }

    fn gauge(&self) -> Option<Gauge> {
        match self {
            Metric::Gauge(g) => Some(Gauge(Some(g.clone()))),
            _ => None,
        }
    }

    /// The histogram handle, if this is a histogram over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if it is a histogram over other bounds.
    fn histogram(&self, bounds: &[u64]) -> Option<BucketHistogram> {
        match self {
            Metric::Histogram(h) => {
                assert_eq!(
                    h.bounds, bounds,
                    "histogram over {:?} re-registered with different bounds",
                    h.bounds
                );
                Some(BucketHistogram(Some(h.clone())))
            }
            _ => None,
        }
    }
}

impl Registry {
    /// An enabled registry: handles record into shared state.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// A disabled registry: every handle is a no-op (this is also
    /// `Registry::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether handles created from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-attaches to) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.slot(name, Metric::new_counter, Metric::counter)
    }

    /// Registers (or re-attaches to) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.slot(name, Metric::new_gauge, Metric::gauge)
    }

    /// Registers (or re-attaches to) the fixed-bucket histogram `name`.
    /// `bounds` are inclusive upper bucket bounds, strictly increasing;
    /// values above the last bound land in an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing, or if `name` is
    /// already registered as a different kind or with different bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> BucketHistogram {
        self.slot(
            name,
            || HistogramCore::metric(bounds),
            |m| m.histogram(bounds),
        )
    }

    /// Registers (or re-attaches to) the monotonic timer `name`. Timers
    /// measure wall-clock spans via [`Timer::start`] guards.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn timer(&self, name: &str) -> Timer {
        self.slot(
            name,
            || Metric::Timer(Arc::default()),
            |m| match m {
                Metric::Timer(t) => Some(Timer(Some(t.clone()))),
                _ => None,
            },
        )
    }

    /// The counters `{prefix}{i}{suffix}` for `i` in `0..n`, handle `i`
    /// index `i`'s — so `counters("sim.chan", ".bytes", 2)` holds
    /// `sim.chan0.bytes` and `sim.chan1.bytes` — each registered or
    /// re-attached to as [`counter`](Self::counter) does. The registry
    /// formats and looks up each name once: a later request with the same
    /// `prefix` and `suffix` reuses the metrics found.
    ///
    /// # Panics
    ///
    /// Panics if one of the names is already registered as a different
    /// metric kind.
    pub(crate) fn counters(&self, prefix: &str, suffix: &str, n: usize) -> Vec<Counter> {
        self.indexed(prefix, suffix, n, Metric::new_counter, Metric::counter)
    }

    /// The gauges `{prefix}{i}{suffix}` for `i` in `0..n`, as
    /// [`counters`](Self::counters) resolves counters.
    ///
    /// # Panics
    ///
    /// As [`counters`](Self::counters).
    pub(crate) fn gauges(&self, prefix: &str, suffix: &str, n: usize) -> Vec<Gauge> {
        self.indexed(prefix, suffix, n, Metric::new_gauge, Metric::gauge)
    }

    /// The histograms `{prefix}{i}{suffix}` over `bounds` for `i` in
    /// `0..n`, as [`counters`](Self::counters) resolves counters.
    ///
    /// # Panics
    ///
    /// As [`histogram`](Self::histogram).
    pub(crate) fn histograms(
        &self,
        prefix: &str,
        suffix: &str,
        bounds: &[u64],
        n: usize,
    ) -> Vec<BucketHistogram> {
        self.indexed(
            prefix,
            suffix,
            n,
            || HistogramCore::metric(bounds),
            |m| m.histogram(bounds),
        )
    }

    /// The handles of `{prefix}{i}{suffix}` for `i` in `0..n`: the names
    /// not resolved by an earlier request are registered as
    /// [`slot`](Self::slot) registers one, the rest come from the cache.
    fn indexed<H: Clone + Default>(
        &self,
        prefix: &str,
        suffix: &str,
        n: usize,
        mk: impl Fn() -> Metric,
        handle: impl Fn(&Metric) -> Option<H>,
    ) -> Vec<H> {
        let Some(inner) = &self.inner else {
            return vec![H::default(); n];
        };
        let mut state = inner.lock().expect("registry lock");
        let State { metrics, indexed } = &mut *state;
        let at = match indexed
            .iter()
            .position(|(p, s, _)| p == prefix && s == suffix)
        {
            Some(at) => at,
            None => {
                indexed.push((prefix.to_string(), suffix.to_string(), Vec::new()));
                indexed.len() - 1
            }
        };
        let resolved = &mut indexed[at].2;
        for i in resolved.len()..n {
            let metric = resolve(metrics, &format!("{prefix}{i}{suffix}"), &mk);
            resolved.push(metric.clone());
        }
        resolved[..n]
            .iter()
            .enumerate()
            .map(|(i, m)| {
                handle(m).unwrap_or_else(|| {
                    panic!(
                        "metric \"{prefix}{i}{suffix}\" already registered as a {}",
                        m.kind()
                    )
                })
            })
            .collect()
    }

    /// The handle of `name`: re-attached if registered, made by `mk` and
    /// registered otherwise, the default no-op handle when disabled.
    fn slot<H: Default>(
        &self,
        name: &str,
        mk: impl FnOnce() -> Metric,
        handle: impl FnOnce(&Metric) -> Option<H>,
    ) -> H {
        let Some(inner) = &self.inner else {
            return H::default();
        };
        let mut state = inner.lock().expect("registry lock");
        let metric = resolve(&mut state.metrics, name, mk);
        handle(metric)
            .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", metric.kind()))
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. Empty for a disabled registry.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        if let Some(inner) = &self.inner {
            let state = inner.lock().expect("registry lock");
            for (name, metric) in state.metrics.iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Relaxed))),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    Metric::Timer(t) => MetricValue::Timer(TimerStats {
                        count: t.count.load(Relaxed),
                        total_ns: t.total_ns.load(Relaxed),
                        max_ns: t.max_ns.load(Relaxed),
                    }),
                };
                entries.push((name.clone(), value));
            }
        }
        Snapshot { entries }
    }
}

/// A monotonically increasing `u64` counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`. No-op on a disabled handle.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value (0 on a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A last-value-wins `f64` gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge. No-op on a disabled handle.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(g) = &self.0 {
            g.store(value.to_bits(), Relaxed);
        }
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bucket bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One slot per bound plus a final overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    /// A fresh histogram metric over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    fn metric(bounds: &[u64]) -> Metric {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Metric::Histogram(Arc::new(Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    fn snapshot(&self) -> HistogramStats {
        HistogramStats {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A fixed-bucket histogram handle over `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct BucketHistogram(Option<Arc<HistogramCore>>);

impl BucketHistogram {
    /// Records one sample. No-op on a disabled handle.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n > 0` samples of `value`, exactly as observing each of
    /// them would: in the bucket of the first bound at or above it, or
    /// the overflow one. No-op on a disabled handle.
    #[inline]
    pub(crate) fn observe_n(&self, value: u64, n: u64) {
        if let Some(h) = &self.0 {
            h.buckets[h.bounds.partition_point(|&b| b < value)].fetch_add(n, Relaxed);
            h.count.fetch_add(n, Relaxed);
            h.sum.fetch_add(value * n, Relaxed);
            h.max.fetch_max(value, Relaxed);
        }
    }
}

/// Point-in-time contents of a [`BucketHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStats {
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; one extra trailing overflow bucket.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramStats {
    /// Mean sample value, 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) estimated from the buckets:
    /// the inclusive upper bound of the bucket holding the rank-⌈p·n/100⌉
    /// sample — clamped to the exact observed maximum, so a sparse top
    /// bucket never reports a value no sample reached — or the maximum
    /// itself for samples in the overflow bucket. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max),
                    // Overflow bucket: the only exact statistic we track
                    // above the last bound is the maximum.
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Median estimate (see [`percentile`](Self::percentile)).
    pub(crate) fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate.
    pub(crate) fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate.
    pub(crate) fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

#[derive(Debug, Default)]
struct TimerCore {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl TimerCore {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }
}

/// A monotonic wall-clock span timer handle.
#[derive(Debug, Clone, Default)]
pub struct Timer(Option<Arc<TimerCore>>);

impl Timer {
    /// Starts a span; the elapsed time is recorded when the returned guard
    /// drops. A disabled handle never reads the clock.
    #[inline]
    pub fn start(&self) -> TimerGuard {
        TimerGuard(self.0.as_ref().map(|c| (c.clone(), Instant::now())))
    }
}

/// Records its span into the owning [`Timer`] on drop.
#[derive(Debug)]
#[must_use = "dropping the guard ends the span"]
pub struct TimerGuard(Option<(Arc<TimerCore>, Instant)>);

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((core, started)) = self.0.take() {
            core.record(started.elapsed().as_nanos() as u64);
        }
    }
}

/// Accumulated spans of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Total span time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's buckets and summary stats.
    Histogram(HistogramStats),
    /// A timer's accumulated spans.
    Timer(TimerStats),
}

/// A point-in-time view of every metric in a [`Registry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The value of counter `name`, if registered as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the snapshot as one `name = value` line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name} = {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name} = {v:.3}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} = count {} / mean {:.1} / p50 {} / p95 {} / p99 {} / max {}",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        h.max
                    );
                }
                MetricValue::Timer(t) => {
                    let _ = writeln!(
                        out,
                        "{name} = {} spans / total {:.3} ms / max {:.3} ms",
                        t.count,
                        t.total_ns as f64 / 1e6,
                        t.max_ns as f64 / 1e6
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the registry's snapshot holds for histogram `name`.
    fn stats(reg: &Registry, name: &str) -> HistogramStats {
        match reg.snapshot().get(name) {
            Some(MetricValue::Histogram(s)) => s.clone(),
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn disabled_handles_are_no_ops() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("a");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = reg.gauge("b");
        g.set(3.5);
        let h = reg.histogram("c", &[1, 2]);
        h.observe(5);
        let t = reg.timer("d");
        drop(t.start());
        assert!(reg.snapshot().entries.is_empty());
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::enabled();
        let c = reg.counter("sim.events");
        c.inc();
        c.add(4);
        // Re-registration attaches to the same state.
        assert_eq!(reg.counter("sim.events").get(), 5);
        let g = reg.gauge("goodput");
        g.set(87.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.events"), Some(5));
        assert_eq!(snap.get("goodput"), Some(&MetricValue::Gauge(87.5)));
        assert!(snap.render().contains("sim.events = 5"));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::enabled();
        let h = reg.histogram("depth", &[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        let s = stats(&reg, "depth");
        assert_eq!(s.buckets, vec![2, 1, 1, 1]); // ≤1, ≤4, ≤16, overflow
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 108);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 21.6).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_estimate_from_buckets() {
        let reg = Registry::enabled();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 2000] {
            h.observe(v);
        }
        let s = stats(&reg, "lat");
        // Nine samples land in the ≤10 bucket, one overflows.
        assert_eq!(s.percentile(0.0), 10);
        assert_eq!(s.p50(), 10);
        assert_eq!(s.percentile(90.0), 10);
        // The overflow bucket reports the exact maximum.
        assert_eq!(s.p95(), 2000);
        assert_eq!(s.p99(), 2000);
        assert_eq!(s.percentile(100.0), 2000);
        // Empty histograms are well-defined.
        reg.histogram("empty", &[1]);
        assert_eq!(stats(&reg, "empty").p50(), 0);
        // The snapshot renderer surfaces the estimates.
        assert!(reg
            .snapshot()
            .render()
            .contains("lat = count 10 / mean 204.5 / p50 10 / p95 2000 / p99 2000 / max 2000"));
    }

    #[test]
    fn repeated_samples_equal_observed_ones() {
        let reg = Registry::enabled();
        let (one, batch) = (
            reg.histogram("one", &[1, 4, 16]),
            reg.histogram("batch", &[1, 4, 16]),
        );
        for (v, n) in [(0, 2), (2, 1), (5, 3), (100, 1)] {
            for _ in 0..n {
                one.observe(v);
            }
            batch.observe_n(v, n);
        }
        assert_eq!(stats(&reg, "one").buckets, vec![2, 1, 3, 1]);
        assert_eq!(stats(&reg, "one"), stats(&reg, "batch"));
    }

    #[test]
    fn indexed_metrics_are_the_named_ones() {
        let reg = Registry::enabled();
        reg.counter("sim.chan1.bytes").add(5);
        let bytes = reg.counters("sim.chan", ".bytes", 2);
        bytes[0].add(7);
        bytes[1].inc();
        assert_eq!(reg.counter("sim.chan0.bytes").get(), 7);
        assert_eq!(reg.counter("sim.chan1.bytes").get(), 6);
        // A larger request resolves the new indices; a smaller one is cut.
        let grown = reg.counters("sim.chan", ".bytes", 3);
        grown[2].inc();
        assert_eq!(
            (grown[1].get(), reg.counter("sim.chan2.bytes").get()),
            (6, 1)
        );
        assert_eq!(reg.counters("sim.chan", ".bytes", 1).len(), 1);
        reg.gauges("sim.chan", ".idle_ns", 1)[0].set(2.5);
        reg.histograms("sim.dev", ".depth", &[1, 2], 1)[0].observe(2);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "sim.chan0.bytes",
                "sim.chan0.idle_ns",
                "sim.chan1.bytes",
                "sim.chan2.bytes",
                "sim.dev0.depth"
            ]
        );
        assert_eq!(
            snap.get("sim.chan0.idle_ns"),
            Some(&MetricValue::Gauge(2.5))
        );
        // Disabled handles are inert.
        let off = Registry::disabled().counters("sim.chan", ".bytes", 2);
        off[0].inc();
        assert_eq!((off.len(), off[0].get()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn indexed_kind_mismatch_panics() {
        let reg = Registry::enabled();
        let _ = reg.counters("f", "", 1);
        let _ = reg.gauges("f", "", 1);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn indexed_bounds_mismatch_panics() {
        let reg = Registry::enabled();
        let _ = reg.histograms("h", "", &[1, 2], 1);
        let _ = reg.histograms("h", "", &[1, 3], 1);
    }

    #[test]
    fn timers_accumulate_spans() {
        let reg = Registry::enabled();
        let t = reg.timer("derive");
        {
            let _guard = t.start();
        }
        {
            let _guard = t.start();
            std::thread::sleep(std::time::Duration::from_micros(1));
        }
        match reg.snapshot().get("derive") {
            Some(MetricValue::Timer(stats)) => {
                assert_eq!(stats.count, 2);
                assert!(stats.total_ns >= 1_000);
                assert!(stats.max_ns >= 1_000);
            }
            other => panic!("expected a timer, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::enabled();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::enabled();
        let _ = reg.counter("b");
        let _ = reg.counter("a");
        let names: Vec<_> = reg
            .snapshot()
            .entries
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
