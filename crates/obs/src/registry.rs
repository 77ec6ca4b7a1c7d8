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
//! metrics such as `sim.chan{c}.bytes` (`Registry::counters` and its
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

/// A registered metric: its handle, which always records.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(BucketHistogram),
    Timer(Timer),
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
        Metric::Counter(Counter(Some(Arc::default())))
    }

    fn counter(&self) -> Option<&Counter> {
        match self {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }

    fn new_gauge() -> Self {
        Metric::Gauge(Gauge(Some(Arc::default())))
    }

    fn gauge(&self) -> Option<&Gauge> {
        match self {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// The histogram handle, if this is a histogram over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if it is a histogram over other bounds.
    fn histogram(&self, bounds: &[u64]) -> Option<&BucketHistogram> {
        match self {
            Metric::Histogram(h) => {
                let core = h.0.as_ref().expect("a registered histogram records");
                assert_eq!(
                    core.bounds, bounds,
                    "histogram over {:?} re-registered with different bounds",
                    core.bounds
                );
                Some(h)
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
            || Metric::Timer(Timer(Some(Arc::default()))),
            |m| match m {
                Metric::Timer(t) => Some(t),
                _ => None,
            },
        )
    }

    /// Calls `f(i, counter)` for the counters `{prefix}{i}{suffix}`, `i`
    /// in `0..n` — so `counters("sim.chan", ".bytes", 2, f)` visits
    /// `sim.chan0.bytes` and `sim.chan1.bytes` — registering the new ones,
    /// with the registry locked. It formats and looks up each name once: a
    /// later call with the same `prefix` and `suffix` reuses the metrics
    /// found, and no handle is cloned. A disabled registry calls nothing.
    ///
    /// # Panics
    ///
    /// Panics if one of the names is already registered as a different
    /// metric kind.
    pub(crate) fn counters(
        &self,
        prefix: &str,
        suffix: &str,
        n: usize,
        f: impl FnMut(usize, &Counter),
    ) {
        self.indexed(prefix, suffix, n, Metric::new_counter, Metric::counter, f);
    }

    /// [`counters`](Self::counters) for gauges.
    ///
    /// # Panics
    ///
    /// As [`counters`](Self::counters).
    pub(crate) fn gauges(
        &self,
        prefix: &str,
        suffix: &str,
        n: usize,
        f: impl FnMut(usize, &Gauge),
    ) {
        self.indexed(prefix, suffix, n, Metric::new_gauge, Metric::gauge, f);
    }

    /// Visits the handles of `{prefix}{i}{suffix}` for `i` in `0..n`: the
    /// names not resolved by an earlier request are registered as
    /// [`slot`](Self::slot) registers one, the rest come from the cache.
    fn indexed<H>(
        &self,
        prefix: &str,
        suffix: &str,
        n: usize,
        mk: impl Fn() -> Metric,
        handle: impl Fn(&Metric) -> Option<&H>,
        mut f: impl FnMut(usize, &H),
    ) {
        let Some(inner) = &self.inner else {
            return;
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
        for (i, m) in resolved[..n].iter().enumerate() {
            let h = handle(m).unwrap_or_else(|| {
                panic!(
                    "metric \"{prefix}{i}{suffix}\" already registered as a {}",
                    m.kind()
                )
            });
            f(i, h);
        }
    }

    /// The handle of `name`: re-attached if registered, made by `mk` and
    /// registered otherwise, the default no-op handle when disabled.
    fn slot<H: Clone + Default>(
        &self,
        name: &str,
        mk: impl FnOnce() -> Metric,
        handle: impl FnOnce(&Metric) -> Option<&H>,
    ) -> H {
        let Some(inner) = &self.inner else {
            return H::default();
        };
        let mut state = inner.lock().expect("registry lock");
        let metric = resolve(&mut state.metrics, name, mk);
        handle(metric)
            .cloned()
            .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", metric.kind()))
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. Empty for a disabled registry.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        if let Some(inner) = &self.inner {
            let state = inner.lock().expect("registry lock");
            for (name, metric) in state.metrics.iter() {
                let recording = "a registered metric records";
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(Gauge(g)) => MetricValue::Gauge(f64::from_bits(
                        g.as_ref().expect(recording).load(Relaxed),
                    )),
                    Metric::Histogram(BucketHistogram(h)) => {
                        MetricValue::Histogram(h.as_ref().expect(recording).snapshot())
                    }
                    Metric::Timer(Timer(t)) => {
                        let t = t.as_ref().expect(recording);
                        MetricValue::Timer(TimerStats {
                            count: t.count.load(Relaxed),
                            total_ns: t.total_ns.load(Relaxed),
                            max_ns: t.max_ns.load(Relaxed),
                        })
                    }
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
        Metric::Histogram(BucketHistogram(Some(Arc::new(Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))))
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
        if let Some(h) = &self.0 {
            h.buckets[h.bounds.partition_point(|&b| b < value)].fetch_add(1, Relaxed);
            h.count.fetch_add(1, Relaxed);
            h.sum.fetch_add(value, Relaxed);
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
    fn indexed_metrics_are_the_named_ones() {
        let reg = Registry::enabled();
        reg.counter("sim.chan1.bytes").add(5);
        reg.counters("sim.chan", ".bytes", 2, |i, c| c.add([7, 1][i]));
        assert_eq!(reg.counter("sim.chan0.bytes").get(), 7);
        assert_eq!(reg.counter("sim.chan1.bytes").get(), 6);
        // A larger request resolves the new indices; a smaller one is cut.
        let mut grown = Vec::new();
        reg.counters("sim.chan", ".bytes", 3, |i, c| {
            c.add(u64::from(i == 2));
            grown.push(c.get());
        });
        assert_eq!(grown, [7, 6, 1]);
        assert_eq!(reg.counter("sim.chan2.bytes").get(), 1);
        let mut visited = 0;
        reg.counters("sim.chan", ".bytes", 1, |_, _| visited += 1);
        assert_eq!(visited, 1);
        reg.gauges("sim.chan", ".idle_ns", 1, |_, g| g.set(2.5));
        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "sim.chan0.bytes",
                "sim.chan0.idle_ns",
                "sim.chan1.bytes",
                "sim.chan2.bytes",
            ]
        );
        assert_eq!(
            snap.get("sim.chan0.idle_ns"),
            Some(&MetricValue::Gauge(2.5))
        );
        // A disabled registry visits nothing.
        let mut visited = 0;
        Registry::disabled().counters("sim.chan", ".bytes", 2, |_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn indexed_kind_mismatch_panics() {
        let reg = Registry::enabled();
        reg.counters("f", "", 1, |_, _| {});
        reg.gauges("f", "", 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_mismatch_panics() {
        let reg = Registry::enabled();
        reg.histogram("h", &[1, 2]);
        reg.histogram("h", &[1, 3]);
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
