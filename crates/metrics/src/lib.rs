//! # sectopk-metrics
//!
//! Lock-cheap observability for the serving stack: monotonic [`Counter`]s and
//! fixed-bucket log-scale [`Histogram`]s behind one [`Registry`], plus the
//! [`TraceHook`] trait a future tracing backend plugs into.
//!
//! # Design: never on the determinism path
//!
//! The protocol engine guarantees byte-identical results, leakage ledgers and
//! `ChannelMetrics` for a fixed seed, across transports and worker counts.  This crate
//! must never endanger that, so:
//!
//! * A [`Registry`] is either **enabled** (backed by shared atomics) or **disabled**
//!   (a `None`, the default).  Every handle cloned from a disabled registry is a
//!   no-op: no allocation, no atomic traffic, and — critically — **no wall-clock
//!   reads**.  Instrumented code asks [`Histogram::start`] for a timestamp, which
//!   returns `None` when disabled, so `Instant::now()` is only ever called when the
//!   operator opted in.
//! * Metrics are **observe-only**: nothing in the protocol reads them back to make a
//!   decision, so enabling them cannot perturb protocol bytes.  The invariance suite
//!   (`tests/metrics_invariance.rs`) pins this: enabled-vs-disabled runs are
//!   byte-identical in results, ledgers and `ChannelMetrics`.
//! * Deterministic events (requests by kind, rejects, replay hits) land in counters
//!   whose values are exactly reproducible; wall-clock durations land only in
//!   histograms, which tests assert **structurally** (bucket monotonicity, count =
//!   observations), never on timing values.
//!
//! # Concurrency
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap clones of an
//! `Arc<AtomicU64>` (or a fixed atomic bucket array) and record with relaxed atomic
//! adds — no locks on the hot path.  The registry's name→handle maps take a mutex
//! only at handle **creation** and at [`Registry::snapshot`] time, so instrumented
//! code caches its handles once and then records lock-free.
//!
//! # Histograms
//!
//! Power-of-two log-scale buckets: an observation of `v` lands in the bucket of its
//! bit length (`v = 0` → bucket 0, else `ceil(log2(v + 1))`), covering the full `u64`
//! range in [`HISTOGRAM_BUCKETS`] buckets with one atomic add.  Nanosecond latencies
//! from ~1ns to ~584 years resolve to within 2×, which is what an operator needs from
//! a round-latency histogram — exact tails come from the recorded sum/count and the
//! approximate quantiles in [`MetricsSnapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Number of log-scale buckets in every [`Histogram`]: bucket `i` counts observations
/// of bit length `i` (bucket 0 counts exact zeros), so 65 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket an observation lands in: its bit length (0 for 0).
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index` (`2^index - 1`, saturating at `u64::MAX`).
fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Shared cells of one histogram.
#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The maps behind an enabled registry.  Locked only at handle creation and snapshot
/// time; recording goes straight to the shared atomics.
#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
}

/// A metrics registry: either enabled (shared atomic storage) or disabled (every
/// handle is a no-op and no clock is ever read).  Cloning shares the storage.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// A disabled registry: all handles are no-ops, [`Registry::snapshot`] is empty.
    /// This is the default, so un-instrumented callers pay nothing.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// A fresh enabled registry.
    pub fn enabled() -> Self {
        Registry { inner: Some(Arc::new(Inner::default())) }
    }

    /// The monotonic counter named `name` (created on first use).  Cache the handle:
    /// creation takes the registry lock, recording does not.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("metrics registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// The log-scale histogram named `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("metrics registry poisoned")
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCells::new())),
            )
        }))
    }

    /// A point-in-time copy of every metric, safe to take while recording continues.
    /// Disabled registries snapshot to [`MetricsSnapshot::default`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = self.inner.as_ref() else { return MetricsSnapshot::default() };
        let counters = inner
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, cells)| {
                let buckets = cells
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, bucket)| {
                        let count = bucket.load(Ordering::Relaxed);
                        (count > 0).then(|| HistogramBucket { le: bucket_upper_bound(i), count })
                    })
                    .collect();
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: cells.count.load(Ordering::Relaxed),
                        sum: cells.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }

    /// A human-readable dump of [`Registry::snapshot`] — what
    /// `sectopk-s2d --metrics-period` prints.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A monotonic counter handle.  No-op when cloned from a disabled registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what uninstrumented code holds by default).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Add 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A log-scale histogram handle.  No-op when cloned from a disabled registry.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        if let Some(cells) = &self.0 {
            cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX` ≈ 584 years).
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Begin a timing sample: reads the clock **only when enabled**, so disabled
    /// registries stay entirely off the wall-clock (the determinism contract).
    pub fn start(&self) -> Option<Instant> {
        self.0.is_some().then(Instant::now)
    }

    /// Finish a timing sample begun with [`Histogram::start`].
    pub fn stop(&self, started: Option<Instant>) {
        if let Some(started) = started {
            self.observe_duration(started.elapsed());
        }
    }
}

/// One non-empty histogram bucket in a snapshot: everything observed at or below
/// `le` (and above the previous bucket's bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (`2^i - 1` nanoseconds for latencies).
    pub le: u64,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// Point-in-time state of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on `u64` overflow).
    pub sum: u64,
    /// The non-empty buckets, in ascending `le` order.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0.0–1.0) — a ≤2×
    /// overestimate, which is the honest resolution of a log-scale histogram.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                return Some(bucket.le);
            }
        }
        self.buckets.last().map(|b| b.le)
    }
}

/// A serializable point-in-time copy of a whole [`Registry`] — what `ServeReport`
/// carries and what a live `QueryServer` / `sectopk-s2d` can be polled for mid-run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram's snapshot, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render as indented human-readable text (one metric per line, durations shown
    /// as approximate milliseconds where the name ends in `_nanos`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, hist) in &self.histograms {
                let _ = write!(out, "  {name} count={} mean={:.0}", hist.count, hist.mean());
                for q in [0.5, 0.9, 0.99] {
                    if let Some(le) = hist.quantile(q) {
                        let _ = write!(out, " p{:.0}≤{le}", q * 100.0);
                    }
                }
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Span hooks for a pluggable tracing backend: the protocol layer calls
/// [`TraceHook::enter`]/[`TraceHook::exit`] around every protocol round, and the
/// default implementations are no-ops, so tracing costs nothing until a backend
/// overrides them.  Implementations must be cheap and must never block the round.
pub trait TraceHook: Send + Sync {
    /// A span named `span` begins (e.g. `round:Compare`).
    fn enter(&self, span: &str) {
        let _ = span;
    }

    /// The span named `span` ends.
    fn exit(&self, span: &str) {
        let _ = span;
    }
}

/// The default [`TraceHook`]: does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTrace;

impl TraceHook for NoopTrace {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_total_noop() {
        let registry = Registry::disabled();
        let counter = registry.counter("c");
        counter.incr();
        counter.add(10);
        assert_eq!(counter.value(), 0);
        let histogram = registry.histogram("h");
        assert!(histogram.start().is_none(), "disabled histograms must not read the clock");
        histogram.observe(123);
        histogram.stop(None);
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counters_record_and_share_by_name() {
        let registry = Registry::enabled();
        let a = registry.counter("requests");
        let b = registry.counter("requests");
        a.incr();
        b.add(2);
        assert_eq!(a.value(), 3, "same-name handles share one cell");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("requests"), 3);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_structurally_consistent() {
        let registry = Registry::enabled();
        let histogram = registry.histogram("lat");
        let values = [0u64, 1, 2, 3, 4, 1000, 1_000_000, u64::MAX];
        for v in values {
            histogram.observe(v);
        }
        let snapshot = registry.snapshot();
        let hist = snapshot.histogram("lat").expect("recorded");
        assert_eq!(hist.count, values.len() as u64);
        assert_eq!(hist.count, hist.buckets.iter().map(|b| b.count).sum::<u64>());
        assert!(
            hist.buckets.windows(2).all(|w| w[0].le < w[1].le),
            "bucket bounds must be strictly increasing: {:?}",
            hist.buckets
        );
        assert_eq!(hist.sum, values.iter().fold(0u64, |acc, v| acc.wrapping_add(*v)));
        assert!(hist.quantile(0.5).is_some());
        assert_eq!(hist.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 7, 8, 1 << 20, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn timing_samples_only_touch_the_clock_when_enabled() {
        let histogram = Registry::enabled().histogram("t");
        let sample = histogram.start();
        assert!(sample.is_some());
        histogram.stop(sample);
        assert_eq!(histogram.0.as_ref().unwrap().count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_round_trips_through_serde_and_renders() {
        let registry = Registry::enabled();
        registry.counter("pool.replayed").add(4);
        registry.histogram("round_nanos").observe(1500);
        let snapshot = registry.snapshot();
        let json = serde_json::to_string(&snapshot).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snapshot);
        let rendered = snapshot.render();
        assert!(rendered.contains("pool.replayed 4"), "render missing counter: {rendered}");
        assert!(rendered.contains("round_nanos count=1"), "render missing histogram: {rendered}");
    }

    #[test]
    fn trace_hook_defaults_are_noops() {
        let hook: &dyn TraceHook = &NoopTrace;
        hook.enter("round:Compare");
        hook.exit("round:Compare");
    }
}
