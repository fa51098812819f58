//! The metrics registry and its metric kinds.
//!
//! All metric values are lock-free atomics; only the name→handle maps take
//! a (sharded) mutex, and callers on hot paths can cache the returned
//! [`std::sync::Arc`] handles to skip even that.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::distribution::{Distribution, DistributionSnapshot};

/// Locks a mutex, recovering the data if a previous holder panicked.
///
/// Every lock in the registry guards a name→handle map or an append-only
/// point list — plain data that is valid after any partial update — so a
/// poisoned lock carries no torn invariant worth cascading a panic for.
/// Without this, one panicking worker thread would permanently poison the
/// process-global registry and crash every later recorder.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous reading.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Running totals of one span path — exactly what [`SpanSnapshot`]
/// reports, as four independent atomics.
#[derive(Debug)]
struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl SpanStats {
    #[inline]
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy (fields are read independently; concurrent
    /// writers may skew them against each other).
    fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min_ns = self.min_ns.load(Ordering::Relaxed);
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { min_ns },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Aggregate timing of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closures.
    pub total_ns: u64,
    /// Fastest single closure, in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Slowest single closure, in nanoseconds.
    pub max_ns: u64,
}

/// An append-only list of `(x, y)` points — per-week trajectories and the
/// like, where the x axis is a day/week index rather than wall time.
#[derive(Debug, Default)]
pub struct Series(Mutex<Vec<(f64, f64)>>);

impl Series {
    /// Appends one point.
    pub fn push(&self, x: f64, y: f64) {
        lock_recovering(&self.0).push((x, y));
    }

    /// A copy of the accumulated points.
    pub fn points(&self) -> Vec<(f64, f64)> {
        lock_recovering(&self.0).clone()
    }
}

const N_SHARDS: usize = 16;

/// One shard of the name→handle maps.
#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    spans: Mutex<HashMap<String, Arc<SpanStats>>>,
    series: Mutex<HashMap<String, Arc<Series>>>,
    distributions: Mutex<HashMap<String, Arc<Distribution>>>,
}

/// A registry of named metrics. Most code uses the process-global instance
/// via [`crate::global`] and the recording macros; independent instances
/// exist for tests.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    shards: Vec<Shard>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over the name: the std `RandomState` hasher would work, but its
/// per-instance seeding makes shard placement differ between registries,
/// which is pointlessly confusing under a debugger.
fn shard_index(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % N_SHARDS
}

impl MetricsRegistry {
    /// Creates an empty, disabled registry.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            shards: (0..N_SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// Whether this registry is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Accumulated values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Drops every accumulated metric (recording state is unchanged).
    pub fn reset(&self) {
        for s in &self.shards {
            lock_recovering(&s.counters).clear();
            lock_recovering(&s.gauges).clear();
            lock_recovering(&s.spans).clear();
            lock_recovering(&s.series).clear();
            lock_recovering(&s.distributions).clear();
        }
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[shard_index(name)]
    }

    fn get_or_insert<T: Default>(map: &Mutex<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        let mut m = lock_recovering(map);
        if let Some(v) = m.get(name) {
            return Arc::clone(v);
        }
        let v = Arc::new(T::default());
        m.insert(name.to_string(), Arc::clone(&v));
        v
    }

    /// The named counter (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.shard(name).counters, name)
    }

    /// The named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.shard(name).gauges, name)
    }

    /// The named series (created on first use).
    pub fn series(&self, name: &str) -> Arc<Series> {
        Self::get_or_insert(&self.shard(name).series, name)
    }

    /// The named fixed-bin distribution, created over `[min, max)` with
    /// `n_bins` bins on first use. The binning parameters only matter on
    /// that first call — later calls return the existing distribution
    /// unchanged, whatever range they pass (like every other
    /// created-on-first-use handle, the name identifies the metric).
    pub fn distribution(&self, name: &str, min: f64, max: f64, n_bins: usize) -> Arc<Distribution> {
        let mut m = lock_recovering(&self.shard(name).distributions);
        if let Some(v) = m.get(name) {
            return Arc::clone(v);
        }
        let v = Arc::new(Distribution::new(min, max, n_bins));
        m.insert(name.to_string(), Arc::clone(&v));
        v
    }

    /// Records one closed span occurrence under a `/`-joined path. Usually
    /// called by [`crate::SpanGuard`]'s drop, but public so harnesses with
    /// dynamic phase names (the bench experiment loop) can record directly.
    pub fn record_span(&self, path: &str, ns: u64) {
        if !self.enabled() {
            return;
        }
        Self::get_or_insert(&self.shard(path).spans, path).record(ns);
    }

    /// A point-in-time copy of everything, with deterministic (sorted) key
    /// order.
    ///
    /// Only `(name, handle)` pairs are copied while a sharded name-map
    /// lock is held; the values themselves — distribution bins, whole
    /// series point lists — are read *after* the map lock drops, so
    /// a live exporter (the `/metrics` endpoint polling every second)
    /// never stalls recorders for longer than a map clone. Per-handle
    /// reads are atomics or take only that one metric's own lock.
    pub fn snapshot(&self) -> Snapshot {
        fn handles<T>(map: &Mutex<HashMap<String, Arc<T>>>) -> Vec<(String, Arc<T>)> {
            lock_recovering(map).iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        }
        let mut snap = Snapshot::default();
        for s in &self.shards {
            for (k, v) in handles(&s.counters) {
                snap.counters.insert(k, v.get());
            }
            for (k, v) in handles(&s.gauges) {
                snap.gauges.insert(k, v.get());
            }
            for (k, v) in handles(&s.spans) {
                snap.spans.insert(k, v.snapshot());
            }
            for (k, v) in handles(&s.series) {
                snap.series.insert(k, v.points());
            }
            for (k, v) in handles(&s.distributions) {
                snap.distributions.insert(k, v.snapshot());
            }
        }
        snap
    }

    /// Serializes a snapshot as one pretty-printed JSON document (see
    /// [`crate::json`] for the schema).
    pub fn to_json(&self) -> String {
        crate::json::snapshot_to_json(&self.snapshot())
    }
}

/// Deterministically-ordered copy of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Span timings by `/`-joined path.
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Series points by name.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
    /// Fixed-bin distribution snapshots by name.
    pub distributions: BTreeMap<String, DistributionSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.counter("a").inc();
        reg.counter("b").inc();
        reg.gauge("g").set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 4);
        assert_eq!(snap.counters["b"], 1);
        assert_eq!(snap.gauges["g"], 2.5);
    }

    #[test]
    fn empty_span_snapshot_is_sane() {
        let s = SpanStats::default().snapshot();
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (0, 0, 0, 0));
        let stats = SpanStats::default();
        stats.record(0);
        stats.record(u64::MAX);
        let s = stats.snapshot();
        assert_eq!((s.count, s.min_ns, s.max_ns), (2, 0, u64::MAX));
    }

    #[test]
    fn handles_are_shared_and_reset_clears() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("shared");
        let c2 = reg.counter("shared");
        c1.add(5);
        assert_eq!(c2.get(), 5, "same underlying atomic");
        reg.series("s").push(1.0, 2.0);
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
        assert!(reg.snapshot().series.is_empty());
    }

    #[test]
    fn record_span_respects_enabled() {
        let reg = MetricsRegistry::new();
        reg.record_span("x", 100);
        assert!(reg.snapshot().spans.is_empty(), "disabled registry records nothing");
        reg.set_enabled(true);
        reg.record_span("x", 100);
        reg.record_span("x", 300);
        let s = &reg.snapshot().spans["x"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 300);
    }

    #[test]
    fn distribution_params_apply_on_first_use_only() {
        let reg = MetricsRegistry::new();
        let d1 = reg.distribution("d", 0.0, 10.0, 5);
        d1.record(3.0);
        // Different parameters on a later call are ignored: same handle.
        let d2 = reg.distribution("d", -100.0, 100.0, 50);
        assert_eq!(d2.n_bins(), 5);
        d2.record(3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.distributions["d"].counts[1], 2);
        reg.reset();
        assert!(reg.snapshot().distributions.is_empty());
    }

    #[test]
    fn recording_survives_a_poisoned_lock() {
        // Poison a series lock and a shard map lock by panicking while
        // holding the guards, then check the registry still records.
        let reg = Arc::new(MetricsRegistry::new());
        reg.set_enabled(true);
        let series = reg.series("poisoned-series");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(no-poisoning-lock-unwrap) -- this test poisons the lock on purpose
            let _guard = series.0.lock().expect("first lock is clean");
            panic!("deliberate");
        }));
        assert!(r.is_err());
        assert!(series.0.is_poisoned());
        series.push(1.0, 2.0);
        assert_eq!(series.points(), vec![(1.0, 2.0)]);

        let shard = reg.shard("poisoned-map");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(no-poisoning-lock-unwrap) -- this test poisons the lock on purpose
            let _guard = shard.counters.lock().expect("first lock is clean");
            panic!("deliberate");
        }));
        assert!(r.is_err());
        reg.counter("poisoned-map").add(3);
        assert_eq!(reg.snapshot().counters["poisoned-map"], 3);
        reg.reset();
        assert!(reg.snapshot().counters.is_empty(), "reset works on poisoned locks too");
    }

    #[test]
    fn live_export_survives_poisoned_locks() {
        // A reader (snapshot / JSON export) must recover, not panic, when
        // a recorder thread died holding a shard map lock or a series'
        // own lock — the live /metrics endpoint keeps serving.
        let reg = Arc::new(MetricsRegistry::new());
        reg.set_enabled(true);
        reg.counter("poisoned-reader").add(7);
        let series = reg.series("poisoned-reader-series");
        series.push(1.0, 2.0);
        let shard = reg.shard("poisoned-reader");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(no-poisoning-lock-unwrap) -- this test poisons the locks on purpose
            let _map = shard.counters.lock().expect("first lock is clean");
            // lint:allow(no-poisoning-lock-unwrap) -- this test poisons the locks on purpose
            let _inner = series.0.lock().expect("first lock is clean");
            panic!("deliberate");
        }));
        assert!(r.is_err());
        assert!(shard.counters.is_poisoned() && series.0.is_poisoned());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["poisoned-reader"], 7);
        assert_eq!(snap.series["poisoned-reader-series"], vec![(1.0, 2.0)]);
        let json = reg.to_json();
        assert!(json.contains("\"poisoned-reader\": 7"));
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for name in ["", "a", "weekly/rank_week", "predictor/fit"] {
            let i = shard_index(name);
            assert!(i < N_SHARDS);
            assert_eq!(i, shard_index(name));
        }
    }
}
