//! Embedded metrics history: a fixed-capacity, downsampling ring store.
//!
//! Where the registry answers "how much, right now", this module retains
//! *when*: on every simulated-day tick it folds a registry snapshot into
//! windowed aggregates (min/max/sum/count/last per window) at two
//! resolutions — per-day and per-week — each a bounded ring that evicts
//! its oldest window when full. The paper's operational premise is
//! watching a plant over time; drift and outage storms only exist as
//! trends, so the history layer is what makes them observable from a
//! running process (`GET /history`) and from a `--metrics` dump
//! (`nevermind-history/v1` section).
//!
//! Design constraints mirror the registry's:
//!
//! * **Deterministic.** The store is clocked exclusively on simulated
//!   days ([`tick`] is called from the simulator's day loop); it never
//!   reads the wall clock, and wall-clock-tainted inputs — span timings,
//!   and any metric whose name ends in `_ms` or `_ns` — are excluded
//!   from capture, so two identically seeded runs produce byte-identical
//!   history exports at any shard count.
//! * **Invisible when off.** A disabled store's [`tick`] is one relaxed
//!   atomic load; outcomes and traces are byte-identical with the layer
//!   on or off (the store only ever *reads* the registry).
//! * **Bounded.** Per-series rings hold at most [`Resolution::retention`]
//!   windows; capture cost is one registry snapshot per simulated day.
//!
//! What each metric kind contributes per tick: counters and gauges their
//! value, series their last `y`, distributions their total observation
//! count.
//! Recording rules ([`crate::rules`]) feed derived values back in through
//! [`record_sample`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{fmt_f64, push_json_string};
use crate::registry::{lock_recovering, Snapshot};

/// Schema identifier for every history/alerting export surface.
pub const SCHEMA: &str = "nevermind-history/v1";

/// Simulated days per week (Saturdays close a week: `day % 7 == 6`).
pub const DAYS_PER_WEEK: u64 = 7;

/// Retention of a history ring, in windows.
///
/// Day windows keep ~4 months of daily aggregates; week windows keep two
/// years. Both are small enough that a full snapshot-and-fold stays far
/// under the hot-path budget (see the `incremental_history` bench
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// One window per simulated day, 128 windows retained.
    Day,
    /// One window per simulated week, 104 windows retained.
    Week,
}

impl Resolution {
    /// Parses the `r=` query value (`"day"` or `"week"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "day" => Some(Resolution::Day),
            "week" => Some(Resolution::Week),
            _ => None,
        }
    }

    /// The resolution's lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Day => "day",
            Resolution::Week => "week",
        }
    }

    /// Window width in simulated days.
    #[must_use]
    pub fn window_days(self) -> u64 {
        match self {
            Resolution::Day => 1,
            Resolution::Week => DAYS_PER_WEEK,
        }
    }

    /// Maximum windows retained per series.
    #[must_use]
    pub fn retention(self) -> usize {
        match self {
            Resolution::Day => 128,
            Resolution::Week => 104,
        }
    }
}

/// One downsampled window of a series: every sample folded between
/// `start_day` and the window's end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// First simulated day the window covers.
    pub start_day: u64,
    /// Smallest folded sample.
    pub min: f64,
    /// Largest folded sample.
    pub max: f64,
    /// Sum of folded samples.
    pub sum: f64,
    /// Number of folded samples.
    pub count: u64,
    /// Most recent folded sample.
    pub last: f64,
}

impl Window {
    fn new(start_day: u64, v: f64) -> Self {
        Window { start_day, min: v, max: v, sum: v, count: 1, last: v }
    }

    fn fold(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
        self.last = v;
    }

    /// Mean of the folded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The two per-resolution rings of one series.
#[derive(Debug, Default, Clone)]
struct SeriesHistory {
    day: VecDeque<Window>,
    week: VecDeque<Window>,
}

impl SeriesHistory {
    fn ring(&self, r: Resolution) -> &VecDeque<Window> {
        match r {
            Resolution::Day => &self.day,
            Resolution::Week => &self.week,
        }
    }

    fn fold(&mut self, day: u64, v: f64) {
        for r in [Resolution::Day, Resolution::Week] {
            let ring = match r {
                Resolution::Day => &mut self.day,
                Resolution::Week => &mut self.week,
            };
            let start = day - day % r.window_days();
            match ring.back_mut() {
                Some(w) if w.start_day == start => w.fold(v),
                // Out-of-order days never happen on the tick path; drop
                // rather than corrupt the monotonic window sequence.
                Some(w) if w.start_day > start => {}
                _ => {
                    ring.push_back(Window::new(start, v));
                    if ring.len() > r.retention() {
                        ring.pop_front();
                    }
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    series: BTreeMap<String, SeriesHistory>,
    last_tick_day: Option<u64>,
    ticks: u64,
}

/// The downsampling ring store. Most code uses the process-global
/// instance via [`global`] and the module-level helpers; independent
/// instances exist for tests.
#[derive(Debug)]
pub struct HistoryStore {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for HistoryStore {
    fn default() -> Self {
        Self::new()
    }
}

/// A metric name whose values are wall-clock durations; such series are
/// excluded from capture so history exports stay deterministic.
fn wallclock_tainted(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_ns")
}

impl HistoryStore {
    /// Creates an empty, disabled store.
    #[must_use]
    pub fn new() -> Self {
        HistoryStore { enabled: AtomicBool::new(false), inner: Mutex::new(Inner::default()) }
    }

    /// Whether the store is capturing (one relaxed atomic load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns capture on or off. Accumulated windows are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Drops every accumulated window (the enabled flag is unchanged).
    pub fn reset(&self) {
        let mut inner = lock_recovering(&self.inner);
        *inner = Inner::default();
    }

    /// Folds one sample into both resolution rings of the named series.
    pub fn record(&self, name: &str, day: u64, value: f64) {
        if !self.enabled() || !value.is_finite() {
            return;
        }
        let mut inner = lock_recovering(&self.inner);
        inner.series.entry(name.to_string()).or_default().fold(day, value);
    }

    /// Folds one registry snapshot, attributing every captured value to
    /// simulated day `day`. Spans and `_ms`/`_ns`-named metrics are
    /// skipped (wall-clock taint — see the module docs).
    pub fn fold_snapshot(&self, day: u64, snap: &Snapshot) {
        if !self.enabled() {
            return;
        }
        let mut inner = lock_recovering(&self.inner);
        inner.last_tick_day = Some(day);
        inner.ticks += 1;
        for (k, v) in &snap.counters {
            if !wallclock_tainted(k) {
                inner.series.entry(k.clone()).or_default().fold(day, *v as f64);
            }
        }
        for (k, v) in &snap.gauges {
            if !wallclock_tainted(k) && v.is_finite() {
                inner.series.entry(k.clone()).or_default().fold(day, *v);
            }
        }
        for (k, pts) in &snap.series {
            if wallclock_tainted(k) {
                continue;
            }
            if let Some(&(_, y)) = pts.last() {
                if y.is_finite() {
                    inner.series.entry(k.clone()).or_default().fold(day, y);
                }
            }
        }
        for (k, d) in &snap.distributions {
            let total: u64 = d.counts.iter().sum::<u64>() + d.underflow + d.overflow;
            inner.series.entry(k.clone()).or_default().fold(day, total as f64);
        }
    }

    /// Sorted names of every captured series.
    pub fn names(&self) -> Vec<String> {
        lock_recovering(&self.inner).series.keys().cloned().collect()
    }

    /// The retained windows of one series at one resolution (oldest
    /// first), or `None` when the series was never captured.
    pub fn query(&self, name: &str, r: Resolution) -> Option<Vec<Window>> {
        let inner = lock_recovering(&self.inner);
        inner.series.get(name).map(|s| s.ring(r).iter().copied().collect())
    }

    /// The last simulated day folded, if any.
    pub fn last_tick_day(&self) -> Option<u64> {
        lock_recovering(&self.inner).last_tick_day
    }

    /// Number of ticks folded since creation/reset.
    pub fn ticks(&self) -> u64 {
        lock_recovering(&self.inner).ticks
    }

    /// A copy of every series' rings, sorted by name. Data is copied out
    /// under the lock and rendered by callers after it drops.
    fn collect(&self) -> Vec<(String, SeriesHistory)> {
        let inner = lock_recovering(&self.inner);
        inner.series.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Renders the `GET /history?series=NAME&r=RES` payload, or `None`
    /// when the series was never captured.
    pub fn series_json(&self, name: &str, r: Resolution) -> Option<String> {
        let windows = self.query(name, r)?;
        let mut out = String::with_capacity(128 + windows.len() * 48);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"series\":");
        push_json_string(&mut out, name);
        out.push_str(",\"resolution\":\"");
        out.push_str(r.name());
        out.push_str("\",\"window_days\":");
        out.push_str(&r.window_days().to_string());
        out.push_str(",\"windows\":");
        push_windows(&mut out, &windows);
        out.push_str("}\n");
        Some(out)
    }

    /// Renders the `GET /history` index payload: enabled flag, tick
    /// stats, and the sorted series names.
    pub fn index_json(&self) -> String {
        let names = self.names();
        let mut out = String::with_capacity(64 + names.len() * 24);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"enabled\":");
        out.push_str(if self.enabled() { "true" } else { "false" });
        out.push_str(",\"ticks\":");
        out.push_str(&self.ticks().to_string());
        out.push_str(",\"last_day\":");
        match self.last_tick_day() {
            Some(d) => out.push_str(&d.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"series\":[");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, n);
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the store as the `history` section object of a metrics
    /// dump: schema, resolutions, and every series' windows at both
    /// resolutions, plus an optional pre-rendered `alerting` object (the
    /// installed rule engine's status). `indent` is the base indentation
    /// of the object.
    pub fn section_json(&self, indent: &str, alerting: Option<&str>) -> String {
        let all = self.collect();
        let mut out = String::with_capacity(256 + all.len() * 128);
        out.push_str("{\n");
        let pad = format!("{indent}  ");
        out.push_str(&format!("{pad}\"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("{pad}\"ticks\": {},\n", self.ticks()));
        out.push_str(&format!("{pad}\"resolutions\": {{"));
        for (i, r) in [Resolution::Day, Resolution::Week].iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"window_days\": {}, \"retention\": {}}}",
                r.name(),
                r.window_days(),
                r.retention()
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!("{pad}\"series\": {{"));
        for (i, (name, hist)) in all.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{pad}  "));
            push_json_string(&mut out, name);
            out.push_str(": {\"day\": ");
            push_windows(&mut out, &hist.day.iter().copied().collect::<Vec<_>>());
            out.push_str(", \"week\": ");
            push_windows(&mut out, &hist.week.iter().copied().collect::<Vec<_>>());
            out.push('}');
        }
        if all.is_empty() {
            out.push('}');
        } else {
            out.push_str(&format!("\n{pad}}}"));
        }
        if let Some(a) = alerting {
            out.push_str(",\n");
            out.push_str(&pad);
            out.push_str("\"alerting\": ");
            out.push_str(a);
        }
        out.push('\n');
        out.push_str(indent);
        out.push('}');
        out
    }
}

/// Appends windows as `[[start, min, max, sum, count, last], ...]`.
fn push_windows(out: &mut String, windows: &[Window]) {
    out.push('[');
    for (i, w) in windows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "[{}, {}, {}, {}, {}, {}]",
            w.start_day,
            fmt_f64(w.min),
            fmt_f64(w.max),
            fmt_f64(w.sum),
            w.count,
            fmt_f64(w.last)
        ));
    }
    out.push(']');
}

static GLOBAL_HISTORY: OnceLock<HistoryStore> = OnceLock::new();

/// The process-global history store (created disabled on first use).
pub fn global() -> &'static HistoryStore {
    GLOBAL_HISTORY.get_or_init(HistoryStore::new)
}

/// Whether the global store is capturing (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Turns global history capture on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Folds one derived sample into the global store (used by recording
/// rules; no-op while capture is off or the value is non-finite).
pub fn record_sample(name: &str, day: u64, value: f64) {
    global().record(name, day, value);
}

/// The per-simulated-day history tick, called by the simulator at the
/// end of every stepped day.
///
/// Snapshots the global registry, folds it into the store, and — on
/// week-closing days (`day % 7 == 6`) — evaluates the installed rule
/// engine ([`crate::rules`]) against the same snapshot. One relaxed
/// atomic load when the store is disabled.
pub fn tick(day: u64) {
    let store = global();
    if !store.enabled() {
        return;
    }
    let _guard = crate::span!("history/tick");
    let snap = crate::global().snapshot();
    store.fold_snapshot(day, &snap);
    if day % DAYS_PER_WEEK == DAYS_PER_WEEK - 1 {
        crate::rules::evaluate(day, &snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_captures_nothing() {
        let store = HistoryStore::new();
        store.record("x", 0, 1.0);
        store.fold_snapshot(0, &Snapshot::default());
        assert!(store.names().is_empty());
        assert_eq!(store.ticks(), 0);
    }

    #[test]
    fn windows_fold_min_max_sum_count_last() {
        let store = HistoryStore::new();
        store.set_enabled(true);
        for (day, v) in [(0, 3.0), (1, 1.0), (2, 5.0), (7, 2.0)] {
            store.record("s", day, v);
        }
        let days = store.query("s", Resolution::Day).expect("captured");
        assert_eq!(days.len(), 4, "one window per day");
        let weeks = store.query("s", Resolution::Week).expect("captured");
        assert_eq!(weeks.len(), 2);
        let w0 = weeks[0];
        assert_eq!(
            (w0.start_day, w0.min, w0.max, w0.sum, w0.count, w0.last),
            (0, 1.0, 5.0, 9.0, 3, 5.0)
        );
        assert_eq!(w0.mean(), 3.0);
        assert_eq!(weeks[1].start_day, 7);
    }

    #[test]
    fn rings_evict_oldest_when_full() {
        let store = HistoryStore::new();
        store.set_enabled(true);
        let n = Resolution::Day.retention() as u64 + 10;
        for day in 0..n {
            store.record("s", day, day as f64);
        }
        let days = store.query("s", Resolution::Day).expect("captured");
        assert_eq!(days.len(), Resolution::Day.retention());
        assert_eq!(days[0].start_day, 10, "oldest evicted");
        assert_eq!(days.last().expect("nonempty").start_day, n - 1);
    }

    #[test]
    fn snapshot_fold_skips_wallclock_tainted_names_and_spans() {
        let mut snap = Snapshot::default();
        snap.counters.insert("weekly/lines_scored".into(), 10);
        snap.gauges.insert("alerts/firing".into(), 1.0);
        snap.series.insert("trial/week_rank_ms".into(), vec![(0.0, 4.2)]);
        snap.series.insert("trial/week_dispatches".into(), vec![(0.0, 7.0)]);
        snap.spans.insert(
            "sim/step_day".into(),
            crate::SpanSnapshot { count: 1, total_ns: 5, min_ns: 5, max_ns: 5 },
        );
        let store = HistoryStore::new();
        store.set_enabled(true);
        store.fold_snapshot(6, &snap);
        let names = store.names();
        assert_eq!(
            names,
            vec!["alerts/firing", "trial/week_dispatches", "weekly/lines_scored"],
            "no _ms series, no spans"
        );
        assert_eq!(store.last_tick_day(), Some(6));
    }

    #[test]
    fn exports_are_deterministic_and_schema_tagged() {
        let store = HistoryStore::new();
        store.set_enabled(true);
        store.record("a", 0, 1.0);
        store.record("a", 6, 2.0);
        store.record("b", 6, 0.5);
        let payload = store.series_json("a", Resolution::Week).expect("captured");
        assert!(payload.contains("\"schema\":\"nevermind-history/v1\""), "{payload}");
        assert!(payload.contains("[[0, 1.0, 2.0, 3.0, 2, 2.0]]"), "{payload}");
        assert_eq!(payload, store.series_json("a", Resolution::Week).expect("captured"));
        assert!(store.series_json("missing", Resolution::Day).is_none());
        let index = store.index_json();
        assert!(index.contains("\"series\":[\"a\",\"b\"]"), "{index}");
        let section = store.section_json("  ", None);
        assert!(section.contains("\"schema\": \"nevermind-history/v1\""), "{section}");
        assert!(section.contains("\"retention\": 104"), "{section}");
        let with_alerting = store.section_json("  ", Some("{\"firing\": 0}"));
        assert!(with_alerting.contains("\"alerting\": {\"firing\": 0}"), "{with_alerting}");
    }

    #[test]
    fn resolution_parse_round_trips() {
        for r in [Resolution::Day, Resolution::Week] {
            assert_eq!(Resolution::parse(r.name()), Some(r));
        }
        assert_eq!(Resolution::parse("hour"), None);
    }
}
