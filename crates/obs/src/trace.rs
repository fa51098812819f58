//! Decision-provenance tracing: a bounded ring buffer of typed events.
//!
//! Where the metrics registry answers "how much / how long", the trace
//! buffer answers "*why this line*": every rank, calibration step,
//! dispatch-cutoff decision and technician visit can append a
//! [`TraceEvent`] carrying the numbers that produced it, keyed by the line
//! and the simulated day. Reading the JSONL export back reconstructs a
//! single line's journey from stump margins to what the truck found;
//! [`render_explain`] prints that journey from either source.
//!
//! Design constraints mirror the registry's:
//!
//! * **One relaxed atomic load when disabled.** [`enabled`] is the only
//!   cost on a hot path that chooses not to trace; no lock, no clock.
//! * **Bounded.** The buffer is a fixed-capacity ring; when full, the
//!   oldest event is dropped and counted, never reallocated.
//! * **Deterministic.** Events carry monotonic sequence numbers and
//!   simulated-time keys only — never wall-clock values — so two
//!   identically seeded runs export byte-identical JSONL. The sampling
//!   helper ([`sample_indices`]) is a seeded SplitMix64 draw for the same
//!   reason.
//! * **Greppable schema.** Field names are `&'static str` and must be
//!   string literals at the call site (the workspace lint rule
//!   `trace-event-fields-are-static` enforces this), so `grep '"margin"'`
//!   over the export finds every producer.
//!
//! The export format is JSON Lines under the `nevermind-trace/v1` schema:
//! a header object (`{"schema":"nevermind-trace/v1","events":N,...}`)
//! followed by one object per event, in sequence order:
//!
//! ```text
//! {"seq":42,"kind":"rank","line":7,"day":209,"fields":{"rank":3,"probability":0.81}}
//! ```
//!
//! The sampling *policy* lives here too: producers ask [`TracePolicy`] how
//! many non-dispatched lines to sample per ranked week (dispatched lines
//! are always traced) and use [`sample_indices`] to pick them
//! deterministically.

use crate::json::{fmt_f64, push_json_string};
use crate::registry::lock_recovering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity of the process-global buffer.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One value attached to a trace event field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, ids, 0/1 flags).
    Unsigned(u64),
    /// A signed integer.
    Signed(i64),
    /// A float, serialized via the metrics dump's round-trippable
    /// formatter (`null` for non-finite values).
    Float(f64),
    /// A short string (feature names, disposition codes).
    Text(String),
}

impl FieldValue {
    /// The value as `f64` (unsigned/signed widen; text is `None`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Unsigned(v) => Some(*v as f64),
            FieldValue::Signed(v) => Some(*v as f64),
            FieldValue::Float(v) => Some(*v),
            FieldValue::Text(_) => None,
        }
    }

    fn push_json(&self, out: &mut String) {
        match self {
            FieldValue::Unsigned(v) => out.push_str(&v.to_string()),
            FieldValue::Signed(v) => out.push_str(&v.to_string()),
            FieldValue::Float(v) => out.push_str(&fmt_f64(*v)),
            FieldValue::Text(s) => push_json_string(out, s),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Unsigned(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Unsigned(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Unsigned(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Signed(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::Float(f64::from(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Unsigned(u64::from(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}

/// One provenance event: what a pipeline stage decided and the numbers
/// behind it, keyed by line and simulated day where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number, assigned by [`TraceBuffer::emit`]
    /// (zero until emitted).
    pub seq: u64,
    /// Event kind (`"rank"`, `"score"`, `"calibrate"`, `"dispatch"`,
    /// `"visit"`, `"locate"`, ...). Static so kinds stay enumerable.
    pub kind: &'static str,
    /// The DSL line this event concerns (raw `LineId` index), if any.
    pub line: Option<u32>,
    /// Simulated day, if the event happens inside simulated time.
    pub day: Option<u32>,
    /// Ordered key→value payload. Names must be string literals at the
    /// call site (lint rule `trace-event-fields-are-static`).
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Starts an event of the given kind, with no keys or fields yet.
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        TraceEvent { seq: 0, kind, line: None, day: None, fields: Vec::new() }
    }

    /// Sets the line correlation key.
    #[must_use]
    pub fn line(mut self, line: u32) -> Self {
        self.line = Some(line);
        self
    }

    /// Sets the simulated-day key.
    #[must_use]
    pub fn day(mut self, day: u32) -> Self {
        self.day = Some(day);
        self
    }

    /// Appends one field. `name` must be a string literal (enforced by the
    /// `trace-event-fields-are-static` lint rule) so the schema stays
    /// greppable; values are anything convertible to [`FieldValue`].
    #[must_use]
    pub fn attr(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Looks up a field by name (first match).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    pub(crate) fn push_json_line(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":");
        push_json_string(out, self.kind);
        if let Some(line) = self.line {
            out.push_str(",\"line\":");
            out.push_str(&line.to_string());
        }
        if let Some(day) = self.day {
            out.push_str(",\"day\":");
            out.push_str(&day.to_string());
        }
        out.push_str(",\"fields\":{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, name);
            out.push(':');
            value.push_json(out);
        }
        out.push_str("}}\n");
    }
}

/// Read-only view of one trace event: what [`render_explain`] reads. The
/// live ring's [`TraceEvent`]s implement it, and so do events parsed back
/// from a `nevermind-trace/v1` export, so both render through one path.
pub trait EventView {
    /// Event kind (`"rank"`, `"visit"`, ...).
    fn kind(&self) -> &str;
    /// The line correlation key, if any.
    fn line_key(&self) -> Option<u64>;
    /// The simulated-day key, if any.
    fn day_key(&self) -> Option<u64>;
    /// A numeric field by name (`None` when absent or text).
    fn num(&self, name: &str) -> Option<f64>;
    /// A text field by name (`None` when absent or numeric).
    fn text(&self, name: &str) -> Option<&str>;
}

impl EventView for TraceEvent {
    fn kind(&self) -> &str {
        self.kind
    }

    fn line_key(&self) -> Option<u64> {
        self.line.map(u64::from)
    }

    fn day_key(&self) -> Option<u64> {
        self.day.map(u64::from)
    }

    fn num(&self, name: &str) -> Option<f64> {
        self.field(name)?.as_f64()
    }

    fn text(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            FieldValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Renders one line's causal chain: each ranked week's rank, stump
/// contributions and calibration step, then the dispatches, the truck
/// rolls and the trouble-locator terms. The header names `source`, the
/// place the events came from. Returns `None` when `events` hold nothing
/// for `line`. `nevermind explain` (a JSONL export) and `GET /explain`
/// (the live ring) both render through here.
pub fn render_explain<E: EventView>(events: &[E], line: u64, source: &str) -> Option<String> {
    fn num(e: &impl EventView, name: &str) -> f64 {
        e.num(name).unwrap_or(f64::NAN)
    }
    fn count(e: &impl EventView, name: &str) -> u64 {
        e.num(name).map_or(0, |v| v as u64)
    }
    fn text<'a>(e: &'a impl EventView, name: &str) -> &'a str {
        e.text(name).unwrap_or("?")
    }

    let ours: Vec<&E> = events.iter().filter(|e| e.line_key() == Some(line)).collect();
    if ours.is_empty() {
        return None;
    }
    let mut out = format!("decision provenance for line {line} — {source}\n");

    // Weekly ranking chains, in day order (rank is the chain's anchor).
    let mut rank_days: Vec<u64> =
        ours.iter().filter(|e| e.kind() == "rank").filter_map(|e| e.day_key()).collect();
    rank_days.sort_unstable();
    rank_days.dedup();
    for &day in &rank_days {
        let at_day = |kind: &str| -> Vec<&E> {
            ours.iter().copied().filter(|e| e.kind() == kind && e.day_key() == Some(day)).collect()
        };
        let Some(rank) = at_day("rank").first().copied() else { continue };
        out.push_str(&format!(
            "\nweek ending day {day}: rank {} · P(ticket) = {:.4} · {}\n",
            count(rank, "rank"),
            num(rank, "probability"),
            if count(rank, "dispatched") == 1 { "DISPATCHED" } else { "not dispatched" },
        ));
        if let Some(score) = at_day("score").first() {
            out.push_str(&format!(
                "  ensemble margin {:+.4} over {} stumps; top contributions:\n",
                num(*score, "margin"),
                count(*score, "stumps"),
            ));
        }
        let mut stumps = at_day("stump");
        stumps.sort_by_key(|e| e.num("order").map_or(u64::MAX, |v| v as u64));
        for e in stumps {
            out.push_str(&format!(
                "    #{} {:<40} value {:>10.3}  thr {:>10.3}  vote {:+.4}\n",
                count(e, "order") + 1,
                text(e, "name"),
                num(e, "value"),
                num(e, "threshold"),
                num(e, "vote"),
            ));
        }
        if let Some(cal) = at_day("calibrate").first() {
            out.push_str(&format!(
                "  calibration: sigmoid({:.4} * margin + {:.4}) = {:.4}\n",
                num(*cal, "a"),
                num(*cal, "b"),
                num(*cal, "probability"),
            ));
        }
    }
    if rank_days.is_empty() {
        out.push_str("\n(no ranking events for this line — it was never scored while traced)\n");
    }

    // The closed loop: dispatches scheduled and what the trucks found.
    let mut printed_visits = false;
    for &e in &ours {
        match e.kind() {
            "dispatch" => out.push_str(&format!(
                "\ndispatch scheduled on day {} (due day {}{})\n",
                e.day_key().unwrap_or(0),
                count(e, "due_day"),
                if count(e, "proactive") == 1 { ", proactive" } else { "" },
            )),
            "visit" => {
                printed_visits = true;
                out.push_str(&format!(
                    "truck roll on day {} ({}): disposition {} ({}) after {} tests, {:.0} minutes\n",
                    e.day_key().unwrap_or(0),
                    if count(e, "proactive") == 1 { "proactive" } else { "reactive" },
                    text(e, "disposition"),
                    if count(e, "found_fault") == 1 { "found a fault" } else { "no fault found" },
                    count(e, "tests_performed"),
                    e.num("minutes_spent").unwrap_or(0.0),
                ));
            }
            _ => {}
        }
    }
    if !printed_visits {
        out.push_str("\n(no technician visit recorded for this line in the trace window)\n");
    }

    // Trouble-locator terms, if the events carry any for this line.
    let locates: Vec<&E> = ours.iter().copied().filter(|e| e.kind() == "locate").collect();
    if !locates.is_empty() {
        out.push_str("\ntrouble locator (flat vs combined posteriors)\n");
        out.push_str(&format!(
            "  {:<20} {:>12} {:>12}  location\n",
            "disposition", "flat P", "combined P"
        ));
        for e in locates {
            out.push_str(&format!(
                "  {:<20} {:>12.4} {:>12.4}  {}\n",
                text(e, "disposition"),
                num(e, "flat_probability"),
                num(e, "combined_probability"),
                text(e, "location"),
            ));
        }
    }
    Some(out)
}

/// How producers decide which lines get full per-line provenance.
///
/// Dispatched lines are always traced; on top of that, each ranked week
/// samples `reservoir_per_week` non-dispatched lines (deterministically,
/// via [`sample_indices`] seeded by the day) so the export also explains
/// lines the policy chose *not* to dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePolicy {
    /// Non-dispatched lines to sample per ranked week.
    pub reservoir_per_week: usize,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy { reservoir_per_week: 5 }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s with monotonic sequencing.
///
/// Like the metrics registry, a buffer starts disabled: [`emit`] on a
/// disabled buffer is a single relaxed atomic load and nothing else.
///
/// [`emit`]: TraceBuffer::emit
#[derive(Debug)]
pub struct TraceBuffer {
    enabled: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    reservoir_per_week: AtomicUsize,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
}

impl TraceBuffer {
    /// Creates a disabled buffer holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            reservoir_per_week: AtomicUsize::new(TracePolicy::default().reservoir_per_week),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether the buffer is recording (one relaxed atomic load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The current sampling policy.
    pub fn policy(&self) -> TracePolicy {
        TracePolicy { reservoir_per_week: self.reservoir_per_week.load(Ordering::Relaxed) }
    }

    /// Replaces the sampling policy.
    pub fn set_policy(&self, policy: TracePolicy) {
        self.reservoir_per_week.store(policy.reservoir_per_week, Ordering::Relaxed);
    }

    /// Appends an event, assigning and returning its sequence number.
    /// No-op (returning 0) while the buffer is disabled; when the ring is
    /// full the oldest event is dropped and counted in [`Self::dropped`].
    pub fn emit(&self, mut event: TraceEvent) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        let mut ring = lock_recovering(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
        seq
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        lock_recovering(&self.ring).len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the buffer and resets sequencing and the dropped count.
    /// The enabled flag and policy are left as-is.
    pub fn reset(&self) {
        lock_recovering(&self.ring).clear();
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock_recovering(&self.ring).iter().cloned().collect()
    }

    /// Exports the buffer as `nevermind-trace/v1` JSON Lines: a header
    /// object followed by one object per event, oldest first.
    pub fn to_jsonl(&self) -> String {
        self.tail_jsonl(usize::MAX)
    }

    /// Exports at most the newest `n` events as `nevermind-trace/v1`
    /// JSON Lines (same shape as [`Self::to_jsonl`]; the header's
    /// `events` count reflects the tail). Events older than the tail
    /// count as dropped, so `dropped + events` stays the total emitted.
    /// This is the `GET /trace/tail?n=N` endpoint's backing export.
    pub fn tail_jsonl(&self, n: usize) -> String {
        // Copy the tail out under the lock, serialize after the guard
        // drops: JSON rendering is O(events) and would otherwise stall
        // every recording thread for the whole export.
        let (tail, skip) = {
            let ring = lock_recovering(&self.ring);
            let take = ring.len().min(n);
            let skip = ring.len() - take;
            (ring.iter().skip(skip).cloned().collect::<Vec<TraceEvent>>(), skip)
        };
        let mut out = String::with_capacity(96 + tail.len() * 96);
        out.push_str("{\"schema\":\"nevermind-trace/v1\",\"events\":");
        out.push_str(&tail.len().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&(self.dropped() + skip as u64).to_string());
        out.push_str(",\"reservoir_per_week\":");
        out.push_str(&self.policy().reservoir_per_week.to_string());
        out.push_str("}\n");
        for event in &tail {
            event.push_json_line(&mut out);
        }
        out
    }
}

static GLOBAL_TRACE: OnceLock<TraceBuffer> = OnceLock::new();

/// The process-global trace buffer (created disabled on first use).
pub fn global() -> &'static TraceBuffer {
    GLOBAL_TRACE.get_or_init(|| TraceBuffer::new(DEFAULT_CAPACITY))
}

/// Whether the global buffer is recording (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Turns global trace recording on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Draws `k` distinct indices from `0..n`, sorted ascending, as a pure
/// function of `seed` — Floyd's algorithm over a SplitMix64 stream, so the
/// reservoir sample a producer takes is identical on every replay of the
/// same seeded run.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let draw = splitmix64(&mut state) % (j as u64 + 1);
        let candidate = draw as usize;
        match chosen.binary_search(&candidate) {
            // Already taken: Floyd's substitution keeps uniformity by
            // taking `j` itself, which is larger than everything chosen.
            Ok(_) => chosen.push(j),
            Err(pos) => chosen.insert(pos, candidate),
        }
    }
    chosen
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let buf = TraceBuffer::new(8);
        assert_eq!(buf.emit(TraceEvent::new("rank")), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn ring_wraps_with_monotonic_sequence() {
        let buf = TraceBuffer::new(3);
        buf.set_enabled(true);
        for i in 0..5u32 {
            buf.emit(TraceEvent::new("rank").line(i));
        }
        let events = buf.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order kept");
        assert_eq!(events[0].line, Some(2));
    }

    #[test]
    fn reset_restarts_sequencing() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        buf.emit(TraceEvent::new("a"));
        buf.emit(TraceEvent::new("b"));
        buf.reset();
        assert!(buf.is_empty());
        let seq = buf.emit(TraceEvent::new("c"));
        assert_eq!(seq, 0);
    }

    #[test]
    fn jsonl_shape_and_field_order() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        buf.emit(
            TraceEvent::new("score")
                .line(7)
                .day(209)
                .attr("margin", -1.5)
                .attr("name", "wretrx_z")
                .attr("rank", 3u64),
        );
        let jsonl = buf.to_jsonl();
        let mut lines = jsonl.lines();
        let header = lines.next().expect("header line");
        assert!(header.contains("\"schema\":\"nevermind-trace/v1\""), "{header}");
        assert!(header.contains("\"events\":1"), "{header}");
        let event = lines.next().expect("event line");
        assert_eq!(
            event,
            "{\"seq\":0,\"kind\":\"score\",\"line\":7,\"day\":209,\
             \"fields\":{\"margin\":-1.5,\"name\":\"wretrx_z\",\"rank\":3}}"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn tail_export_keeps_newest_events_and_counts_the_rest_dropped() {
        let buf = TraceBuffer::new(8);
        buf.set_enabled(true);
        for i in 0..5u32 {
            buf.emit(TraceEvent::new("rank").line(i));
        }
        let tail = buf.tail_jsonl(2);
        let mut lines = tail.lines();
        let header = lines.next().expect("header");
        assert!(header.contains("\"events\":2"), "{header}");
        assert!(header.contains("\"dropped\":3"), "{header}");
        let bodies: Vec<&str> = lines.collect();
        assert_eq!(bodies.len(), 2);
        assert!(bodies[0].contains("\"seq\":3"));
        assert!(bodies[1].contains("\"seq\":4"));
        // A tail wider than the ring is the full export.
        assert_eq!(buf.tail_jsonl(100), buf.to_jsonl());
    }

    #[test]
    fn off_lock_export_is_byte_identical_to_reference_rendering() {
        // Regression: tail_jsonl used to serialize while holding the ring
        // lock; it now copies the tail out first. The export must stay
        // byte-for-byte what serializing under the lock produced,
        // including ring eviction and the tail-widened dropped count.
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        for i in 0..7u32 {
            buf.emit(
                TraceEvent::new("score").line(i).day(100 + i).attr("margin", f64::from(i) / 4.0),
            );
        }
        // Capacity 4, 7 emits: seqs 3..=7 minus evictions → ring holds 3..7.
        let full = buf.to_jsonl();
        let mut reference = String::from(
            "{\"schema\":\"nevermind-trace/v1\",\"events\":4,\"dropped\":3,\
             \"reservoir_per_week\":5}\n",
        );
        for event in buf.snapshot() {
            event.push_json_line(&mut reference);
        }
        assert_eq!(full, reference);

        // The 2-tail drops two more events into the header's count.
        let tail = buf.tail_jsonl(2);
        let mut tail_reference = String::from(
            "{\"schema\":\"nevermind-trace/v1\",\"events\":2,\"dropped\":5,\
             \"reservoir_per_week\":5}\n",
        );
        for event in buf.snapshot().into_iter().skip(2) {
            event.push_json_line(&mut tail_reference);
        }
        assert_eq!(tail, tail_reference);
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let buf = TraceBuffer::new(2);
        buf.set_enabled(true);
        buf.emit(TraceEvent::new("x").attr("v", f64::NAN));
        assert!(buf.to_jsonl().contains("\"v\":null"));
    }

    #[test]
    fn sampling_is_deterministic_sorted_and_in_range() {
        let a = sample_indices(42, 1000, 10);
        let b = sample_indices(42, 1000, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{a:?}");
        assert!(a.iter().all(|&i| i < 1000));
        let c = sample_indices(43, 1000, 10);
        assert_ne!(a, c, "different seeds draw different samples");
        assert_eq!(sample_indices(1, 3, 8), vec![0, 1, 2], "k >= n takes all");
        assert!(sample_indices(1, 0, 4).is_empty());
    }

    #[test]
    fn field_lookup_and_f64_view() {
        let e = TraceEvent::new("rank").attr("rank", 4u64).attr("who", "me");
        assert_eq!(e.field("rank").and_then(FieldValue::as_f64), Some(4.0));
        assert_eq!(e.field("who").and_then(FieldValue::as_f64), None);
        assert!(e.field("absent").is_none());
    }
}
