//! # nevermind-obs
//!
//! Zero-dependency observability for the NEVERMIND reproduction: a
//! process-global [`MetricsRegistry`] holding counters, gauges, `(x, y)`
//! series and fixed-bin [`Distribution`]s, plus a [`span!`] RAII timer that
//! records nested wall-clock durations.
//!
//! Design constraints, in order:
//!
//! * **Negligible overhead when disabled.** Every recording macro guards on
//!   one relaxed atomic load; a disabled [`span!`] never reads the clock.
//! * **Cheap when enabled.** Metric values are plain atomics; name lookup
//!   goes through a mutex-sharded map (16 shards keyed by name hash), and
//!   hot paths record at call granularity, not per row.
//! * **No dependencies.** JSON emission is hand-rolled ([`json`]); the
//!   schema is documented there and pinned by round-trip tests against the
//!   workspace's real JSON parser.
//!
//! ```
//! nevermind_obs::set_enabled(true);
//! {
//!     let _outer = nevermind_obs::span!("fit");
//!     let _inner = nevermind_obs::span!("encode"); // records as "fit/encode"
//!     nevermind_obs::counter_add!("rows_encoded", 128);
//! }
//! let json = nevermind_obs::global().to_json();
//! assert!(json.contains("fit/encode"));
//! ```
//!
//! Span paths follow the work across threads: a [`par`] worker starts from
//! its caller's open spans, so a span it opens records under the caller's
//! path. Totals add up across workers — a parent's total can therefore be
//! less than the sum of its children's when they ran in parallel. Guards
//! are expected to drop in LIFO order within a thread (the natural result
//! of binding them to scopes).
//!
//! Besides time, [`mem`] reads the process's peak resident set (Linux
//! `VmHWM`) for gauges set at phase boundaries.
//!
//! Aggregates answer "how much"; the sibling [`trace`] module answers
//! "*why this line*" — a bounded ring of typed decision-provenance events
//! with its own independent enable flag and a JSONL export
//! (`nevermind-trace/v1`).
//!
//! Both surfaces — plus a continuous span-stack [`profile`]r — are also
//! servable *live* from inside a running process: [`http::ObsServer`] is
//! a zero-dependency HTTP endpoint answering `/metrics` (JSON or
//! Prometheus text), `/health`, `/history`, `/alerts`, `/trace/tail`,
//! `/explain`, and `/profile` from point-in-time snapshots, without
//! perturbing the run.
//!
//! Snapshots forget the past the moment they're read; the [`history`]
//! module retains it — a downsampling ring store ticked on simulated
//! days — and [`rules`] layers recording rules, `for`-duration alert
//! rules, and SLO error-budget burn rates on top, all deterministic
//! (never wall-clocked) so history exports and alert transitions are
//! byte-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod history;
pub mod http;
pub mod json;
pub mod mem;
pub mod par;
pub mod profile;
pub mod registry;
pub mod rules;
pub mod span;
pub mod trace;

pub use distribution::{Distribution, DistributionSnapshot};
pub use http::ObsServer;
pub use registry::{Counter, Gauge, MetricsRegistry, Series, Snapshot, SpanSnapshot};
pub use span::SpanGuard;

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// Serializes the unit tests that toggle the process-global recording and
/// profiling flags.
#[cfg(test)]
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The process-global registry (created disabled on first use).
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Turns global recording on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// A wall-clock timer that is inert while recording is disabled.
///
/// Model code must not read the clock (timing jitter must never be able to
/// leak into a ranking), so instead of `std::time::Instant::now()` it
/// starts a `Stopwatch`: when recording is off no clock is read and
/// [`Stopwatch::elapsed_ms`] returns `None`, which keeps the disabled path
/// free of syscalls and makes "this duration exists only as telemetry"
/// visible in the type.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<std::time::Instant>);

impl Stopwatch {
    /// Starts the timer — reads the clock only while recording is enabled.
    #[must_use]
    pub fn start() -> Self {
        Self(enabled().then(std::time::Instant::now))
    }

    /// Milliseconds since [`Stopwatch::start`], or `None` when recording
    /// was disabled at start time.
    #[must_use]
    pub fn elapsed_ms(&self) -> Option<f64> {
        self.0.map(|t| t.elapsed().as_secs_f64() * 1e3)
    }
}

/// Opens a named RAII span; its wall-clock duration is recorded on drop
/// under the `/`-joined path of the thread's open spans.
///
/// Returns a [`SpanGuard`]. When recording is disabled this is a single
/// atomic load and no clock read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Adds to a named global counter (no-op while disabled).
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::global().counter($name).add($n as u64);
        }
    };
}
