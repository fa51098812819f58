//! Continuous span-stack sampling profiler.
//!
//! Where the registry's span totals answer "how long did each phase
//! take in total", the profiler answers "where is the time *right now*":
//! a sampler thread periodically snapshots every worker thread's open
//! span stack (the same stacks the RAII [`crate::span!`] guards maintain)
//! and aggregates how often each distinct stack was observed. The result
//! exports as collapsed-stack lines — `outer;inner 42` — the format
//! `flamegraph.pl` / `inferno` consume directly, and counts are *self*
//! samples: a sample is attributed to the innermost open span.
//!
//! Design constraints mirror the registry's:
//!
//! * **One relaxed atomic load when disabled.** A span entered while the
//!   profiler is off pays exactly one relaxed [`AtomicBool`] load beyond
//!   its normal cost; no lock, no allocation, no registration.
//! * **Cheap when enabled.** Entering a span pushes one `&'static str`
//!   onto a per-thread mutex-guarded stack shared with the sampler; the
//!   mutex is uncontended except during the sampler's microsecond sweep.
//! * **Allocation-free sampling.** The sweep loop (`mod sampler`)
//!   copies each stack into a reusable scratch buffer and only allocates
//!   when it sees a stack shape for the first time. It never touches the
//!   metrics registry — the `no-blocking-in-sampler` lint rule pins both
//!   properties.
//! * **No effect on outcomes.** The sampler only reads span names; it
//!   feeds nothing back into the pipeline, so runs are byte-identical
//!   with the profiler on or off.
//!
//! Profiling rides the span guards, so it observes spans only while the
//! metrics registry itself is recording ([`crate::set_enabled`]).

use crate::registry::lock_recovering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Whether spans should mirror themselves into the shared per-thread
/// stacks. Outside the [`Profiler`] so the disabled check is a single
/// relaxed static load with no `OnceLock` indirection.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Whether the profiler is currently sampling (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// One thread's open-span stack, shared between the owning thread (which
/// pushes/pops from the `span!` guards) and the sampler (which copies it).
#[derive(Debug, Default)]
struct SharedStack {
    frames: Mutex<Vec<&'static str>>,
}

thread_local! {
    /// This thread's shared stack, registered with the global profiler on
    /// the first profiled span and kept for the thread's lifetime.
    static THREAD_STACK: std::cell::OnceCell<Arc<SharedStack>> =
        const { std::cell::OnceCell::new() };
}

/// Mirrors a span entry onto the calling thread's shared stack.
/// Called by [`crate::SpanGuard::enter`] only while [`enabled`].
pub(crate) fn push_frame(name: &'static str) {
    THREAD_STACK.with(|cell| {
        let stack = cell.get_or_init(|| {
            let stack = Arc::new(SharedStack::default());
            global().register(Arc::clone(&stack));
            stack
        });
        lock_recovering(&stack.frames).push(name);
    });
}

/// Undoes one [`push_frame`]. Called from the guard's drop only when the
/// matching entry pushed, so stacks stay balanced across enable/disable
/// transitions mid-span.
pub(crate) fn pop_frame() {
    THREAD_STACK.with(|cell| {
        if let Some(stack) = cell.get() {
            lock_recovering(&stack.frames).pop();
        }
    });
}

/// A running sampler thread and its stop signal.
struct Worker {
    stop: Arc<AtomicBool>,
    join: thread::JoinHandle<()>,
}

/// The span-stack sampling profiler. One process-global instance exists
/// (via [`global`]); it aggregates across starts until [`Profiler::reset`].
pub struct Profiler {
    /// Every registered per-thread stack (dead threads are pruned lazily).
    threads: Mutex<Vec<Arc<SharedStack>>>,
    /// Observed stack → number of samples attributing self time to it.
    samples: Mutex<HashMap<Vec<&'static str>, u64>>,
    /// Completed sweep count (all threads observed once per sweep).
    sweeps: AtomicU64,
    /// The sampler thread, while one is running.
    worker: Mutex<Option<Worker>>,
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            threads: Mutex::new(Vec::new()),
            samples: Mutex::new(HashMap::new()),
            sweeps: AtomicU64::new(0),
            worker: Mutex::new(None),
        }
    }

    /// Adds a thread's stack; prunes stacks whose owning thread exited
    /// (the thread-local held the only other reference).
    fn register(&self, stack: Arc<SharedStack>) {
        let mut threads = lock_recovering(&self.threads);
        threads.retain(|s| Arc::strong_count(s) > 1);
        threads.push(stack);
    }

    /// The cadence the CLI runs the sampler at. 5ms keeps thousands of
    /// samples over any minutes-long trial; a shorter interval preempts
    /// the observed workers more often (on a single-core host, every sweep
    /// wakeup preempts the worker it is observing).
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(5);

    /// Starts the sampler thread with the given sampling interval
    /// (clamped to at least 50µs) and turns on span mirroring. A no-op
    /// if a sampler is already running. Accumulated samples are kept.
    pub fn start(&self, interval: Duration) -> std::io::Result<()> {
        let mut worker = lock_recovering(&self.worker);
        if worker.is_some() {
            return Ok(());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let interval = interval.max(Duration::from_micros(50));
        let join = thread::Builder::new()
            .name("obs-profiler".to_string())
            .spawn(move || sampler::run(&thread_stop, interval))?;
        *worker = Some(Worker { stop, join });
        PROFILING.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Stops span mirroring and joins the sampler thread. Accumulated
    /// samples stay readable via [`Profiler::collapsed`].
    pub fn stop(&self) {
        PROFILING.store(false, Ordering::Relaxed);
        let worker = lock_recovering(&self.worker).take();
        if let Some(w) = worker {
            w.stop.store(true, Ordering::Relaxed);
            let _ = w.join.join();
        }
    }

    /// Drops all accumulated samples and the sweep count (the running
    /// state is unchanged).
    pub fn reset(&self) {
        lock_recovering(&self.samples).clear();
        self.sweeps.store(0, Ordering::Relaxed);
    }

    /// Completed sampling sweeps so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// The aggregate as collapsed-stack lines — one `frame;frame;... N`
    /// line per distinct observed stack, sorted, newline-terminated —
    /// ready for `flamegraph.pl` or `inferno-flamegraph`. Empty string
    /// when nothing was sampled.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<(String, u64)> = {
            let samples = lock_recovering(&self.samples);
            samples.iter().map(|(stack, n)| (stack.join(";"), *n)).collect()
        };
        lines.sort();
        let mut out = String::with_capacity(lines.len() * 48);
        for (stack, n) in lines {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

/// The sampler sweep loop, isolated in its own module so the
/// `no-blocking-in-sampler` lint rule can hold this hot path — and any
/// future sampler — to its contract: no metrics-registry access, no
/// per-sample string formatting or conversion.
mod sampler {
    use super::{lock_recovering, AtomicBool, Duration, Ordering};

    /// Sweeps all registered thread stacks every `interval` until `stop`:
    /// each non-empty stack is copied into a reusable scratch buffer and
    /// counted against its aggregate bucket. Allocation happens only the
    /// first time a distinct stack shape is observed.
    pub(super) fn run(stop: &AtomicBool, interval: Duration) {
        let prof = super::global();
        let mut scratch: Vec<&'static str> = Vec::with_capacity(64);
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(interval);
            let threads = lock_recovering(&prof.threads);
            let mut samples = lock_recovering(&prof.samples);
            for stack in threads.iter() {
                scratch.clear();
                scratch.extend_from_slice(&lock_recovering(&stack.frames));
                if scratch.is_empty() {
                    continue;
                }
                match samples.get_mut(scratch.as_slice()) {
                    Some(n) => *n += 1,
                    None => {
                        let _ = samples.insert(scratch.clone(), 1);
                    }
                }
            }
            drop(samples);
            drop(threads);
            prof.sweeps.fetch_add(1, Ordering::Relaxed);
        }
    }
}

static GLOBAL_PROFILER: OnceLock<Profiler> = OnceLock::new();

/// The process-global profiler (created stopped on first use).
pub fn global() -> &'static Profiler {
    GLOBAL_PROFILER.get_or_init(Profiler::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as GLOBAL_LOCK;

    #[test]
    fn disabled_profiler_observes_nothing() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        crate::set_enabled(true);
        {
            let _s = crate::span!("unprofiled");
        }
        crate::set_enabled(false);
        assert!(!enabled());
        assert_eq!(global().collapsed(), "");
    }

    #[test]
    fn sampler_sees_open_spans_as_collapsed_stacks() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        crate::set_enabled(true);
        global().start(Duration::from_micros(100)).expect("sampler starts");
        {
            let _outer = crate::span!("prof_outer");
            let _inner = crate::span!("prof_inner");
            let until = global().sweeps() + 20;
            while global().sweeps() < until {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        global().stop();
        crate::set_enabled(false);
        let collapsed = global().collapsed();
        let line = collapsed
            .lines()
            .find(|l| l.starts_with("prof_outer;prof_inner "))
            .unwrap_or_else(|| panic!("missing nested stack in {collapsed:?}"));
        let count: u64 = line.rsplit(' ').next().and_then(|n| n.parse().ok()).expect("count");
        assert!(count > 0);
        global().reset();
        assert_eq!(global().collapsed(), "");
    }

    #[test]
    fn stacks_stay_balanced_across_mid_span_toggles() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        crate::set_enabled(true);
        // Span opened before the profiler starts must not pop a frame it
        // never pushed; span opened while running must pop its own.
        let before = crate::span!("opened_before");
        global().start(Duration::from_millis(50)).expect("sampler starts");
        let during = crate::span!("opened_during");
        global().stop();
        drop(during);
        drop(before);
        THREAD_STACK.with(|cell| {
            if let Some(stack) = cell.get() {
                assert!(lock_recovering(&stack.frames).is_empty(), "unbalanced frames");
            }
        });
        crate::set_enabled(false);
        global().reset();
    }
}
