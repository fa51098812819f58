//! RAII wall-clock spans with per-thread nesting.
//!
//! Entering a span pushes its name onto a thread-local stack; dropping the
//! guard records the elapsed nanoseconds under the `/`-joined path of the
//! stack at that moment ("fit/select_base") and pops. Nesting is lexical
//! per thread, and [`crate::par`] carries it across threads: a worker's
//! stack starts from its caller's open spans, so spans opened inside a
//! fan-out record under the caller's path. A path's total sums every
//! thread's time under it, so a parent's total can be less than the sum of
//! its children's when they ran in parallel. Threads started any other way
//! (the HTTP server, the profiler's sampler) start their own root.

use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its duration into the global registry on drop.
///
/// Created by [`crate::span!`]. When recording was disabled at entry the
/// guard is inert: no clock read, no stack push, nothing recorded.
///
/// While the [`crate::profile`] sampler is running, entry additionally
/// mirrors the name onto a per-thread stack the sampler reads; when it is
/// not (the common case), that costs one relaxed atomic load. The guard
/// remembers whether it mirrored, so pushes and pops stay balanced even
/// when the profiler starts or stops mid-span.
#[must_use = "a span measures the scope that holds it; dropping it immediately records ~0ns"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
    profiled: bool,
}

impl SpanGuard {
    /// Opens a span named `name` (use [`crate::span!`]).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { start: None, profiled: false };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        let profiled = crate::profile::enabled();
        if profiled {
            crate::profile::push_frame(name);
        }
        SpanGuard { start: Some(Instant::now()), profiled }
    }

    /// Wall-clock time since entry (zero for an inert guard) — lets callers
    /// print progress lines from the same measurement the registry records.
    pub fn elapsed(&self) -> Duration {
        self.start.map(|s| s.elapsed()).unwrap_or_default()
    }
}

/// The calling thread's open span names, outermost first — `None` while
/// recording is disabled (one relaxed atomic load, no stack read).
pub(crate) fn open_spans() -> Option<Vec<&'static str>> {
    crate::enabled().then(|| SPAN_STACK.with(|s| s.borrow().clone()))
}

/// Runs `f` on this (fresh worker) thread with its span stack seeded from
/// a caller's [`open_spans`] — mirrored into the profiler's frames too
/// while it samples — and unwinds the seed afterwards.
pub(crate) fn seeded<R>(open: Option<&[&'static str]>, f: impl FnOnce() -> R) -> R {
    let Some(open) = open else { return f() };
    SPAN_STACK.with(|s| s.borrow_mut().extend_from_slice(open));
    let profiled = crate::profile::enabled();
    if profiled {
        open.iter().for_each(|&name| crate::profile::push_frame(name));
    }
    let out = f();
    if profiled {
        open.iter().for_each(|_| crate::profile::pop_frame());
    }
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len().saturating_sub(open.len());
        stack.truncate(depth);
    });
    out
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.profiled {
            crate::profile::pop_frame();
        }
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        crate::global().record_span(&path, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as GLOBAL_LOCK;

    #[test]
    fn nested_spans_record_joined_paths() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::global().reset();
        crate::set_enabled(true);
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner");
            }
            {
                let _c = crate::span!("inner");
            }
        }
        {
            let _d = crate::span!("outer");
        }
        crate::set_enabled(false);
        let snap = crate::global().snapshot();
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert_eq!(snap.spans["outer"].count, 2);
        assert!(
            snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns,
            "a parent span covers its children"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        crate::global().reset();
        let g = crate::span!("ghost");
        assert_eq!(g.elapsed(), Duration::ZERO);
        drop(g);
        assert!(crate::global().snapshot().spans.is_empty());
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty(), "nothing pushed while disabled"));
    }

    #[test]
    fn elapsed_is_monotone_while_open() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let g = crate::span!("timed");
        let a = g.elapsed();
        let b = g.elapsed();
        assert!(b >= a);
        drop(g);
        crate::set_enabled(false);
    }
}
