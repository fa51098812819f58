//! The one fan-out behind every parallel stage.
//!
//! Simulator days, boosting rounds, feature selection, the trouble
//! locator's models, weekly ingest and encode, gather scoring and top-`B`
//! selection all spread their work through this module, so they share one
//! set of rules:
//!
//! * **Part count**: `0` asks for every available core, `n` asks for `n`;
//!   either is clamped to `[1, items]`.
//! * **Partition** ([`bounds`]): part `s` of `k` over `n` items covers
//!   `s·n/k .. (s+1)·n/k` — contiguous, in item order, sizes differing by
//!   at most one.
//! * **Ordering** ([`run`], [`map`]): every part but the last runs on its
//!   own scoped thread, the last on the caller's, and results come back in
//!   part order. A reduction over them is therefore deterministic by
//!   construction, whatever the part count.
//! * **Panics**: once every part has finished, a panicking part's payload
//!   is re-raised on the caller — the lowest-numbered one if several
//!   panicked.
//! * **Span attribution**: while recording is enabled, each worker's span
//!   stack starts from the caller's open spans (and, while the
//!   [`crate::profile`]r samples, so do its mirrored frames), so spans a
//!   worker opens record under the caller's path. With recording off this
//!   costs one relaxed atomic load per call.
//!
//! Threads are spawned per call; there is no persistent pool.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// How many parts a call over `items` items gets: `threads == 0` means one
/// per available core, any other value is taken as given, and the result
/// is clamped to `[1, items]` (one part even when there are no items).
pub(crate) fn parts(items: usize, threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let want = match threads {
        0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
        n => n,
    };
    want.clamp(1, items.max(1))
}

/// The contiguous, near-equal partition of `0..items` into one range per
/// part, in item order — `threads` parts under the module's part-count
/// rule.
pub fn bounds(items: usize, threads: usize) -> Vec<Range<usize>> {
    let k = parts(items, threads);
    (0..k).map(|s| s * items / k..(s + 1) * items / k).collect()
}

/// Carves `slice` into one disjoint sub-slice per range of `ranges` (a
/// [`bounds`] partition), at `stride` elements per item: part `s` gets
/// `slice[r.start·stride .. r.end·stride]`.
///
/// # Panics
/// Panics if the ranges cover more than `slice.len() / stride` items.
pub fn split_mut<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    ranges
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(r.len() * stride);
            slice = tail;
            head
        })
        .collect()
}

/// Runs `f` on every task — one task per part, each on its own scoped
/// thread except the last, which runs on the caller's — and returns the
/// results in task order. See the module docs for the panic and span
/// policies.
pub fn run<T: Send, R: Send>(
    tasks: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut tasks: Vec<T> = tasks.into_iter().collect();
    let Some(last) = tasks.pop() else { return Vec::new() };
    if tasks.is_empty() {
        return vec![f(last)];
    }
    let open = crate::span::open_spans();
    let (f, open) = (&f, open.as_deref());
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = tasks
            .into_iter()
            .map(|task| scope.spawn(move || crate::span::seeded(open, || f(task))))
            .collect();
        let own = catch_unwind(AssertUnwindSafe(|| f(last)));
        workers.into_iter().map(|w| w.join()).chain(std::iter::once(own)).collect()
    });
    results.into_iter().map(|r| r.unwrap_or_else(|payload| resume_unwind(payload))).collect()
}

/// [`run`] over the [`bounds`] partition of `0..items`: `f` receives each
/// part's item range, and the results come back in range order.
pub fn map<R: Send>(items: usize, threads: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    run(bounds(items, threads), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as GLOBAL_LOCK;

    #[test]
    fn shard_bounds_cover_and_clamp() {
        assert_eq!(bounds(10, 1), vec![0..10]);
        assert_eq!(bounds(10, 3), vec![0..3, 3..6, 6..10]);
        // More parts than items: clamp to one item per part.
        assert_eq!(bounds(2, 7), vec![0..1, 1..2]);
        assert_eq!(bounds(0, 4), vec![0..0]);
        for n in [1usize, 5, 42, 100] {
            for k in [1usize, 2, 7, 16] {
                let b = bounds(n, k);
                assert_eq!(b[0].start, 0);
                assert_eq!(b[b.len() - 1].end, n);
                for w in b.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                    assert!(w[0].start < w[0].end, "non-empty");
                }
            }
        }
    }

    #[test]
    fn partition_is_exact_contiguous_and_near_equal() {
        for n in 0..60usize {
            for threads in [0usize, 1, 2, 3, 7, 16, 64, 100] {
                let b = bounds(n, threads);
                assert_eq!(b.len(), parts(n, threads), "n = {n}, threads = {threads}");
                let covered: Vec<usize> = b.iter().cloned().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n = {n}, threads = {threads}");
                let sizes: Vec<usize> = b.iter().map(ExactSizeIterator::len).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1), "sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn part_count_rule() {
        let cores = parts(usize::MAX, 0);
        assert!(cores >= 1);
        assert_eq!(parts(1_000, 0), cores.min(1_000));
        assert_eq!(parts(1_000, 3), 3);
        assert_eq!(parts(2, 7), 2);
        assert_eq!(parts(0, 5), 1);
        assert_eq!(parts(0, 0), 1);
    }

    #[test]
    fn results_come_back_in_part_order() {
        for n in [0usize, 1, 5, 97] {
            for threads in [0usize, 1, 2, 7, n + 3] {
                let ranges = map(n, threads, |r| r);
                assert_eq!(ranges, bounds(n, threads), "n = {n}, threads = {threads}");
                let squares: Vec<usize> =
                    map(n, threads, |r| r.map(|i| i * i).collect::<Vec<_>>()).concat();
                assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
            }
        }
        assert!(run(Vec::<u8>::new(), |t| t).is_empty());
    }

    #[test]
    fn split_mut_hands_each_part_its_own_rows() {
        let mut values: Vec<usize> = vec![0; 3 * 11];
        let ranges = bounds(11, 4);
        let slices = split_mut(&mut values, &ranges, 3);
        run(ranges.iter().cloned().zip(slices), |(r, out)| {
            for (k, v) in out.iter_mut().enumerate() {
                *v = r.start * 3 + k;
            }
        });
        assert_eq!(values, (0..33).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "part 1 failed")]
    fn worker_panics_reraise_on_the_caller() {
        let _ = map(8, 4, |r| {
            assert!(r.start != 2, "part 1 failed");
            r.len()
        });
    }

    #[test]
    fn lowest_panicking_part_wins() {
        let caught = std::panic::catch_unwind(|| {
            map(8, 4, |r| {
                assert!(r.start < 4, "part starting at {}", r.start);
            })
        })
        .expect_err("parts 2 and 3 panic");
        let msg = caught.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert_eq!(msg, "part starting at 4");
    }

    #[test]
    fn worker_spans_nest_under_the_caller() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::global().reset();
        crate::set_enabled(true);
        {
            let _outer = crate::span!("par_outer");
            map(4, 4, |_| {
                let _inner = crate::span!("par_inner");
            });
        }
        crate::set_enabled(false);
        let snap = crate::global().snapshot();
        assert_eq!(snap.spans["par_outer/par_inner"].count, 4);
        assert!(!snap.spans.contains_key("par_inner"), "no orphan root: {:?}", snap.spans.keys());
    }

    #[test]
    fn worker_profile_frames_start_from_the_caller() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prof = crate::profile::global();
        prof.reset();
        crate::set_enabled(true);
        prof.start(std::time::Duration::from_micros(100)).expect("sampler starts");
        {
            let _outer = crate::span!("par_prof_outer");
            // Part 0 runs on a spawned worker; hold its span open across
            // enough sweeps for the sampler to see the worker's stack.
            map(2, 2, |r| {
                if r.start == 0 {
                    let _inner = crate::span!("par_prof_inner");
                    let until = prof.sweeps() + 20;
                    while prof.sweeps() < until {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            });
        }
        prof.stop();
        crate::set_enabled(false);
        let collapsed = prof.collapsed();
        prof.reset();
        assert!(
            collapsed.lines().any(|l| l.starts_with("par_prof_outer;par_prof_inner ")),
            "worker stack not rooted at the caller: {collapsed:?}"
        );
        assert!(!collapsed.lines().any(|l| l.starts_with("par_prof_inner ")), "{collapsed:?}");
    }
}
