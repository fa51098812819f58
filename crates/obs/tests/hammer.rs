//! Concurrent export hammer: N reader threads snapshotting and
//! serializing a registry while writer threads pound every metric kind —
//! the live `/metrics` endpoint's access pattern. The point-in-time
//! snapshot must neither deadlock, panic, nor observe torn name maps,
//! and writers must lose nothing to concurrent exports.

use nevermind_obs::MetricsRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WRITERS: usize = 4;
const READERS: usize = 4;
const ROUNDS: u64 = 2_000;

#[test]
fn concurrent_exports_never_block_or_corrupt_writers() {
    let reg = Arc::new(MetricsRegistry::new());
    reg.set_enabled(true);
    let writing = Arc::new(AtomicBool::new(true));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Rotate names so exports race both the map inserts
                    // (new names) and the value updates (hot names).
                    let name = format!("hammer/counter_{w}_{}", i % 7);
                    reg.counter(&name).inc();
                    reg.counter("hammer/total").inc();
                    reg.gauge("hammer/gauge").set(i as f64);
                    reg.distribution("hammer/dist", 0.0, ROUNDS as f64, 16).record(i as f64);
                    reg.series(&format!("hammer/series_{w}")).push(i as f64, i as f64);
                    reg.record_span("hammer/span", i);
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let writing = Arc::clone(&writing);
            thread::spawn(move || {
                let mut exports = 0u64;
                while writing.load(Ordering::Relaxed) {
                    let json = reg.to_json();
                    assert!(json.starts_with('{') && json.ends_with("}\n"));
                    assert!(json.contains("nevermind-metrics/v1"));
                    let snap = reg.snapshot();
                    // Bins and span fields are loaded independently, so
                    // they may skew mid-write — but never past what the
                    // writers could possibly have recorded.
                    let cap = (WRITERS as u64) * ROUNDS;
                    if let Some(d) = snap.distributions.get("hammer/dist") {
                        assert!(d.counts.iter().sum::<u64>() <= cap);
                    }
                    if let Some(s) = snap.spans.get("hammer/span") {
                        assert!(s.count <= cap && s.max_ns < ROUNDS);
                    }
                    exports += 1;
                    thread::sleep(Duration::from_micros(100));
                }
                exports
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread");
    }
    writing.store(false, Ordering::Relaxed);
    let mut total_exports = 0u64;
    for r in readers {
        total_exports += r.join().expect("reader thread");
    }
    assert!(total_exports > 0, "readers exported at least once");

    // Nothing written was lost to a concurrent export.
    let snap = reg.snapshot();
    assert_eq!(snap.counters["hammer/total"], (WRITERS as u64) * ROUNDS);
    let d = &snap.distributions["hammer/dist"];
    assert_eq!(d.counts.iter().sum::<u64>(), (WRITERS as u64) * ROUNDS);
    for w in 0..WRITERS {
        assert_eq!(snap.series[&format!("hammer/series_{w}")].len(), ROUNDS as usize);
    }
    assert_eq!(snap.spans["hammer/span"].count, (WRITERS as u64) * ROUNDS);
}
