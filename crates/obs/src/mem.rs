//! Process memory: the peak resident set size, read where the platform
//! keeps it.
//!
//! The reader parses the `VmHWM` line of Linux's `/proc/self/status` (the
//! high-water mark of the process's resident set, in kB). It reads a file,
//! so it belongs at phase boundaries, not on a hot path. Like a span
//! timing, a peak differs from run to run: name the gauge
//! [`gauge_peak_rss`] sets with an `_mb` suffix, which the
//! [`crate::history`] ring does not capture.

/// The process's peak resident set size in MB (`VmHWM`), or `None` off
/// Linux or when `/proc/self/status` cannot be read or parsed.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Sets the named gauge to [`peak_rss_mb`]. Does nothing while the global
/// registry is off (no file is read) or where the peak is unknown.
pub fn gauge_peak_rss(name: &str) {
    if !crate::enabled() {
        return;
    }
    if let Some(mb) = peak_rss_mb() {
        crate::global().gauge(name).set(mb);
    }
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MB.
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_in_mb() {
        let status = "Name:\ttest\nVmPeak:\t  409600 kB\nVmHWM:\t  102400 kB\nVmRSS:\t 51200 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(100.0));
        assert_eq!(parse_vm_hwm("Name:\ttest\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t garbled kB\n"), None);
    }

    #[test]
    fn reads_this_process_on_linux() {
        let peak = peak_rss_mb();
        if cfg!(target_os = "linux") {
            assert!(peak.is_some_and(|mb| mb > 0.0), "{peak:?}");
        } else {
            assert_eq!(peak, None);
        }
    }

    #[test]
    fn the_gauge_is_set_only_while_recording() {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::global().reset();
        let name = "test/mem/peak_rss_mb";
        crate::set_enabled(false);
        gauge_peak_rss(name);
        assert!(!crate::global().snapshot().gauges.contains_key(name), "set while off");
        crate::set_enabled(true);
        gauge_peak_rss(name);
        crate::set_enabled(false);
        let set = crate::global().snapshot().gauges.get(name).copied();
        assert_eq!(set.is_some(), peak_rss_mb().is_some(), "{set:?}");
    }
}
