//! `nevermind report` — render a `--metrics` JSON dump as a terminal
//! report: top spans by total time, per-week series as sparkline tables,
//! the model-health drift/calibration numbers, and — for dumps written
//! with the history layer on — the `nevermind-history/v1` section as
//! week-window sparklines plus the alert scoreboard and transition
//! timeline, which is where the model-health verdicts show.
//!
//! Reads any `nevermind-metrics/v1` document, including pre-telemetry dumps
//! (the sections it cannot find are reported as absent, not errors).
//! Dumps from a *newer* schema version fail with a named
//! [`SchemaError`], never a parse panic. `--profile FILE` instead renders
//! a collapsed-stack profiler dump (`frame;frame N`, as written by
//! `--profile` on `trial`/`simulate` or served at `GET /profile`).

use super::{CliResult, SchemaError};
use crate::args::Args;
use nevermind_obs::trace::EventView;
use serde_json::Value;

/// How many spans the "top spans" table shows.
const TOP_SPANS: usize = 12;
/// Sparklines are downsampled to at most this many cells.
const SPARK_WIDTH: usize = 48;
/// How many frames the profile self-time table shows.
const TOP_FRAMES: usize = 20;

/// Schemas the positional-dump path understands.
const SUPPORTED: &[&str] = &["nevermind-metrics/v1", "nevermind-trace/v1"];

/// Runs the subcommand. The dump path is the one positional argument;
/// `--profile FILE` is the flag-selected alternative mode. Positional
/// dumps may be `nevermind-metrics/v1` JSON or `nevermind-trace/v1`
/// JSONL (detected from the header line).
pub(crate) fn run(args: &Args, path: Option<&str>) -> CliResult {
    args.reject_unknown(&["metrics", "trace", "trace-sample", "profile"])?;
    let profile = args.get("profile");
    let path = match (path, profile) {
        (Some(_), Some(_)) => {
            return Err("pass either a dump path or --profile FILE, not both".into())
        }
        (None, Some(profile)) => return render_profile(profile),
        (None, None) => {
            return Err("usage: nevermind report METRICS_OR_TRACE | --profile FILE".into())
        }
        (Some(path), None) => path,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    match header_schema(&text).as_deref() {
        // A JSONL header on the first line decides the format outright.
        Some("nevermind-trace/v1") => return render_trace(path),
        Some(schema) if schema.starts_with("nevermind-") && !SUPPORTED.contains(&schema) => {
            return Err(SchemaError { found: schema.to_string(), supported: SUPPORTED }.into());
        }
        _ => {}
    }
    let doc = serde_json::parse(&text).map_err(|e| format!("cannot parse '{path}': {e}"))?;
    let doc = doc.as_object().ok_or("metrics document is not a JSON object")?;
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("<missing>");
    if schema.starts_with("nevermind-") && !SUPPORTED.contains(&schema) {
        return Err(SchemaError { found: schema.to_string(), supported: SUPPORTED }.into());
    }

    println!("nevermind metrics report — {path} ({schema})");
    render_spans(doc);
    render_series(doc);
    render_telemetry(doc);
    render_history(doc);
    Ok(())
}

/// The schema string of a single-line JSON header, when the text starts
/// with one (JSONL exports do; pretty-printed metrics dumps do not).
fn header_schema(text: &str) -> Option<String> {
    let first = text.lines().next()?;
    let v = serde_json::parse(first).ok()?;
    Some(v.as_object()?.get("schema")?.as_str()?.to_string())
}

/// Renders a collapsed-stack profile: total samples, distinct stacks,
/// and the top frames by self time (samples where the frame was the
/// innermost open span) alongside total time (samples where it was open
/// at any depth).
fn render_profile(path: &str) -> CliResult {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if let Some(schema) = header_schema(&text) {
        // A nevermind JSON dump was passed where collapsed stacks belong.
        return Err(SchemaError {
            found: schema,
            supported: &["collapsed stacks (frame;frame N), as written by --profile"],
        }
        .into());
    }
    let mut total_samples = 0u64;
    let mut stacks = 0usize;
    // (frame, self_samples, total_samples), insertion-ordered.
    let mut frames: Vec<(String, u64, u64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = line
            .rsplit_once(' ')
            .and_then(|(stack, count)| Some((stack, count.parse::<u64>().ok()?)));
        let Some((stack, count)) = parsed else {
            return Err(format!(
                "'{path}' line {} is not a collapsed stack ('frame;frame N'): {line}",
                i + 1
            )
            .into());
        };
        total_samples += count;
        stacks += 1;
        let mut seen: Vec<&str> = Vec::new();
        let mut leaf = "";
        for frame in stack.split(';') {
            leaf = frame;
            // Recursion repeats a frame within one stack; count its
            // total once.
            if !seen.contains(&frame) {
                seen.push(frame);
            }
        }
        for frame in seen {
            match frames.iter_mut().find(|(f, _, _)| f == frame) {
                Some(row) => row.2 += count,
                None => frames.push((frame.to_string(), 0, count)),
            }
        }
        if let Some(row) = frames.iter_mut().find(|(f, _, _)| f == leaf) {
            row.1 += count;
        }
    }
    println!("nevermind profile report — {path} ({total_samples} samples, {stacks} stacks)");
    if total_samples == 0 {
        println!(
            "\n(no samples — was the profiler running? start it with --profile or --obs-listen)"
        );
        return Ok(());
    }
    frames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let pct = |n: u64| 100.0 * n as f64 / total_samples as f64;
    println!("\ntop frames by self samples ({} of {})", frames.len().min(TOP_FRAMES), frames.len());
    println!("  {:>7}  {:>8}  {:>7}  {:>8}  frame", "self%", "self", "total%", "total");
    for (frame, self_n, total_n) in frames.iter().take(TOP_FRAMES) {
        println!(
            "  {:>6.1}%  {:>8}  {:>6.1}%  {:>8}  {}",
            pct(*self_n),
            self_n,
            pct(*total_n),
            total_n,
            frame
        );
    }
    Ok(())
}

fn render_spans(doc: &serde_json::Map) {
    let Some(spans) = doc.get("spans").and_then(Value::as_object) else {
        println!("\n(no spans section)");
        return;
    };
    if spans.is_empty() {
        println!("\n(no spans recorded)");
        return;
    }
    let mut rows: Vec<(&str, f64, u64, f64)> = spans
        .iter()
        .filter_map(|(path, s)| {
            let s = s.as_object()?;
            let total_ns = s.get("total_ns")?.as_f64()?;
            let count = s.get("count")?.as_u64()?;
            let mean_ns = s.get("mean_ns").and_then(Value::as_f64).unwrap_or(0.0);
            Some((path.as_str(), total_ns, count, mean_ns))
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop spans by total time ({} of {})", rows.len().min(TOP_SPANS), rows.len());
    println!("  {:>12}  {:>7}  {:>12}  path", "total", "calls", "mean");
    for (path, total_ns, count, mean_ns) in rows.iter().take(TOP_SPANS) {
        println!("  {:>12}  {count:>7}  {:>12}  {path}", fmt_ns(*total_ns), fmt_ns(*mean_ns));
    }
}

fn render_series(doc: &serde_json::Map) {
    let Some(series) = doc.get("series").and_then(Value::as_object) else {
        println!("\n(no series section)");
        return;
    };
    let mut printed_header = false;
    for (name, points) in series.iter() {
        let Some(points) = points.as_array() else { continue };
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter_map(|p| {
                let p = p.as_array()?;
                Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
            })
            .collect();
        if pts.is_empty() {
            continue;
        }
        if !printed_header {
            println!("\nper-week series");
            printed_header = true;
        }
        let ys: Vec<f64> = pts.iter().map(|&(_, y)| y).collect();
        let (min, max) = min_max(&ys);
        println!(
            "  {name}: {} pts, x {:.0}→{:.0}, min {}, max {}, last {}",
            pts.len(),
            pts[0].0,
            pts[pts.len() - 1].0,
            fmt_val(min),
            fmt_val(max),
            fmt_val(ys[ys.len() - 1]),
        );
        println!("    {}", sparkline(&ys, SPARK_WIDTH));
    }
    if !printed_header {
        println!("\n(no series recorded)");
    }
}

fn render_telemetry(doc: &serde_json::Map) {
    let Some(tele) = doc.get("telemetry").and_then(Value::as_object) else {
        println!("\n(no telemetry section — dump predates model-health telemetry)");
        return;
    };
    let weeks = tele.get("weeks_observed").and_then(Value::as_u64).unwrap_or(0);
    println!("\nmodel-health telemetry");
    if weeks == 0 {
        println!("  (none recorded — run a trial with --metrics to populate it)");
        return;
    }
    println!("  weeks observed: {weeks}");
    let Some(series) = tele.get("series").and_then(Value::as_object) else {
        return;
    };
    if series.is_empty() {
        return;
    }
    println!("  {:<34}  {:>9}  {:>9}  {:>9}", "metric", "last", "max", "mean");
    for (name, summary) in series.iter() {
        let Some(s) = summary.as_object() else { continue };
        let stat = |key: &str| fmt_val(s.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN));
        println!("  {name:<34}  {:>9}  {:>9}  {:>9}", stat("last"), stat("max"), stat("mean"));
    }
}

/// Renders the optional `nevermind-history/v1` section of a metrics dump:
/// week-window sparklines per retained series, then — when a rule engine
/// ran — the alert/SLO scoreboard and the transition timeline recorded in
/// the engine's notification log. Dumps written without `--history` have
/// no section and print nothing here.
fn render_history(doc: &serde_json::Map) {
    let Some(hist) = doc.get("history").and_then(Value::as_object) else { return };
    let schema = hist.get("schema").and_then(Value::as_str).unwrap_or("<missing>");
    if schema != "nevermind-history/v1" {
        println!("\n(history section has unsupported schema '{schema}'; skipping)");
        return;
    }
    let ticks = hist.get("ticks").and_then(Value::as_u64).unwrap_or(0);
    println!("\nmetrics history ({ticks} sim-day ticks, week windows)");
    let mut printed_series = false;
    if let Some(series) = hist.get("series").and_then(Value::as_object) {
        for (name, rings) in series.iter() {
            let Some(weeks) =
                rings.as_object().and_then(|r| r.get("week")).and_then(Value::as_array)
            else {
                continue;
            };
            // A window is [start_day, min, max, sum, count, last]; the
            // sparkline plots the per-window mean.
            let ys: Vec<f64> = weeks
                .iter()
                .filter_map(|w| {
                    let w = w.as_array()?;
                    let sum = w.get(3)?.as_f64()?;
                    let count = w.get(4)?.as_f64()?;
                    Some(if count > 0.0 { sum / count } else { f64::NAN })
                })
                .collect();
            if ys.is_empty() {
                continue;
            }
            printed_series = true;
            let (min, max) = min_max(&ys);
            println!(
                "  {name}: {} windows, min {}, max {}, last {}",
                ys.len(),
                fmt_val(min),
                fmt_val(max),
                fmt_val(ys[ys.len() - 1]),
            );
            println!("    {}", sparkline(&ys, SPARK_WIDTH));
        }
    }
    if !printed_series {
        println!("  (no series retained)");
    }

    let Some(alerting) = hist.get("alerting").and_then(Value::as_object) else { return };
    let firing = alerting.get("firing").and_then(Value::as_u64).unwrap_or(0);
    let evals = alerting.get("evaluations").and_then(Value::as_u64).unwrap_or(0);
    println!("\nalerting — {evals} evaluations, {firing} firing");
    if let Some(alerts) = alerting.get("alerts").and_then(Value::as_array) {
        for a in alerts {
            let Some(a) = a.as_object() else { continue };
            let name = a.get("name").and_then(Value::as_str).unwrap_or("?");
            let state = a.get("state").and_then(Value::as_str).unwrap_or("?");
            let severity = a.get("severity").and_then(Value::as_str).unwrap_or("?");
            let value = a.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let threshold = a.get("threshold").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  alert {name} [{severity}]: {}  (value {}, threshold {})",
                if state == "firing" { "FIRING" } else { state },
                fmt_val(value),
                fmt_val(threshold)
            );
        }
    }
    if let Some(slos) = alerting.get("slos").and_then(Value::as_array) {
        for s in slos {
            let Some(s) = s.as_object() else { continue };
            let name = s.get("name").and_then(Value::as_str).unwrap_or("?");
            let status = s.get("status").and_then(Value::as_str).unwrap_or("?");
            let burn = s.get("burn").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let objective = s.get("objective").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  slo {name}: {status}  (burn {}, objective {})",
                fmt_val(burn),
                fmt_val(objective)
            );
        }
    }
    let Some(notes) = alerting.get("notifications").and_then(Value::as_array) else { return };
    if notes.is_empty() {
        println!("  timeline: (no transitions recorded)");
        return;
    }
    println!("  timeline:");
    for n in notes {
        let Some(n) = n.as_object() else { continue };
        let day = n.get("day").and_then(Value::as_u64).unwrap_or(0);
        let Some(f) = n.get("fields").and_then(Value::as_object) else { continue };
        let rule = f.get("rule").and_then(Value::as_str).unwrap_or("?");
        let from = f.get("from").and_then(Value::as_str).unwrap_or("?");
        let to = f.get("to").and_then(Value::as_str).unwrap_or("?");
        println!("    day {day:>4}  {rule}: {from} -> {to}");
    }
}

fn min_max(ys: &[f64]) -> (f64, f64) {
    let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// Renders values as 8-level unicode blocks, downsampled by chunk means
/// when longer than `width`. Non-finite values render as spaces.
fn sparkline(ys: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let cells: Vec<f64> = if ys.len() <= width {
        ys.to_vec()
    } else {
        (0..width)
            .map(|i| {
                let lo = i * ys.len() / width;
                let hi = ((i + 1) * ys.len() / width).max(lo + 1);
                ys[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let (min, max) = min_max(&cells);
    let span = max - min;
    cells
        .iter()
        .map(|&y| {
            if !y.is_finite() {
                ' '
            } else if span <= 0.0 || !span.is_finite() {
                BLOCKS[3]
            } else {
                let level = ((y - min) / span * 7.0).round() as usize;
                BLOCKS[level.min(7)]
            }
        })
        .collect()
}

/// Human duration from nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Compact numeric cell: fixed-point for ordinary magnitudes, scientific
/// for the tiny calibrated-probability scale, "n/a" for non-finite.
fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 0.001 {
        format!("{v:.3}")
    } else {
        format!("{v:.1e}")
    }
}

/// Summarizes a `nevermind-trace/v1` export: events by kind, then the
/// proactive dispatch → technician disposition confusion counts.
fn render_trace(path: &str) -> CliResult {
    let events = super::explain::load_trace(path)?;
    println!("nevermind trace report — {path} (nevermind-trace/v1)");

    // Events by kind, most frequent first (name-ordered ties).
    let mut kinds: Vec<(String, usize)> = Vec::new();
    for e in &events {
        match kinds.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((e.kind.clone(), 1)),
        }
    }
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("\n{} events by kind", events.len());
    for (kind, n) in &kinds {
        println!("  {n:>7}  {kind}");
    }

    // Close the loop: what did proactive truck rolls actually find?
    let proactive: Vec<_> =
        events.iter().filter(|e| e.kind == "visit" && e.num("proactive") == Some(1.0)).collect();
    println!("\nproactive dispatch outcomes");
    if proactive.is_empty() {
        println!("  dispatched lines visited: 0");
        println!("  fault-found precision: n/a");
    } else {
        let mut by_disposition: Vec<(String, usize)> = Vec::new();
        let mut found = 0usize;
        for v in &proactive {
            if v.num("found_fault") == Some(1.0) {
                found += 1;
            }
            let code = v.text("disposition").unwrap_or("?").to_string();
            match by_disposition.iter_mut().find(|(c, _)| *c == code) {
                Some((_, n)) => *n += 1,
                None => by_disposition.push((code, 1)),
            }
        }
        by_disposition.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("  dispatched lines visited: {}", proactive.len());
        let precision = found as f64 / proactive.len() as f64;
        println!("  fault-found precision: {precision:.3} ({found}/{})", proactive.len());
        println!("  disposition counts:");
        for (code, n) in &by_disposition {
            println!("    {n:>7}  {code}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[0.0, 1.0], 48), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0], 48), "▄▄▄");
        assert_eq!(sparkline(&[0.0, f64::NAN, 1.0], 48), "▁ █");
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = sparkline(&long, 48);
        assert_eq!(s.chars().count(), 48);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(4.1e9), "4.10 s");
        assert_eq!(fmt_ns(2.5e6), "2.5 ms");
        assert_eq!(fmt_ns(900.0), "900 ns");
        assert_eq!(fmt_val(0.1234), "0.123");
        assert_eq!(fmt_val(0.000012), "1.2e-5");
        assert_eq!(fmt_val(f64::NAN), "n/a");
    }

    #[test]
    fn header_schema_detection() {
        assert_eq!(
            header_schema("{\"schema\":\"nevermind-trace/v1\",\"events\":0}\n").as_deref(),
            Some("nevermind-trace/v1")
        );
        assert_eq!(
            header_schema("{\"schema\":\"nevermind-trace/v9\"}\n{}\n").as_deref(),
            Some("nevermind-trace/v9")
        );
        // Pretty-printed metrics dumps start with a bare brace.
        assert_eq!(header_schema("{\n  \"schema\": \"nevermind-metrics/v1\"\n}\n"), None);
        assert_eq!(header_schema("weekly/rank_week;score 42\n"), None);
        assert_eq!(header_schema(""), None);
    }

    #[test]
    fn schema_error_is_named_and_lists_supported_versions() {
        let e = SchemaError { found: "nevermind-metrics/v9".to_string(), supported: SUPPORTED };
        let msg = e.to_string();
        assert!(msg.starts_with("schema error:"), "{msg}");
        assert!(msg.contains("nevermind-metrics/v9"), "{msg}");
        assert!(msg.contains("nevermind-metrics/v1"), "{msg}");
    }
}
