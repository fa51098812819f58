//! `nevermind explain` — render one line's causal chain from a
//! `nevermind-trace/v1` JSONL export: why it ranked where it did (top
//! stump contributions), the calibration step, the dispatch decision, and
//! what the truck found.

use super::CliResult;
use crate::args::Args;
use nevermind_obs::trace::{render_explain, EventView};
use serde_json::Value;
use std::io::Write;

/// One parsed trace event.
pub(crate) struct Event {
    pub(crate) seq: u64,
    pub(crate) kind: String,
    pub(crate) line: Option<u64>,
    pub(crate) day: Option<u64>,
    pub(crate) fields: Value,
}

impl EventView for Event {
    fn kind(&self) -> &str {
        &self.kind
    }

    fn line_key(&self) -> Option<u64> {
        self.line
    }

    fn day_key(&self) -> Option<u64> {
        self.day
    }

    fn num(&self, name: &str) -> Option<f64> {
        self.fields.as_object()?.get(name)?.as_f64()
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.fields.as_object()?.get(name)?.as_str()
    }
}

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&["trace", "line", "metrics", "trace-sample"])?;
    let _span = nevermind_obs::span!("cli/explain");
    let path = args.require("trace")?;
    let line_arg = args.require("line")?;
    // Accept both the raw index and the Display form ("LineId#7").
    let line: u64 = line_arg
        .strip_prefix("LineId#")
        .unwrap_or(&line_arg)
        .parse()
        .map_err(|_| format!("--line must be a line index (got '{line_arg}')"))?;

    let events = load_trace(&path)?;
    let Some(text) = render_explain(&events, line, &format!("{path} (nevermind-trace/v1)")) else {
        let mut traced: Vec<u64> = events.iter().filter_map(|e| e.line).collect();
        traced.sort_unstable();
        traced.dedup();
        return Err(format!(
            "no trace events for line {line}; the trace covers {} lines \
             (raise --trace-sample or dispatch budgets to trace more)",
            traced.len()
        )
        .into());
    };
    write!(std::io::stdout().lock(), "{text}")?;
    Ok(())
}

/// Loads and schema-checks a `nevermind-trace/v1` JSONL file.
pub(crate) fn load_trace(path: &str) -> Result<Vec<Event>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    parse_trace(&text, path)
}

/// Parses `nevermind-trace/v1` JSONL text; `path` names it in errors.
fn parse_trace(text: &str, path: &str) -> Result<Vec<Event>, Box<dyn std::error::Error>> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("'{path}' is empty"))?;
    let header = serde_json::parse(header)
        .map_err(|e| format!("cannot parse trace header in '{path}': {e}"))?;
    let schema = header
        .as_object()
        .and_then(|h| h.get("schema"))
        .and_then(Value::as_str)
        .unwrap_or("<missing>");
    if schema != "nevermind-trace/v1" {
        return Err(format!(
            "'{path}' is not a nevermind-trace/v1 file (schema: {schema}); \
             produce one with '--trace PATH' on any subcommand"
        )
        .into());
    }
    let mut events = Vec::new();
    for (i, raw) in lines.enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let v = serde_json::parse(raw)
            .map_err(|e| format!("cannot parse trace event on line {} of '{path}': {e}", i + 2))?;
        let obj = v
            .as_object()
            .ok_or_else(|| format!("trace event on line {} of '{path}' is not an object", i + 2))?;
        events.push(Event {
            seq: obj.get("seq").and_then(Value::as_u64).unwrap_or(0),
            kind: obj.get("kind").and_then(Value::as_str).unwrap_or("").to_string(),
            line: obj.get("line").and_then(Value::as_u64),
            day: obj.get("day").and_then(Value::as_u64),
            fields: obj.get("fields").cloned().unwrap_or(Value::Null),
        });
    }
    events.sort_by_key(|e| e.seq);
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_obs::trace::{TraceBuffer, TraceEvent};

    #[test]
    fn ring_and_jsonl_export_render_the_same_chain() {
        let ring = TraceBuffer::new(64);
        ring.set_enabled(true);
        let week = |kind: &'static str, day: u32| TraceEvent::new(kind).line(7).day(day);
        for event in [
            week("rank", 202).attr("rank", 41u64).attr("probability", 0.1 + 0.2),
            week("score", 202).attr("margin", -0.75).attr("stumps", 40u64),
            week("rank", 209).attr("rank", 3u64).attr("probability", 0.81).attr("dispatched", 1u64),
            week("score", 209).attr("margin", 1.5).attr("stumps", 40u64),
            week("stump", 209)
                .attr("order", 1u64)
                .attr("name", "prod:dnbr*looplength")
                .attr("value", f64::NAN)
                .attr("threshold", 1.1)
                .attr("vote", -0.2),
            week("stump", 209)
                .attr("order", 0u64)
                .attr("name", "wretrx_z")
                .attr("value", 3.2)
                .attr("threshold", 1.1)
                .attr("vote", 0.4),
            week("calibrate", 209).attr("a", 1.25).attr("b", -3.0).attr("probability", 0.81),
            week("dispatch", 209).attr("due_day", 212u64).attr("proactive", 1u64),
            TraceEvent::new("rank").line(8).day(209).attr("rank", 1u64),
            week("visit", 212)
                .attr("proactive", 1u64)
                .attr("found_fault", 1u64)
                .attr("disposition", "HN")
                .attr("tests_performed", 3u64)
                .attr("minutes_spent", 45.0),
            week("locate", 212)
                .attr("disposition", "HN-STUB")
                .attr("location", "HN")
                .attr("flat_probability", 0.25)
                .attr("combined_probability", 0.5),
        ] {
            ring.emit(event);
        }
        let parsed = parse_trace(&ring.to_jsonl(), "t.jsonl").expect("the export parses");
        let live = render_explain(&ring.snapshot(), 7, "live trace ring").expect("line 7 traced");
        let file = render_explain(&parsed, 7, "t.jsonl (nevermind-trace/v1)").expect("traced");
        let (live_head, live_body) = live.split_once('\n').expect("header line");
        let (file_head, file_body) = file.split_once('\n').expect("header line");
        assert_eq!(live_head, "decision provenance for line 7 — live trace ring");
        assert_eq!(file_head, "decision provenance for line 7 — t.jsonl (nevermind-trace/v1)");
        assert_eq!(live_body, file_body, "the same chain from the ring and from the file");
        for part in ["week ending day 202: rank 41", "#1 wretrx_z", "value        NaN", "HN-STUB"] {
            assert!(file_body.contains(part), "missing {part:?} in {file_body}");
        }
        assert!(render_explain(&parsed, 9, "t.jsonl").is_none());
    }
}
