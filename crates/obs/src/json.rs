//! Hand-rolled JSON emission for [`crate::Snapshot`] — the crate's one
//! output format, shared verbatim by the CLI's `--metrics` dumps and the
//! bench harness so the two are directly comparable.
//!
//! # Schema (`nevermind-metrics/v1`)
//!
//! ```json
//! {
//!   "schema": "nevermind-metrics/v1",
//!   "counters":   { "<name>": 123 },
//!   "gauges":     { "<name>": 1.5 },
//!   "spans":      { "<a/b/c>": { "count": 2, "total_ns": 100,
//!                                 "mean_ns": 50.0,
//!                                 "min_ns": 20, "max_ns": 80 } },
//!   "series":     { "<name>": [[0.0, 1.5], [7.0, 2.5]] },
//!   "distributions": { "<name>": { "min": 0.0, "max": 1.0, "counts": [3, 1],
//!                                   "underflow": 0, "overflow": 0, "nan": 2 } },
//!   "telemetry": { "weeks_observed": 12,
//!                   "series": { "score_psi": { "points": 12, "last": 0.01,
//!                                               "max": 0.03, "mean": 0.015 } } }
//! }
//! ```
//!
//! All sections are always present (possibly empty). Span paths are
//! `/`-joined nested span names. Non-finite floats never occur (every
//! `f64` is emitted via [`fmt_f64`], which maps them to `null`).
//!
//! The `distributions` and `telemetry` sections were added after the first
//! release of the schema, and a `histograms` section (a log₂-bucket metric
//! kind nothing recorded into) was dropped. Both changes are compatible —
//! the schema string stays `nevermind-metrics/v1`, and v1 readers, which
//! ignore unknown keys and tolerate absent ones, still parse every dump. `telemetry` is *derived*: it summarizes the
//! model-health numbers that `nevermind-core`'s `ModelHealthMonitor`
//! records under the `telemetry/` name prefix (the weeks-observed counter
//! and the per-week drift/calibration series), so any dump path that
//! serializes the registry gets the section for free. It carries no
//! verdict: whether the numbers are healthy is the rule engine's call
//! ([`crate::rules::health`]), and a dump written with the history layer
//! on shows its alert states in the `history` section. When no telemetry
//! was recorded the section is `{"weeks_observed": 0, "series": {}}`.

use crate::registry::Snapshot;

/// Counter of scored weeks the model-health monitor compared.
pub const TELEMETRY_WEEKS_COUNTER: &str = "telemetry/weeks_observed";
/// Name prefix for all model-health series (`telemetry/psi/<feature>`,
/// `telemetry/psi_max`, `telemetry/score_psi`, `telemetry/ece`, ...).
pub const TELEMETRY_SERIES_PREFIX: &str = "telemetry/";

/// Serializes a snapshot as a pretty-printed (2-space) JSON document.
pub fn snapshot_to_json(snap: &Snapshot) -> String {
    render_snapshot(snap, None)
}

/// Like [`snapshot_to_json`], plus a `history` section
/// (`nevermind-history/v1`: windowed series, alert states, SLO burn
/// rates, notifications) when the global history layer is enabled. Dump
/// paths (`--metrics`, the `/metrics` endpoint) call this so history
/// rides along for free; with the layer off the output is byte-identical
/// to [`snapshot_to_json`].
pub fn snapshot_to_json_with_history(snap: &Snapshot) -> String {
    let history = crate::history::enabled().then(|| {
        let alerting = crate::rules::installed().map(|e| e.status_json("    "));
        crate::history::global().section_json("  ", alerting.as_deref())
    });
    render_snapshot(snap, history.as_deref())
}

/// Shared renderer behind the two public serializers; `history` is a
/// pre-rendered section object to splice in, if any.
fn render_snapshot(snap: &Snapshot, history: Option<&str>) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"nevermind-metrics/v1\",\n");

    out.push_str("  \"counters\": {");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        push_key(&mut out, i, k);
        out.push_str(&v.to_string());
    }
    close_obj(&mut out, snap.counters.is_empty());

    out.push_str("  \"gauges\": {");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        push_key(&mut out, i, k);
        out.push_str(&fmt_f64(*v));
    }
    close_obj(&mut out, snap.gauges.is_empty());

    out.push_str("  \"spans\": {");
    for (i, (k, s)) in snap.spans.iter().enumerate() {
        push_key(&mut out, i, k);
        let mean = if s.count == 0 { 0.0 } else { s.total_ns as f64 / s.count as f64 };
        out.push_str(&format!(
            "{{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            s.count,
            s.total_ns,
            fmt_f64(mean),
            s.min_ns,
            s.max_ns
        ));
    }
    close_obj(&mut out, snap.spans.is_empty());

    out.push_str("  \"series\": {");
    for (i, (k, pts)) in snap.series.iter().enumerate() {
        push_key(&mut out, i, k);
        out.push('[');
        for (j, (x, y)) in pts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{}, {}]", fmt_f64(*x), fmt_f64(*y)));
        }
        out.push(']');
    }
    if snap.series.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }

    out.push_str("  \"distributions\": {");
    for (i, (k, d)) in snap.distributions.iter().enumerate() {
        push_key(&mut out, i, k);
        out.push_str(&format!(
            "{{\"min\": {}, \"max\": {}, \"counts\": [{}], \"underflow\": {}, \"overflow\": {}, \"nan\": {}}}",
            fmt_f64(d.min),
            fmt_f64(d.max),
            d.counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", "),
            d.underflow,
            d.overflow,
            d.nan
        ));
    }
    close_obj(&mut out, snap.distributions.is_empty());

    if let Some(h) = history {
        out.push_str("  \"history\": ");
        out.push_str(h);
        out.push_str(",\n");
    }

    push_telemetry(&mut out, snap);

    out.push_str("}\n");
    out
}

/// Emits the derived `telemetry` section: a summary of everything recorded
/// under the `telemetry/` name prefix (see the module docs).
fn push_telemetry(out: &mut String, snap: &Snapshot) {
    let weeks = snap.counters.get(TELEMETRY_WEEKS_COUNTER).copied().unwrap_or(0);
    out.push_str(&format!("  \"telemetry\": {{\n    \"weeks_observed\": {weeks},\n"));
    out.push_str("    \"series\": {");
    let tele_series: Vec<_> = snap
        .series
        .iter()
        .filter_map(|(k, pts)| Some((k.strip_prefix(TELEMETRY_SERIES_PREFIX)?, pts)))
        .filter(|(_, pts)| !pts.is_empty())
        .collect();
    for (i, (k, pts)) in tele_series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      ");
        push_json_string(out, k);
        let ys = pts.iter().map(|&(_, y)| y);
        let last = pts.last().map(|&(_, y)| y).unwrap_or(f64::NAN);
        let max = ys.clone().fold(f64::NEG_INFINITY, f64::max);
        let mean = ys.clone().sum::<f64>() / pts.len() as f64;
        out.push_str(&format!(
            ": {{\"points\": {}, \"last\": {}, \"max\": {}, \"mean\": {}}}",
            pts.len(),
            fmt_f64(last),
            fmt_f64(max),
            fmt_f64(mean)
        ));
    }
    if tele_series.is_empty() {
        out.push_str("}\n");
    } else {
        out.push_str("\n    }\n");
    }
    out.push_str("  }\n");
}

/// Serializes a snapshot in the Prometheus text exposition format
/// (version 0.0.4), for `GET /metrics?format=prom` on the live
/// observability plane.
///
/// Registry names are free-form (`weekly/rank_week`), which Prometheus
/// metric names cannot hold, so instead of lossy name-mangling every
/// metric is exported under a fixed family with the registry name as a
/// label:
///
/// ```text
/// nevermind_counter{name="weekly/lines_scored"} 42
/// nevermind_gauge{name="telemetry/reference_ece"} 0.02
/// nevermind_span_count{path="fit/encode"} 12
/// ```
///
/// Span durations stay in nanoseconds (`_total_ns`), not the
/// conventional seconds; series export only their last point and length
/// (a scrape cannot carry history); distributions export their in-range
/// count and NaN tally. Output order is deterministic (snapshot maps are
/// sorted).
pub fn snapshot_to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);

    family(&mut out, "nevermind_counter", "counter", "Registry counters by name.");
    for (k, v) in &snap.counters {
        sample(&mut out, "nevermind_counter", &[("name", k)], &v.to_string());
    }

    family(&mut out, "nevermind_gauge", "gauge", "Registry gauges by name.");
    for (k, v) in &snap.gauges {
        sample(&mut out, "nevermind_gauge", &[("name", k)], &fmt_prom_f64(*v));
    }

    family(&mut out, "nevermind_span_count", "counter", "Span closures by /-joined path.");
    for (k, s) in &snap.spans {
        sample(&mut out, "nevermind_span_count", &[("path", k)], &s.count.to_string());
    }
    family(
        &mut out,
        "nevermind_span_total_ns",
        "counter",
        "Total span wall-clock nanoseconds by /-joined path.",
    );
    for (k, s) in &snap.spans {
        sample(&mut out, "nevermind_span_total_ns", &[("path", k)], &s.total_ns.to_string());
    }

    family(&mut out, "nevermind_series_points", "gauge", "Points accumulated per series.");
    for (k, pts) in &snap.series {
        sample(&mut out, "nevermind_series_points", &[("name", k)], &pts.len().to_string());
    }
    family(&mut out, "nevermind_series_last", "gauge", "Last value of each series.");
    for (k, pts) in &snap.series {
        if let Some(&(_, y)) = pts.last() {
            sample(&mut out, "nevermind_series_last", &[("name", k)], &fmt_prom_f64(y));
        }
    }

    family(
        &mut out,
        "nevermind_distribution_count",
        "counter",
        "In-range samples per fixed-bin distribution.",
    );
    for (k, d) in &snap.distributions {
        let count: u64 = d.counts.iter().sum();
        sample(&mut out, "nevermind_distribution_count", &[("name", k)], &count.to_string());
    }
    // Its own family preamble: the exposition format requires every
    // sample to follow a `# TYPE` for its metric name (a bare
    // `nevermind_distribution_nan` sample under the `_count` family is
    // exactly the kind of drift the conformance test pins).
    family(
        &mut out,
        "nevermind_distribution_nan",
        "counter",
        "NaN observations per fixed-bin distribution.",
    );
    for (k, d) in &snap.distributions {
        sample(&mut out, "nevermind_distribution_nan", &[("name", k)], &d.nan.to_string());
    }
    out
}

/// Emits the `# HELP` / `# TYPE` preamble for one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Emits one `name{label="value",...} value` sample line.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_prom_label_value(out, v);
        out.push('"');
    }
    out.push_str("} ");
    out.push_str(value);
    out.push('\n');
}

/// Escapes a label value per the text exposition format: backslash,
/// double quote, and newline.
fn push_prom_label_value(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a Prometheus sample value — unlike JSON, the text
/// format spells non-finite values out.
fn fmt_prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        v.to_string()
    }
}

fn push_key(out: &mut String, i: usize, key: &str) {
    if i > 0 {
        out.push(',');
    }
    out.push_str("\n    ");
    push_json_string(out, key);
    out.push_str(": ");
}

fn close_obj(out: &mut String, empty: bool) {
    if empty {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
}

/// Formats an `f64` for JSON: shortest round-trippable decimal via `{}`,
/// always with a decimal point or exponent, `null` for non-finite values
/// (JSON has no NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = v.to_string();
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Appends a JSON string literal (quoted, control characters escaped).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn emits_all_sections_even_when_empty() {
        let json = snapshot_to_json(&Snapshot::default());
        for key in [
            "\"schema\"",
            "\"counters\"",
            "\"gauges\"",
            "\"spans\"",
            "\"series\"",
            "\"distributions\"",
            "\"telemetry\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("nevermind-metrics/v1"));
        assert!(!json.contains("\"histograms\""), "the log₂ histogram kind is gone: {json}");
        assert!(
            json.contains("\"telemetry\": {\n    \"weeks_observed\": 0,\n    \"series\": {}\n  }"),
            "no telemetry recorded: {json}"
        );
    }

    #[test]
    fn emits_distributions_and_derived_telemetry() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        let d = reg.distribution("telemetry/live/score", 0.0, 1.0, 4);
        d.record_all(&[0.1, 0.3, 0.9, f64::NAN]);
        reg.counter("telemetry/weeks_observed").add(3);
        reg.series("telemetry/score_psi").push(7.0, 0.05);
        reg.series("telemetry/score_psi").push(14.0, 0.15);
        let json = reg.to_json();
        assert!(json.contains("\"counts\": [1, 1, 0, 1]"), "missing in {json}");
        assert!(json.contains("\"nan\": 1"));
        assert!(json.contains("\"weeks_observed\": 3"));
        assert!(!json.contains("\"status\""), "the dump carries numbers, not a verdict: {json}");
        assert!(
            json.contains(
                "\"score_psi\": {\"points\": 2, \"last\": 0.15, \"max\": 0.15, \"mean\": 0.1}"
            ),
            "telemetry series summary missing in {json}"
        );
    }

    #[test]
    fn emits_populated_registry() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.counter("c").add(7);
        reg.gauge("g").set(0.25);
        reg.record_span("a/b", 1000);
        reg.series("s").push(6.0, 1.5);
        let json = reg.to_json();
        assert!(json.contains("\"c\": 7"));
        assert!(json.contains("\"g\": 0.25"));
        assert!(json.contains("\"a/b\""));
        assert!(json.contains("\"total_ns\": 1000"));
        assert!(json.contains("[6.0, 1.5]"));
    }

    #[test]
    fn float_formatting_round_trips_and_rejects_nonfinite() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let tricky = 0.1 + 0.2;
        assert_eq!(fmt_f64(tricky).parse::<f64>().expect("parses"), tricky);
    }

    #[test]
    fn string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn prometheus_families_and_label_escaping() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.counter("weekly/lines_scored").add(42);
        reg.gauge("telemetry/reference_ece").set(1.0);
        reg.gauge("weird\"name\\x").set(f64::NAN);
        reg.record_span("fit/encode", 1000);
        reg.series("telemetry/score_psi").push(7.0, 0.05);
        let prom = snapshot_to_prometheus(&reg.snapshot());
        assert!(prom.contains("# TYPE nevermind_counter counter"), "{prom}");
        assert!(prom.contains("nevermind_counter{name=\"weekly/lines_scored\"} 42"), "{prom}");
        assert!(prom.contains("nevermind_gauge{name=\"telemetry/reference_ece\"} 1"), "{prom}");
        assert!(prom.contains("nevermind_gauge{name=\"weird\\\"name\\\\x\"} NaN"), "{prom}");
        assert!(prom.contains("nevermind_span_count{path=\"fit/encode\"} 1"), "{prom}");
        assert!(prom.contains("nevermind_span_total_ns{path=\"fit/encode\"} 1000"), "{prom}");
        assert!(prom.contains("nevermind_series_last{name=\"telemetry/score_psi\"} 0.05"));
        // Every line is a comment or a `name{labels} value` sample.
        for line in prom.lines() {
            assert!(
                line.starts_with("# ") || (line.contains("} ") && line.contains('{')),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_conformance_audit() {
        // Pins the text exposition format (v0.0.4) invariants end to end
        // over one of every metric kind, including hostile names:
        // * every sample follows a `# HELP`/`# TYPE` preamble for its
        //   family;
        // * metric names match [a-zA-Z_:][a-zA-Z0-9_:]* — free-form
        //   registry names ride in labels, never in the metric name;
        // * label values escape backslash, quote, and newline;
        // * every value parses (NaN/+Inf/-Inf spelled out).
        use std::collections::BTreeSet;
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.counter("weekly/lines_scored").add(42);
        reg.counter("evil\"name\\with\nnewline").add(1);
        reg.gauge("g").set(f64::NEG_INFINITY);
        reg.record_span("a/b", 1234);
        reg.series("s").push(1.0, 2.0);
        reg.distribution("d", 0.0, 1.0, 4).record_all(&[0.2, f64::NAN, 7.0]);
        let prom = snapshot_to_prometheus(&reg.snapshot());

        let mut typed = BTreeSet::new();
        let mut helped = BTreeSet::new();
        let mut sample_names = BTreeSet::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().expect("family name").to_string();
                let kind = it.next().expect("family kind");
                assert!(["counter", "gauge"].contains(&kind), "unknown family kind: {line}");
                typed.insert(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().expect("family name").to_string());
                continue;
            }
            assert!(!line.is_empty(), "no blank lines in the exposition");
            let open = line.find('{').expect("every sample is labelled");
            let name = &line[..open];
            assert!(
                name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "unsanitized metric name: {name}"
            );
            sample_names.insert(name.to_string());
            let close = line.rfind('}').expect("labels close");
            let labels = &line[open + 1..close];
            assert!(
                !labels.contains('\n') && !labels.contains("\"\""),
                "label escaping broke: {line}"
            );
            let value = line[close + 1..].trim();
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "unparseable sample value: {line}"
            );
        }
        // Family preambles: every sample belongs to a declared family, and
        // HELP/TYPE pair up.
        assert_eq!(typed, helped, "HELP and TYPE lines pair up per family");
        for name in &sample_names {
            assert!(typed.contains(name), "sample {name} has no family preamble");
        }
        assert!(!prom.contains("nevermind_histogram"), "no histogram family: {prom}");
        // The hostile counter name survives only via label escaping.
        assert!(
            prom.contains("nevermind_counter{name=\"evil\\\"name\\\\with\\nnewline\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("nevermind_gauge{name=\"g\"} -Inf"), "{prom}");
        // The regression this audit was written for: NaN tallies get
        // their own family, not a ride under nevermind_distribution_count.
        assert!(prom.contains("# TYPE nevermind_distribution_nan counter"), "{prom}");
        assert!(prom.contains("nevermind_distribution_nan{name=\"d\"} 1"), "{prom}");
    }

    #[test]
    fn metrics_dump_grows_a_history_section_only_when_enabled() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.counter("c").add(2);
        let snap = reg.snapshot();
        // This test must not depend on (or perturb) the process-global
        // history flag, so it only exercises the disabled path here; the
        // enabled path is covered by tests/observability.rs against the
        // real global store.
        if !crate::history::enabled() {
            assert_eq!(snapshot_to_json_with_history(&snap), snapshot_to_json(&snap));
        }
        assert!(!snapshot_to_json(&snap).contains("\"history\""));
    }
}
