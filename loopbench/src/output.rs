//! The JSON lines a run prints: manifest, report and the final result.

use crate::{Metric, Outcome, RunConfig, Workload};

/// The member `key` of a JSON object.
pub fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    v.as_object()?.get(key)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line, always printed last: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let correct = outcome.checks.failed == 0 && outcome.checks.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics_object(&outcome.metrics)
    )
}

/// The run manifest: host, toolchain, revision, seed, parameters.
pub fn manifest_line(workload: Workload, cfg: &RunConfig, outcome: &Outcome) -> String {
    let params: Vec<String> =
        outcome.params.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {}, \"rustc\": {}, \"git\": {}, \"samples\": {}, \"params\": {{{}}}}}}}",
        quote(workload.name()),
        cfg.trace,
        cfg.seed,
        number(cfg.seconds),
        cfg.threads,
        quote(env!("LOOPBENCH_RUSTC")),
        quote(env!("LOOPBENCH_GIT")),
        outcome.samples,
        params.join(", ")
    )
}

/// Workload-specific figures under their own names.
pub fn report_line(outcome: &Outcome) -> String {
    format!("{{\"report\": {}}}", metrics_object(&outcome.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checks;

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let outcome = Outcome {
            checks: Checks { attempted: 3, failed: 1, failures: vec![] },
            metrics: vec![Metric::new("job_cpu_s", 1.25, "s")],
            ..Outcome::default()
        };
        let line = result_line(&outcome);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let obj = v.as_object().expect("object");
        let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), Some(&serde_json::Value::Bool(false)));
        let job = field(&v, "metrics").and_then(|m| field(m, "job_cpu_s")).expect("metric");
        assert_eq!(field(job, "value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(field(job, "unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn strings_and_numbers_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(f64::NAN), "null");
    }
}
