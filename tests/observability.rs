//! Observability contract tests.
//!
//! Two guarantees the instrumentation layer must keep:
//!
//! 1. The metrics JSON the CLI's `--metrics` flag dumps round-trips through
//!    a real JSON parser with the documented `nevermind-metrics/v1` shape
//!    and the exact recorded values.
//! 2. Turning the registry on does not change what the pipeline computes:
//!    a [`WeeklyScorer`] ranking with metrics enabled is bit-identical to
//!    one with metrics disabled (and to the batch [`TicketPredictor::rank`]
//!    path).
//!
//! 3. The metrics-history ring and the rule engine on top of it observe
//!    without participating: a drift trial's outcomes and trace export are
//!    byte-identical with history + alerting on or off, the retained
//!    windows and alert transitions are byte-identical across reruns and
//!    shard counts, and an injected drift scenario reproducibly walks the
//!    built-in model-health alerts pending → firing and flips the live
//!    `/health` endpoint to 503.
//!
//! 4. The counters count the work done: a locator evaluation records one
//!    inference per ranking it computes.
//!
//! The tests toggle the process-global registry, so they serialise on one
//! mutex rather than trusting the harness to run them on separate processes.

use nevermind::locator::{LocatorConfig, LocatorEvaluation, TroubleLocator};
use nevermind::pipeline::{run_proactive_trial_with, ExperimentData, SplitSpec, TrialOptions};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind::scoring::WeeklyScorer;
use nevermind::telemetry::MODEL_HEALTH_RULES;
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::SimConfig;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Serialises tests that flip the process-global registry's enabled bit.
static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

/// Object-member lookup; the vendored `Value` exposes `get` on `Map` only.
fn get<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    v.as_object().and_then(|o| o.get(key))
}

#[test]
fn metrics_json_round_trips_with_v1_schema() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let reg = nevermind_obs::global();
    reg.reset();
    reg.set_enabled(true);

    reg.counter("test/rows").add(41);
    reg.counter("test/rows").inc();
    reg.gauge("test/budget").set(2.5);
    reg.distribution("test/score", 0.0, 1.0, 4).record_all(&[0.1, 0.9, f64::NAN]);
    reg.record_span("fit/encode", 1_500);
    reg.record_span("fit/encode", 500);
    reg.series("test/weekly").push(1.0, 10.0);
    reg.series("test/weekly").push(2.0, 7.5);

    let json = reg.to_json();
    reg.set_enabled(false);
    reg.reset();

    // The emitter is hand-rolled; the vendored serde_json parser is the
    // independent check that its output is real JSON.
    let doc = serde_json::parse(&json).expect("metrics dump must be valid JSON");
    let top = doc.as_object().expect("top level is an object");
    assert_eq!(
        get(&doc, "schema").and_then(|v| v.as_str()),
        Some("nevermind-metrics/v1"),
        "schema marker"
    );
    for section in ["counters", "gauges", "spans", "series", "distributions"] {
        assert!(
            top.get(section).and_then(|v| v.as_object()).is_some(),
            "section '{section}' must always be present as an object"
        );
    }

    let counter = get(&doc, "counters").and_then(|c| get(c, "test/rows")).and_then(|v| v.as_f64());
    assert_eq!(counter, Some(42.0), "counter value survives the round trip");
    let gauge = get(&doc, "gauges").and_then(|g| get(g, "test/budget")).and_then(|v| v.as_f64());
    assert_eq!(gauge, Some(2.5), "gauge value survives the round trip");

    assert!(top.get("histograms").is_none(), "the log₂ histogram kind is gone");
    let dist = get(&doc, "distributions")
        .and_then(|d| get(d, "test/score"))
        .and_then(|v| v.as_object())
        .expect("distribution entry");
    let counts: Vec<f64> = dist
        .get("counts")
        .and_then(|v| v.as_array())
        .expect("count array")
        .iter()
        .map(|c| c.as_f64().expect("bin count"))
        .collect();
    assert_eq!(counts, vec![1.0, 0.0, 0.0, 1.0], "one count per bin survives the round trip");
    assert_eq!(dist.get("nan").and_then(|v| v.as_f64()), Some(1.0));

    let span = get(&doc, "spans")
        .and_then(|s| get(s, "fit/encode"))
        .and_then(|v| v.as_object())
        .expect("span entry under its '/'-joined path");
    assert_eq!(span.get("count").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(span.get("total_ns").and_then(|v| v.as_f64()), Some(2_000.0));
    assert_eq!(span.get("mean_ns").and_then(|v| v.as_f64()), Some(1_000.0));
    assert_eq!(span.get("min_ns").and_then(|v| v.as_f64()), Some(500.0));
    assert_eq!(span.get("max_ns").and_then(|v| v.as_f64()), Some(1_500.0));

    let series = get(&doc, "series")
        .and_then(|s| get(s, "test/weekly"))
        .and_then(|v| v.as_array())
        .expect("series entry");
    assert_eq!(series.len(), 2);
    let p1 = series[1].as_array().expect("series point is an [x, y] pair");
    assert_eq!(p1[0].as_f64(), Some(2.0));
    assert_eq!(p1[1].as_f64(), Some(7.5));
}

#[test]
fn histogram_selectors_are_unknown_to_the_rule_grammar() {
    // The registry has no histogram kind, so the grammar has no selectors
    // for one: a rules file naming them fails with the ordinary
    // unknown-selector error, at its line.
    let parse = nevermind_obs::rules::parse_rules;
    assert_eq!(
        parse("record x = hist_p99(a)").expect_err("rejected"),
        "line 1: unknown selector 'hist_p99' (counter, gauge, series_last, dist_count, rate)"
    );
    let err = parse("# old file\nalert slow if hist_mean(a) > 1 for 1").expect_err("rejected");
    assert!(err.starts_with("line 2: unknown selector 'hist_mean'"), "{err}");
}

#[test]
fn instrumented_scoring_is_bit_identical() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();

    let data = ExperimentData::simulate(SimConfig::small(77));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let cfg = PredictorConfig {
        iterations: 30,
        selection_iterations: 3,
        n_base: 12,
        n_quadratic: 4,
        n_product: 4,
        selection_row_cap: 4_000,
        ..PredictorConfig::default()
    };
    let (predictor, _) =
        TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
    let day = split.test_days[0];

    let rank_once = || {
        let mut engine = WeeklyScorer::new(&predictor, &data.topology.lines);
        engine.observe(&data.output.measurements, &data.output.tickets);
        engine.rank_week(day)
    };

    let dark = rank_once();
    nevermind_obs::set_enabled(true);
    let lit = rank_once();
    let batch = predictor.rank(&data, &[day]);
    nevermind_obs::set_enabled(false);

    assert_eq!(dark.rows, lit.rows);
    assert_eq!(dark.labels, lit.labels);
    assert_eq!(dark.rows, batch.rows);
    for (r, (a, b)) in dark.probabilities.iter().zip(&lit.probabilities).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {r}: {a} (dark) vs {b} (instrumented)");
    }
    for (r, (a, b)) in dark.probabilities.iter().zip(&batch.probabilities).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {r}: {a} (dark) vs {b} (batch)");
    }

    // The instrumented pass must actually have recorded the hot-path span
    // and counter — otherwise this test would vacuously compare two dark
    // runs.
    let snap = nevermind_obs::global().snapshot();
    assert!(
        snap.spans.keys().any(|k| k.contains("weekly/rank_week")),
        "instrumented run recorded the rank_week span; saw {:?}",
        snap.spans.keys().collect::<Vec<_>>()
    );
    let scored = snap.counters.get("weekly/lines_scored").copied().unwrap_or(0);
    assert_eq!(scored as usize, lit.rows.len(), "lines_scored counter matches the ranked rows");
    nevermind_obs::global().reset();
}

/// `LocatorEvaluation::run` makes two inferences per held-out dispatch:
/// the flat and the combined ranking. Its cost-aware order reuses the
/// combined ranking, so it adds none.
#[test]
fn locator_evaluation_counts_two_inferences_per_dispatch() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut cfg = SimConfig::small(91);
    cfg.n_lines = 6_000;
    cfg.faults_per_line_year = 1.3;
    let data = ExperimentData::simulate(cfg);
    let days = data.config.days;
    let lcfg = LocatorConfig { iterations: 40, min_examples: 10, ..LocatorConfig::default() };
    let locator = TroubleLocator::fit(&data, 30, days / 2, &lcfg).expect("window has dispatches");

    let reg = nevermind_obs::global();
    reg.reset();
    reg.set_enabled(true);
    let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
    let inferences = reg.counter("locator/inferences").get();
    reg.set_enabled(false);
    reg.reset();

    assert!(!eval.per_example.is_empty(), "the held-out window has dispatches");
    assert_eq!(inferences, 2 * eval.per_example.len() as u64);
}

/// One blocking HTTP/1.1 GET against the live plane; returns (status code,
/// body). The server always answers `Connection: close`, so reading to EOF
/// is the whole exchange.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let code: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (code, body)
}

/// The tentpole guarantee: serving the live plane — HTTP server up, the
/// continuous profiler sweeping every 250µs, and a scraper hammering all
/// five endpoints throughout — changes *nothing* the trial computes. The
/// outcome counts and the full nevermind-trace/v1 export are byte-identical
/// to a plane-off run, and every endpoint answers with a well-formed
/// payload while the trial is in flight.
#[test]
fn live_plane_is_invisible_to_outcomes_and_traces() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    const SEED: u64 = 0x5EED_CA11;
    // Both runs judge model health with a fresh built-in rule set on the
    // history tick, as `nevermind trial` does by default.
    let run_trial = || {
        nevermind_obs::global().reset();
        nevermind_obs::trace::global().reset();
        nevermind_obs::history::global().reset();
        nevermind_obs::history::set_enabled(true);
        nevermind_obs::rules::install(
            nevermind_obs::rules::parse_rules(MODEL_HEALTH_RULES).expect("built-in set parses"),
        );
        let cfg = Scenario::parse("baseline").expect("known scenario").config(SEED, 800, 180);
        let predictor_cfg = PredictorConfig {
            iterations: 40,
            budget_fraction: 0.01,
            selection_row_cap: 8_000,
            ..PredictorConfig::default()
        };
        run_proactive_trial_with(cfg, &predictor_cfg, 12, &TrialOptions::default())
            .expect("trial config is valid")
    };

    // Baseline: metrics and tracing on (the CLI enables both for a traced
    // run), but no HTTP server and no profiler.
    nevermind_obs::set_enabled(true);
    nevermind_obs::trace::set_enabled(true);
    let off = run_trial();
    let trace_off = nevermind_obs::trace::global().to_jsonl();

    // Plane on: server + sampler + a scraper thread polling mid-run.
    let server = nevermind_obs::ObsServer::start("127.0.0.1:0").expect("ephemeral-port bind");
    let addr = server.local_addr();
    nevermind_obs::profile::global()
        .start(std::time::Duration::from_micros(250))
        .expect("sampler thread starts");
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut polled = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for path in
                    ["/metrics", "/metrics?format=prom", "/health", "/trace/tail?n=25", "/profile"]
                {
                    let (code, _) = http_get(addr, path);
                    assert!(code == 200 || code == 503, "{path} answered {code} mid-run");
                    polled += 1;
                }
            }
            polled
        })
    };
    let on = run_trial();
    stop.store(true, Ordering::Relaxed);
    let polled = scraper.join().expect("scraper thread");
    assert!(polled >= 5, "the scraper must have exercised every endpoint mid-run");

    // Every endpoint answers with a payload that parses under its schema.
    let (code, body) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    let doc = serde_json::parse(&body).expect("/metrics body is valid JSON");
    assert_eq!(
        get(&doc, "schema").and_then(|v| v.as_str()),
        Some("nevermind-metrics/v1"),
        "live /metrics carries the schema marker"
    );
    assert!(
        get(&doc, "telemetry").and_then(|v| v.as_object()).is_some(),
        "a telemetry-bearing trial exposes the telemetry section live"
    );

    let (code, body) = http_get(addr, "/metrics?format=prom");
    assert_eq!(code, 200);
    let mut samples = 0usize;
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bare line {line:?}"));
        assert!(value.parse::<f64>().is_ok() || value == "NaN", "unparseable sample {line:?}");
        samples += 1;
    }
    assert!(samples > 0, "the prom exposition must carry samples after a trial");

    let (code, body) = http_get(addr, "/health");
    assert_eq!(code, 200, "a healthy baseline trial must not answer 503: {body}");
    let doc = serde_json::parse(&body).expect("/health body is valid JSON");
    assert_eq!(get(&doc, "schema").and_then(|v| v.as_str()), Some("nevermind-health/v1"));
    assert_eq!(get(&doc, "status").and_then(|v| v.as_str()), Some("healthy"), "{body}");

    let (code, body) = http_get(addr, "/trace/tail?n=25");
    assert_eq!(code, 200);
    let header = body.lines().next().expect("tail export has a header");
    assert!(header.contains("\"schema\":\"nevermind-trace/v1\""), "{header}");
    assert!(header.contains("\"events\":25"), "{header}");
    assert_eq!(body.lines().count(), 26, "header plus exactly n events");

    let dispatched = nevermind_obs::trace::global()
        .snapshot()
        .iter()
        .find(|e| e.kind == "dispatch")
        .and_then(|e| e.line)
        .expect("a trial dispatches at least one traced line");
    let (code, body) = http_get(addr, &format!("/explain?line={dispatched}"));
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(&format!("line {dispatched}")), "explain names its line: {body}");
    assert!(
        body.to_lowercase().contains("dispatch"),
        "explain walks to the dispatch decision: {body}"
    );

    let (code, body) = http_get(addr, "/profile");
    assert_eq!(code, 200);
    assert!(!body.is_empty(), "a 250µs sampler over a whole trial collects stacks");
    for line in body.lines() {
        let (_, count) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad stack {line:?}"));
        assert!(count.parse::<u64>().is_ok(), "collapsed-stack count in {line:?}");
    }

    let trace_on = nevermind_obs::trace::global().to_jsonl();
    nevermind_obs::profile::global().stop();
    server.stop();
    nevermind_obs::rules::clear();
    nevermind_obs::history::set_enabled(false);
    nevermind_obs::history::global().reset();
    nevermind_obs::trace::set_enabled(false);
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();
    nevermind_obs::trace::global().reset();

    // Byte-identical decisions: every outcome count and the full trace.
    let (a, b) = (&off.outcome, &on.outcome);
    assert_eq!(a.policy_start_day, b.policy_start_day);
    assert_eq!(a.proactive_dispatches, b.proactive_dispatches, "dispatch counts diverged");
    assert_eq!(a.proactive_hits, b.proactive_hits, "dispatch targets diverged");
    assert_eq!(a.proactive_tickets, b.proactive_tickets, "proactive world diverged");
    assert_eq!(a.reactive_tickets, b.reactive_tickets, "reactive twin diverged");
    assert_eq!(a.proactive_churn, b.proactive_churn);
    assert_eq!(a.reactive_churn, b.reactive_churn);
    assert_eq!(trace_off, trace_on, "trace exports must be byte-identical plane on/off");
}

/// Rules the drift test installs: a recording rule deriving dispatch
/// precision, the built-in model-health alerts, and an SLO burn-rate
/// objective.
fn drift_rules() -> String {
    format!(
        "record dispatch/precision = counter(sim/proactive_hits) / counter(sim/proactive_visits)\n\
         {MODEL_HEALTH_RULES}\
         slo dispatch/precision_objective objective 0.3 good counter(sim/proactive_hits) \
         total counter(sim/proactive_visits) window 8\n"
    )
}

/// The history/alerting guarantee: a drift-injected trial (trained on
/// `baseline`, run on `overprovisioned` — the telemetry must escalate)
/// computes byte-identical outcomes and traces with the history ring and
/// rule engine on or off; the retained windows and alert transitions are
/// byte-identical across reruns and shard counts; the drift drives the
/// model-health alerts pending → firing; and `/history`, `/alerts`,
/// `/health` serve it all live, with `/health` answering 503 while a
/// critical alert fires.
#[test]
fn history_and_alerting_fire_on_drift_without_touching_outcomes() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    const SEED: u64 = 0x5EED_CA11;
    let run_drift_trial = |shards: usize| {
        nevermind_obs::global().reset();
        nevermind_obs::trace::global().reset();
        let live = Scenario::parse("overprovisioned").expect("known").config(SEED, 800, 180);
        let train = Scenario::parse("baseline").expect("known").config(SEED, 800, 180);
        let predictor_cfg = PredictorConfig {
            iterations: 40,
            budget_fraction: 0.01,
            selection_row_cap: 8_000,
            ..PredictorConfig::default()
        };
        let options = TrialOptions { train_config: Some(train), shards, ..TrialOptions::default() };
        run_proactive_trial_with(live, &predictor_cfg, 12, &options).expect("valid drift trial")
    };
    let install_fresh_rules = || {
        let rules = nevermind_obs::rules::parse_rules(&drift_rules()).expect("rules parse");
        nevermind_obs::rules::install(rules);
        nevermind_obs::history::global().reset();
        nevermind_obs::history::set_enabled(true);
    };

    nevermind_obs::set_enabled(true);
    nevermind_obs::trace::set_enabled(true);

    // Dark run: metrics + tracing on, history layer off, no rules.
    nevermind_obs::rules::clear();
    nevermind_obs::history::set_enabled(false);
    let off = run_drift_trial(1);
    let trace_off = nevermind_obs::trace::global().to_jsonl();

    // Lit run: history ring + rule engine + live server, a scraper
    // polling the new endpoints mid-run.
    install_fresh_rules();
    let server = nevermind_obs::ObsServer::start("127.0.0.1:0").expect("ephemeral-port bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut polled = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for path in ["/history", "/alerts", "/health"] {
                    let (code, _) = http_get(addr, path);
                    assert!(code == 200 || code == 503, "{path} answered {code} mid-run");
                    polled += 1;
                }
            }
            polled
        })
    };
    let on = run_drift_trial(1);
    stop.store(true, Ordering::Relaxed);
    let polled = scraper.join().expect("scraper thread");
    assert!(polled >= 3, "the scraper must have exercised the new endpoints mid-run");
    let trace_on = nevermind_obs::trace::global().to_jsonl();
    let history_one = nevermind_obs::history::global().section_json("", None);
    let alerts_one = nevermind_obs::rules::alerts_json();

    // The injected drift must have walked a model-health alert to firing …
    assert!(
        nevermind_obs::rules::installed().is_some_and(|e| e.firing() >= 1),
        "the drift scenario must fire a model-health alert: {alerts_one}"
    );
    let engine = nevermind_obs::rules::installed().expect("engine installed");
    let status = engine.status_json("");
    assert!(status.contains("\"state\": \"firing\""), "{status}");
    assert!(
        status.contains("\"from\":\"pending\"") && status.contains("\"to\":\"firing\""),
        "the notification log must record the pending -> firing transition: {status}"
    );

    // … and the live plane serves it: /alerts reports the firing rule,
    // /health answers 503, /history serves the recorded series.
    let (code, body) = http_get(addr, "/alerts");
    assert_eq!(code, 200, "{body}");
    let doc = serde_json::parse(&body).expect("/alerts body is valid JSON");
    assert_eq!(get(&doc, "schema").and_then(|v| v.as_str()), Some("nevermind-history/v1"));
    assert!(
        get(&doc, "firing").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "/alerts reports the firing count: {body}"
    );

    let (code, body) = http_get(addr, "/health");
    assert_eq!(code, 503, "a firing critical alert flips /health to 503: {body}");
    let doc = serde_json::parse(&body).expect("/health body is valid JSON");
    assert!(
        get(&doc, "alerts_firing").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "/health carries the firing-alert count: {body}"
    );

    let (code, body) = http_get(addr, "/history");
    assert_eq!(code, 200, "{body}");
    let doc = serde_json::parse(&body).expect("/history index is valid JSON");
    assert_eq!(get(&doc, "schema").and_then(|v| v.as_str()), Some("nevermind-history/v1"));
    let series = get(&doc, "series").and_then(|v| v.as_array()).expect("series list");
    assert!(
        series.iter().any(|s| s.as_str() == Some("dispatch/precision")),
        "the recording rule's derived series is retained: {body}"
    );

    let (code, body) = http_get(addr, "/history?series=dispatch/precision&r=week");
    assert_eq!(code, 200, "{body}");
    let doc = serde_json::parse(&body).expect("/history series payload is valid JSON");
    let windows = get(&doc, "windows").and_then(|v| v.as_array()).expect("windows array");
    assert!(!windows.is_empty(), "week windows were retained: {body}");

    let (code, body) = http_get(addr, "/history?series=no/such/series&r=week");
    assert_eq!(code, 404, "unknown series is a 404, not a panic: {body}");
    server.stop();

    // Shard-count invariance: a fresh engine, the same rules, two shards —
    // the history export and every alert transition are byte-identical.
    install_fresh_rules();
    let two = run_drift_trial(2);
    let history_two = nevermind_obs::history::global().section_json("", None);
    let alerts_two = nevermind_obs::rules::alerts_json();

    nevermind_obs::rules::clear();
    nevermind_obs::history::set_enabled(false);
    nevermind_obs::history::global().reset();
    nevermind_obs::trace::set_enabled(false);
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();
    nevermind_obs::trace::global().reset();

    // Byte-identical decisions with the layer on or off, and across shards.
    for (label, other) in [("history on", &on.outcome), ("2 shards", &two.outcome)] {
        let a = &off.outcome;
        assert_eq!(a.policy_start_day, other.policy_start_day, "{label}");
        assert_eq!(a.proactive_dispatches, other.proactive_dispatches, "{label}");
        assert_eq!(a.proactive_hits, other.proactive_hits, "{label}");
        assert_eq!(a.proactive_tickets, other.proactive_tickets, "{label}");
        assert_eq!(a.reactive_tickets, other.reactive_tickets, "{label}");
        assert_eq!(a.proactive_churn, other.proactive_churn, "{label}");
        assert_eq!(a.reactive_churn, other.reactive_churn, "{label}");
    }
    assert_eq!(trace_off, trace_on, "trace exports must be byte-identical history on/off");
    assert_eq!(history_one, history_two, "history export must not depend on shard count");
    assert_eq!(alerts_one, alerts_two, "alert transitions must not depend on shard count");
    // Sanity: the trial's own telemetry saw the drift (that is what the
    // alert rules keyed on).
    let report = on.telemetry.as_ref().expect("drift trial reports telemetry");
    assert!(report.weeks_observed > 0);
}

/// Reference model for [`nevermind_obs::rules::step_alert`]: tracks the
/// run of consecutive true evaluations.
fn consecutive_trues(conds: &[bool]) -> Vec<u32> {
    let mut run = 0u32;
    conds
        .iter()
        .map(|&c| {
            run = if c { run + 1 } else { 0 };
            run
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The alert state machine honours its `for`-duration hysteresis on
    /// every condition sequence: it never reaches `Firing` without
    /// `max(for, 1)` consecutive true evaluations, a false evaluation
    /// always leaves `Firing` (no flapping into `Pending`), and
    /// `Resolved` appears only immediately after `Firing`.
    #[test]
    fn alert_state_machine_honours_for_duration(
        conds in prop::collection::vec(any::<bool>(), 1..200),
        for_ticks in 0u32..6,
    ) {
        use nevermind_obs::rules::{step_alert, AlertState};
        let runs = consecutive_trues(&conds);
        let mut state = AlertState::Inactive;
        let mut ticks = 0u32;
        for (i, &cond) in conds.iter().enumerate() {
            let prev = state;
            let (next, next_ticks) = step_alert(state, ticks, cond, for_ticks);
            if next == AlertState::Firing {
                prop_assert!(cond, "step {i}: fired on a false evaluation");
                prop_assert!(
                    runs[i] >= for_ticks.max(1),
                    "step {i}: fired after {} consecutive trues, for={for_ticks}",
                    runs[i]
                );
            }
            if !cond {
                prop_assert!(
                    matches!(next, AlertState::Inactive | AlertState::Resolved),
                    "step {i}: a false evaluation must quench, got {next:?}"
                );
            }
            if next == AlertState::Resolved {
                prop_assert_eq!(
                    prev, AlertState::Firing,
                    "step {i}: resolved without having fired"
                );
            }
            if prev == AlertState::Firing && cond {
                prop_assert_eq!(next, AlertState::Firing, "step {i}: flapped out of firing");
            }
            state = next;
            ticks = next_ticks;
        }
    }

    /// Once the condition holds for `for` straight evaluations the alert
    /// *must* fire — hysteresis delays, it never suppresses.
    #[test]
    fn alert_fires_exactly_after_the_for_duration(for_ticks in 0u32..8) {
        use nevermind_obs::rules::{step_alert, AlertState};
        let mut state = AlertState::Inactive;
        let mut ticks = 0u32;
        let need = for_ticks.max(1);
        for i in 1..=need {
            let (next, next_ticks) = step_alert(state, ticks, true, for_ticks);
            if i < need {
                prop_assert_eq!(next, AlertState::Pending, "tick {i} of {need}");
            } else {
                prop_assert_eq!(next, AlertState::Firing, "tick {i} of {need}");
            }
            state = next;
            ticks = next_ticks;
        }
        // One false evaluation resolves; the next true starts over.
        let (resolved, t) = step_alert(state, ticks, false, for_ticks);
        prop_assert_eq!(resolved, AlertState::Resolved);
        let (restart, _) = step_alert(resolved, t, true, for_ticks);
        let expected =
            if for_ticks <= 1 { AlertState::Firing } else { AlertState::Pending };
        prop_assert_eq!(restart, expected, "re-entry honours the for-duration again");
    }
}
