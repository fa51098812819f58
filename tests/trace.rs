//! Decision-provenance contract tests.
//!
//! Three guarantees the tracing layer must keep:
//!
//! 1. **Determinism** — two identically-seeded trials with tracing enabled
//!    produce byte-identical `nevermind-trace/v1` JSONL (no wall-clock
//!    fields; the `no-wallclock-in-model` lint rule keeps the emit paths
//!    honest, this test keeps the bytes honest).
//! 2. **Non-interference** — enabling tracing does not change a single
//!    trial outcome; the trace only *reads* the decisions it describes.
//! 3. **Reconstructability** — for a dispatched line the export carries the
//!    full causal chain (`score` → `stump`* → `calibrate` → `rank` →
//!    `dispatch` → `visit`), the calibrated probability is bit-identical to
//!    the ranked one, and the whole document parses as real JSON.
//!
//! All tests flip the process-global trace buffer's enabled bit, so they
//! serialise on one mutex (same pattern as `tests/observability.rs`).

use nevermind::locator::{
    collect_dispatch_examples, LocatorConfig, LocatorEvaluation, TroubleLocator,
};
use nevermind::pipeline::{
    run_proactive_trial, run_proactive_trial_with, ExperimentData, ProactiveOutcome, TrialOptions,
};
use nevermind::predictor::PredictorConfig;
use nevermind::provenance::TOP_STUMPS;
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::SimConfig;
use nevermind_obs::trace::TracePolicy;
use serde_json::Value;
use std::sync::Mutex;

static GLOBAL_TRACE: Mutex<()> = Mutex::new(());

const SEED: u64 = 0x5EED_CA11;
const LINES: usize = 300;
const DAYS: u32 = 160;
const WARMUP_WEEKS: u32 = 14;

fn sim_config() -> SimConfig {
    Scenario::parse("baseline").expect("known scenario").config(SEED, LINES, DAYS)
}

fn predictor_config() -> PredictorConfig {
    PredictorConfig {
        iterations: 40,
        budget_fraction: 0.01,
        selection_row_cap: 8_000,
        ..PredictorConfig::default()
    }
}

/// Runs one seeded trial with tracing toggled, returning the outcome and
/// the JSONL export (empty when tracing was off).
fn traced_trial(enabled: bool) -> (ProactiveOutcome, String) {
    let buf = nevermind_obs::trace::global();
    buf.reset();
    nevermind_obs::trace::set_enabled(enabled);
    let outcome = run_proactive_trial(sim_config(), &predictor_config(), WARMUP_WEEKS)
        .expect("trial config is valid");
    let jsonl = buf.to_jsonl();
    nevermind_obs::trace::set_enabled(false);
    buf.reset();
    (outcome, jsonl)
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object().and_then(|o| o.get(key))
}

/// One parsed event: (kind, line, day, fields).
struct Ev {
    kind: String,
    line: Option<u64>,
    day: Option<u64>,
    fields: Value,
}

impl Ev {
    fn f(&self, name: &str) -> Option<f64> {
        get(&self.fields, name).and_then(Value::as_f64)
    }
    fn u(&self, name: &str) -> Option<u64> {
        get(&self.fields, name).and_then(Value::as_u64)
    }
}

/// Parses a JSONL export through the vendored (independent) JSON parser.
fn parse_events(jsonl: &str) -> Vec<Ev> {
    let mut lines = jsonl.lines();
    let header = serde_json::parse(lines.next().expect("header line")).expect("header is JSON");
    assert_eq!(
        get(&header, "schema").and_then(Value::as_str),
        Some("nevermind-trace/v1"),
        "schema marker"
    );
    let events: Vec<Ev> = lines
        .map(|l| {
            let v = serde_json::parse(l).expect("every event line is JSON");
            Ev {
                kind: get(&v, "kind").and_then(Value::as_str).expect("kind").to_string(),
                line: get(&v, "line").and_then(Value::as_u64),
                day: get(&v, "day").and_then(Value::as_u64),
                fields: get(&v, "fields").cloned().expect("fields object"),
            }
        })
        .collect();
    assert_eq!(
        get(&header, "events").and_then(Value::as_u64),
        Some(events.len() as u64),
        "header event count matches body"
    );
    events
}

#[test]
fn trace_events_are_deterministic() {
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let (_, first) = traced_trial(true);
    let (_, second) = traced_trial(true);
    assert!(!first.is_empty() && first.lines().count() > 1, "trace must carry events");
    assert_eq!(first, second, "identically-seeded traced trials must export identical bytes");
}

#[test]
fn sharded_trial_exports_identical_trace_bytes() {
    // Sharding the plant and the weekly scorer is pure execution policy:
    // the decision-provenance export — every rank, score, dispatch and
    // visit event, in order — must be byte-identical to the serial trial's.
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let run = |shards: usize| {
        let buf = nevermind_obs::trace::global();
        buf.reset();
        nevermind_obs::trace::set_enabled(true);
        let options = TrialOptions { shards, ..TrialOptions::default() };
        let result =
            run_proactive_trial_with(sim_config(), &predictor_config(), WARMUP_WEEKS, &options)
                .expect("trial config is valid");
        let jsonl = buf.to_jsonl();
        nevermind_obs::trace::set_enabled(false);
        buf.reset();
        (result.outcome, jsonl)
    };
    let (serial_outcome, serial_jsonl) = run(1);
    assert!(serial_jsonl.lines().count() > 1, "trace must carry events");
    let (sharded_outcome, sharded_jsonl) = run(4);
    assert_eq!(serial_outcome.proactive_dispatches, sharded_outcome.proactive_dispatches);
    assert_eq!(serial_outcome.proactive_tickets, sharded_outcome.proactive_tickets);
    assert_eq!(serial_outcome.reactive_tickets, sharded_outcome.reactive_tickets);
    assert_eq!(
        serial_jsonl, sharded_jsonl,
        "sharded trial must export byte-identical nevermind-trace/v1"
    );
}

#[test]
fn tracing_does_not_perturb_the_trial() {
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let (dark, empty) = traced_trial(false);
    let (lit, jsonl) = traced_trial(true);
    assert_eq!(empty.lines().count(), 1, "disabled tracing must export a bare header");
    assert!(jsonl.lines().count() > 1, "enabled tracing must export events");
    assert_eq!(dark.proactive_dispatches, lit.proactive_dispatches);
    assert_eq!(dark.proactive_hits, lit.proactive_hits);
    assert_eq!(dark.proactive_tickets, lit.proactive_tickets);
    assert_eq!(dark.reactive_tickets, lit.reactive_tickets);
    assert_eq!(dark.proactive_churn, lit.proactive_churn);
}

#[test]
fn tracing_retains_no_extra_feature_bytes() {
    // Regression: emitting provenance used to retain a second narrow
    // feature matrix alongside the scoring engine's own copy whenever the
    // trace flag was on. Both now borrow the same store frame, so the
    // engine's retained footprint must not depend on tracing at all.
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    use nevermind::pipeline::{ExperimentData, SplitSpec};
    use nevermind::{TicketPredictor, WeeklyScorer};

    let data = ExperimentData::simulate(sim_config());
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let (predictor, _) = TicketPredictor::fit(&data, &split, &predictor_config())
        .expect("well-formed training data");
    let day = *split.test_days.first().expect("test window has Saturdays");

    let run = |traced: bool| {
        let buf = nevermind_obs::trace::global();
        buf.reset();
        nevermind_obs::trace::set_enabled(traced);
        let mut engine = WeeklyScorer::new(&predictor, &data.topology.lines);
        engine.observe(&data.output.measurements, &data.output.tickets);
        let ranking = engine.rank_week(day);
        let bytes = engine.retained_bytes();
        let store_bytes = engine.store().resident_bytes();
        let assembled = engine.traced_assembled_row(0).expect("row 0 exists after ranking");
        nevermind_obs::trace::set_enabled(false);
        buf.reset();
        (bytes, store_bytes, ranking, assembled)
    };

    let (dark_bytes, dark_store, dark_rank, dark_row) = run(false);
    let (lit_bytes, lit_store, lit_rank, lit_row) = run(true);
    assert_eq!(
        dark_bytes, lit_bytes,
        "tracing must not retain extra feature bytes (the old trace-gated clone)"
    );
    assert_eq!(dark_bytes, dark_store, "the store is the engine's only retained materialization");
    assert_eq!(lit_bytes, lit_store);
    // And the borrow-only path serves identical data either way.
    assert_eq!(dark_rank.probabilities, lit_rank.probabilities);
    assert_eq!(
        dark_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        lit_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "assembled trace rows must be bit-identical with tracing on or off"
    );
}

#[test]
fn dispatched_line_chain_is_reconstructable() {
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let (outcome, jsonl) = traced_trial(true);
    assert!(outcome.proactive_dispatches > 0, "the trial must dispatch for this test to bite");
    let events = parse_events(&jsonl);

    // Every kind the pipeline promises shows up.
    for kind in ["dispatch_week", "score", "stump", "calibrate", "rank", "dispatch", "visit"] {
        assert!(events.iter().any(|e| e.kind == kind), "missing '{kind}' events");
    }

    // Anchor on a dispatched rank event and walk its whole chain.
    let rank = events
        .iter()
        .find(|e| e.kind == "rank" && e.u("dispatched") == Some(1))
        .expect("a dispatched rank event");
    let (line, day) = (rank.line.expect("rank has line"), rank.day.expect("rank has day"));
    let same = |e: &&Ev| e.line == Some(line) && e.day == Some(day);

    let score = events.iter().filter(|e| e.kind == "score").find(same).expect("score event");
    assert!(score.f("margin").expect("margin").is_finite());
    assert!(score.u("stumps").expect("stump count") > 0);

    let stumps: Vec<&Ev> = events.iter().filter(|e| e.kind == "stump" && same(e)).collect();
    assert!(
        (1..=TOP_STUMPS).contains(&stumps.len()),
        "top stump contributions, at most {TOP_STUMPS}: got {}",
        stumps.len()
    );
    for s in &stumps {
        assert!(s.f("vote").expect("vote") != 0.0, "abstaining stumps are not contributions");
        assert!(s.f("threshold").is_some() && s.u("feature").is_some());
        assert!(get(&s.fields, "name").and_then(Value::as_str).is_some());
    }
    // Strongest first.
    let votes: Vec<f64> = stumps.iter().map(|s| s.f("vote").expect("vote").abs()).collect();
    assert!(votes.windows(2).all(|w| w[0] >= w[1]), "votes ordered by |vote|: {votes:?}");

    // The calibration step reproduces the ranked probability bit-for-bit.
    let cal = events.iter().filter(|e| e.kind == "calibrate").find(same).expect("calibrate event");
    let (cal_p, rank_p) =
        (cal.f("probability").expect("cal p"), rank.f("probability").expect("rank p"));
    assert_eq!(
        cal_p.to_bits(),
        rank_p.to_bits(),
        "calibrated and ranked probabilities must be bit-identical"
    );
    assert_eq!(
        get(&cal.fields, "a").and_then(Value::as_f64).map(f64::is_finite),
        Some(true),
        "Platt slope travels with the event"
    );

    // The decision closes the loop: a dispatch within the following week,
    // and a proactive truck roll on its due day.
    let dispatch = events
        .iter()
        .filter(|e| e.kind == "dispatch" && e.line == Some(line))
        .find(|e| e.day.is_some_and(|d| d > day && d <= day + 7))
        .expect("dispatch scheduled the week after the ranking");
    let due = dispatch.u("due_day").expect("due_day");
    let visit = events
        .iter()
        .filter(|e| e.kind == "visit" && e.line == Some(line) && e.u("proactive") == Some(1))
        .find(|e| e.day == Some(due))
        .expect("proactive visit on the due day");
    let disposition =
        get(&visit.fields, "disposition").and_then(Value::as_str).expect("disposition code");
    assert_eq!(
        visit.u("found_fault") == Some(1),
        disposition != "none",
        "found_fault must agree with the disposition code"
    );

    // The cutoff decision is recorded for the same week.
    let week = events
        .iter()
        .find(|e| e.kind == "dispatch_week" && e.day == Some(day))
        .expect("dispatch_week event");
    assert_eq!(week.u("population"), Some(LINES as u64), "whole population ranked");
    assert!(week.u("dispatched").expect("dispatched count") >= 1);
    assert!(week.f("cutoff_probability").expect("cutoff") <= 1.0, "cutoff is a probability");
    assert!(
        rank_p >= week.f("cutoff_probability").expect("cutoff"),
        "a dispatched line sits at or above the cutoff"
    );
}

#[test]
fn traced_ranks_follow_the_ranking_order_through_ties() {
    // A reservoir as large as the plant traces every line every week, so
    // the lines that tie on probability are all traced. Each must report
    // its position in the ranking's own order (ties broken by row), like
    // the dispatched head does: within a week the ranks are distinct, the
    // dispatched lines hold exactly 1..=dispatched, and no undispatched
    // line claims a rank inside the budget.
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let buf = nevermind_obs::trace::global();
    buf.reset();
    let policy = buf.policy();
    buf.set_policy(TracePolicy { reservoir_per_week: LINES });
    nevermind_obs::trace::set_enabled(true);
    let outcome = run_proactive_trial(sim_config(), &predictor_config(), WARMUP_WEEKS)
        .expect("trial config is valid");
    let jsonl = buf.to_jsonl();
    nevermind_obs::trace::set_enabled(false);
    buf.set_policy(policy);
    buf.reset();
    assert!(outcome.proactive_dispatches > 0, "the trial must dispatch for this test to bite");
    assert!(jsonl.starts_with("{\"schema\":\"nevermind-trace/v1\","), "header first");
    assert!(jsonl.lines().next().is_some_and(|h| h.contains("\"dropped\":0")), "ring kept all");

    let events = parse_events(&jsonl);
    let mut weeks = 0;
    let mut tied_lines = 0;
    for week in events.iter().filter(|e| e.kind == "dispatch_week") {
        let dispatched = week.u("dispatched").expect("dispatched count");
        let ranks: Vec<(u64, bool, f64)> = events
            .iter()
            .filter(|e| e.kind == "rank" && e.day == week.day)
            .map(|e| {
                (
                    e.u("rank").expect("rank"),
                    e.u("dispatched") == Some(1),
                    e.f("probability").expect("probability"),
                )
            })
            .collect();
        let mut all: Vec<u64> = ranks.iter().map(|r| r.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "day {:?}: every traced line has its own rank", week.day);
        let mut head: Vec<u64> = ranks.iter().filter(|r| r.1).map(|r| r.0).collect();
        head.sort_unstable();
        assert_eq!(head, (1..=dispatched).collect::<Vec<_>>(), "day {:?}", week.day);
        for &(rank, _, p) in ranks.iter().filter(|r| !r.1) {
            assert!(rank > dispatched, "day {:?}: undispatched rank {rank} (P = {p})", week.day);
        }
        let mut probs: Vec<u64> = ranks.iter().map(|r| r.2.to_bits()).collect();
        probs.sort_unstable();
        tied_lines += probs.windows(2).filter(|w| w[0] == w[1]).count();
        weeks += 1;
    }
    assert!(weeks > 0, "the trial must rank weeks");
    assert!(tied_lines > 0, "the trial must produce tied probabilities for this test to bite");
}

/// The locator's evaluation traces each held-out dispatch's combined
/// ranking keyed by that dispatch: one `locate` event per modeled
/// disposition, each carrying the dispatch's line and day, so `explain`
/// can attribute every one.
#[test]
fn locator_evaluation_events_name_their_dispatch() {
    let _guard = GLOBAL_TRACE.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = SimConfig::small(91);
    cfg.n_lines = 3_000;
    cfg.faults_per_line_year = 1.3;
    let data = ExperimentData::simulate(cfg);
    let days = data.config.days;
    let config = LocatorConfig { iterations: 10, min_examples: 10, ..LocatorConfig::default() };
    let locator = TroubleLocator::fit(&data, 30, days / 2, &config).expect("window has dispatches");
    let modeled = locator.modeled_dispositions().len();
    assert!(modeled > 0, "the world must model some disposition");

    let buf = nevermind_obs::trace::global();
    buf.reset();
    nevermind_obs::trace::set_enabled(true);
    let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
    let jsonl = buf.to_jsonl();
    nevermind_obs::trace::set_enabled(false);
    buf.reset();

    let examples = collect_dispatch_examples(&data.output.notes, days / 2, days);
    assert!(!examples.is_empty() && eval.per_example.len() == examples.len());
    let locates: Vec<Ev> =
        parse_events(&jsonl).into_iter().filter(|e| e.kind == "locate").collect();
    assert_eq!(locates.len(), examples.len() * modeled, "one event per dispatch and model");
    for (events, e) in locates.chunks(modeled).zip(&examples) {
        for ev in events {
            let key = (Some(u64::from(e.line.0)), Some(u64::from(e.day)));
            assert_eq!((ev.line, ev.day), key, "{:?}", ev.fields);
        }
    }
}
