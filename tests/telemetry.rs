//! Model-health telemetry contract tests.
//!
//! Two guarantees the monitor must keep, both at full-trial scope:
//!
//! 1. **Observation is free**: running the twin-world trial with telemetry
//!    on produces exactly the same operational outcome (dispatches, hits,
//!    tickets, churn) as running it dark. The monitor only reads the
//!    scoring path; if it perturbed a single ranking the two worlds would
//!    diverge and the outcome counts would differ.
//! 2. **Drift is detected, stability is not flagged**: judged by the
//!    built-in `MODEL_HEALTH_RULES` on the history tick (as `nevermind
//!    trial` runs it), scoring an overprovisioned plant with a
//!    baseline-trained model must end the run in `alert` with a `model/`
//!    alert firing, while the identically-seeded all-baseline trial ends
//!    `healthy` without a single alert ever firing.
//!
//! The tests flip the process-global registry, history and rule-engine
//! state, so they serialise on one mutex (same pattern as
//! `tests/observability.rs`).

use nevermind::pipeline::{run_proactive_trial_with, ExperimentData, SplitSpec, TrialOptions};
use nevermind::predictor::{PredictorConfig, RankedPredictions};
use nevermind::telemetry::{ModelHealthMonitor, TelemetryConfig, MODEL_HEALTH_RULES};
use nevermind::TicketPredictor;
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::SimConfig;
use nevermind_features::encode::BaseEncoder;
use nevermind_features::FeatureStore;
use nevermind_obs::rules::Health;
use std::sync::Mutex;

static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

const SEED: u64 = 0x5EED_CA11;
const LINES: usize = 800;
const DAYS: u32 = 180;
const WARMUP_WEEKS: u32 = 12;

fn sim_config(scenario: &str) -> SimConfig {
    Scenario::parse(scenario).expect("known scenario").config(SEED, LINES, DAYS)
}

fn predictor_config() -> PredictorConfig {
    PredictorConfig {
        iterations: 40,
        budget_fraction: 0.01,
        selection_row_cap: 8_000,
        ..PredictorConfig::default()
    }
}

#[test]
fn telemetry_does_not_perturb_the_trial() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let run = |enabled: bool| {
        nevermind_obs::global().reset();
        nevermind_obs::set_enabled(enabled);
        let result = run_proactive_trial_with(
            sim_config("baseline"),
            &predictor_config(),
            WARMUP_WEEKS,
            &TrialOptions::default(),
        )
        .expect("trial config is valid");
        nevermind_obs::set_enabled(false);
        result
    };

    let dark = run(false);
    let lit = run(true);
    nevermind_obs::global().reset();

    assert!(dark.telemetry.is_none(), "dark trial must not build a monitor");
    let report = lit.telemetry.expect("instrumented trial must report telemetry");
    assert!(report.weeks_observed > 0, "the monitor saw every policy week");

    // Any ranking or dispatch difference would steer the proactive world
    // onto a different trajectory, so equal outcome counts pin the whole
    // weekly decision sequence.
    let (a, b) = (&dark.outcome, &lit.outcome);
    assert_eq!(a.policy_start_day, b.policy_start_day);
    assert_eq!(a.proactive_dispatches, b.proactive_dispatches, "dispatch counts diverged");
    assert_eq!(a.proactive_hits, b.proactive_hits, "dispatch targets diverged");
    assert_eq!(a.proactive_tickets, b.proactive_tickets, "proactive world diverged");
    assert_eq!(a.reactive_tickets, b.reactive_tickets, "reactive twin diverged");
    assert_eq!(a.proactive_churn, b.proactive_churn);
    assert_eq!(a.reactive_churn, b.reactive_churn);
}

#[test]
fn a_label_window_past_the_day_range_never_matures() {
    // Regression: the monitor added `day + horizon_days` in `u32`, which
    // overflowed for a horizon near `u32::MAX`. It now ends each week's
    // label window where the encoder does (`EncoderConfig::label_end`,
    // saturating), so such a window never closes and no week matures.
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    nevermind_obs::global().reset();
    nevermind_obs::set_enabled(true);
    let mut config = predictor_config();
    config.encoder.horizon_days = u32::MAX;
    let result = run_proactive_trial_with(
        sim_config("baseline"),
        &config,
        WARMUP_WEEKS,
        &TrialOptions::default(),
    );
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();

    let report = result
        .expect("trial config is valid")
        .telemetry
        .expect("instrumented trial must report telemetry");
    assert!(report.weeks_observed > 0, "the monitor saw every policy week");
    assert_eq!(report.last_ece, None, "{}", report.summary());
    assert_eq!(report.last_brier, None, "{}", report.summary());
}

#[test]
fn zero_scored_week_is_skipped_not_fatal() {
    // Regression: a week with nothing to score — an empty plant, a horizon
    // tail with no ranked rows — used to panic inside the PSI computation
    // (a distribution with zero mass has no PSI). The monitor must instead
    // count the week as skipped and push no PSI point for it.
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    nevermind_obs::global().reset();
    nevermind_obs::set_enabled(true);

    let data = ExperimentData::simulate(SimConfig::small(0xE0));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let cfg = PredictorConfig {
        iterations: 20,
        selection_iterations: 3,
        n_base: 10,
        n_quadratic: 4,
        n_product: 4,
        selection_row_cap: 4_000,
        ..PredictorConfig::default()
    };
    let (predictor, _) =
        TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
    let tele = TelemetryConfig::default();
    // `n_live_lines = 0`: the monitor will watch an empty population.
    let mut monitor = ModelHealthMonitor::from_training(&predictor, &data, &split, 0, &tele);

    // An empty-population store with the observed day's (empty) frame
    // resident, exactly as the weekly scorer would leave it.
    let day = *split.test_days.first().expect("test window has Saturdays");
    let mut lanes: Vec<usize> = monitor.monitored_columns().to_vec();
    lanes.sort_unstable();
    lanes.dedup();
    let mut store = FeatureStore::new(0, &lanes, predictor.encoder_config());
    let empty = BaseEncoder::new(&[], &[], &[], predictor.encoder_config().clone()).encode(&[day]);
    store.ingest_frame(day, &empty.select_columns(store.cols()));
    let empty_ranking = RankedPredictions::from_scores(Vec::new(), Vec::new(), Vec::new());

    monitor.observe_week(day, &empty_ranking, &store, &[]);

    let reg = nevermind_obs::global();
    let skipped = reg.counter("telemetry/psi_skipped").get();
    // Every monitored feature plus the score distribution had no PSI.
    assert_eq!(skipped, monitor.monitored_columns().len() as u64 + 1);
    let series = reg.snapshot().series;
    assert!(
        !series.keys().any(|k| k.contains("psi")),
        "an empty week is no evidence of drift either way: {:?}",
        series.keys().collect::<Vec<_>>()
    );

    let report = monitor.finish(&[], day);
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();
    assert_eq!(report.weeks_observed, 1, "the skipped week still counts as observed");
    assert!(report.worst_feature.is_none(), "{}", report.summary());
}

#[test]
fn drift_injection_alerts_while_stable_trial_stays_healthy() {
    let _guard = GLOBAL_REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    // Each run judges its series with a fresh engine holding the built-in
    // set, on the history tick, exactly as `nevermind trial` does.
    let run = |live: &str, train: Option<&str>| {
        nevermind_obs::global().reset();
        nevermind_obs::history::global().reset();
        nevermind_obs::set_enabled(true);
        nevermind_obs::history::set_enabled(true);
        let engine = nevermind_obs::rules::install(
            nevermind_obs::rules::parse_rules(MODEL_HEALTH_RULES).expect("built-in set parses"),
        );
        let options =
            TrialOptions { train_config: train.map(sim_config), ..TrialOptions::default() };
        let result =
            run_proactive_trial_with(sim_config(live), &predictor_config(), WARMUP_WEEKS, &options)
                .expect("trial config is valid");
        nevermind_obs::rules::clear();
        nevermind_obs::history::set_enabled(false);
        nevermind_obs::set_enabled(false);
        let (health, firing) = engine.health();
        let log = engine.status_json("");
        (result.telemetry.expect("instrumented trial must report telemetry"), health, firing, log)
    };

    let (stable, stable_health, stable_firing, stable_log) = run("baseline", None);
    let (drifted, drift_health, drift_firing, drift_log) = run("overprovisioned", Some("baseline"));
    nevermind_obs::global().reset();
    nevermind_obs::history::global().reset();

    assert_eq!(
        (stable_health, stable_firing),
        (Health::Healthy, vec![]),
        "stable trial flagged itself: {}",
        stable.summary()
    );
    assert!(
        !stable_log.contains("\"to\":\"firing\""),
        "no alert may ever fire on the stable trial: {stable_log}"
    );

    assert_eq!(
        drift_health,
        Health::Alert,
        "baseline-trained model on an overprovisioned plant went unnoticed: {} {drift_log}",
        drifted.summary()
    );
    assert!(
        drift_firing.iter().any(|name| name.starts_with("model/")),
        "a model-health alert fires on drift: {drift_firing:?}"
    );
    let (name, worst_psi) = drifted.worst_feature.as_ref().expect("weeks were observed");
    assert!(
        *worst_psi > stable.worst_feature.as_ref().map_or(0.0, |(_, p)| *p),
        "drifted worst PSI {worst_psi} ({name}) should exceed the stable trial's"
    );
    assert!(*worst_psi > 0.25, "injected drift should be unmistakable, got {worst_psi}");
}
