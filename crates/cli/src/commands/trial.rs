//! `nevermind trial` — proactive-vs-reactive twin-world comparison, with
//! model-health telemetry judged by the built-in rule set and optional
//! drift injection.

use super::{budget_fraction, iterations, sim_config_from, CliResult, ObsPlane};
use crate::args::Args;
use nevermind::pipeline::{run_proactive_trial_with, TrialOptions};
use nevermind::predictor::PredictorConfig;
use nevermind::telemetry::MODEL_HEALTH_RULES;
use nevermind_dslsim::scenario::Scenario;
use nevermind_features::FeatureStore;
use std::io::Write;

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "scenario",
        "lines",
        "days",
        "seed",
        "shards",
        "warmup-weeks",
        "budget-fraction",
        "iterations",
        "train-scenario",
        "metrics",
        "trace",
        "trace-sample",
        "stop-after-week",
        "store-out",
        "resume-from",
        "obs-listen",
        "profile",
        "rules",
        "history",
    ])?;
    let cfg = sim_config_from(args)?;
    let shards = super::shards(args, 0)?;
    let mut warmup: u32 = args.get_parsed_or("warmup-weeks", 30u32)?;
    // The warm-up must leave room for the policy to run (and the split
    // machinery needs the warm-up window itself to hold a full protocol);
    // on short horizons clamp rather than panic inside the trial.
    let max_warmup = (cfg.days / 7).saturating_sub(1);
    if warmup > max_warmup {
        eprintln!(
            "note: --warmup-weeks {warmup} does not fit the {}-day horizon; using {max_warmup}",
            cfg.days
        );
        warmup = max_warmup;
    }
    let predictor_cfg = PredictorConfig {
        iterations: iterations(args, 120)?,
        budget_fraction: budget_fraction(args)?,
        selection_row_cap: 8_000,
        ..PredictorConfig::default()
    };

    // Drift injection: train the model in a *separate* world simulated from
    // another scenario (same seed/scale/horizon), then score the live one —
    // the telemetry must notice the mismatch.
    let train_config = match args.get("train-scenario") {
        None => None,
        Some(name) => {
            let scenario = Scenario::parse(name)
                .ok_or_else(|| format!("unknown scenario '{name}' (see 'nevermind scenarios')"))?;
            Some(scenario.config(cfg.seed, cfg.n_lines, cfg.days))
        }
    };
    // Checkpoint/resume: `--store-out` keeps every ranked week's feature
    // frame and writes the store to disk; `--resume-from` loads such a
    // store so the trial adopts the checkpointed frames instead of
    // re-encoding them. File IO stays here in the CLI — core only sees
    // bytes.
    let stop_after_week: Option<u32> = match args.get("stop-after-week") {
        None => None,
        Some(_) => Some(args.get_parsed_or("stop-after-week", 0u32)?),
    };
    let store_out = args.get("store-out").map(str::to_owned);
    let resume_store = match args.get("resume-from") {
        None => None,
        Some(path) => {
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read store '{path}': {e}"))?;
            Some(
                FeatureStore::import(&bytes)
                    .map_err(|e| format!("cannot load store '{path}': {e}"))?,
            )
        }
    };
    let options = TrialOptions {
        train_config,
        shards,
        stop_after_week,
        resume_store,
        keep_store: store_out.is_some(),
    };

    // The live observability plane (`--obs-listen` / `--profile`) comes up
    // before the run and is torn down after the outcome prints, so a
    // scraper can watch the whole trial. The metrics-history layer starts
    // first too, so the earliest simulated day already lands in the ring;
    // it is on by default here, judging the model-health series with the
    // built-in rules unless `--rules` replaces them.
    super::setup_history(args, Some(MODEL_HEALTH_RULES))?;
    let plane = ObsPlane::start(args)?;

    eprintln!(
        "running twin worlds: {} lines, {} days, policy starts week {warmup}, {} ...",
        cfg.n_lines,
        cfg.days,
        super::shards_note(shards)
    );
    let span = nevermind_obs::span!("cli/trial");
    let result = run_proactive_trial_with(cfg, &predictor_cfg, warmup, &options)?;
    eprintln!("trial finished in {:.1}s", span.elapsed().as_secs_f64());
    drop(span);
    // The verdict depends on the installed rules, so it stays off stdout:
    // the printed outcome is the same whatever rules judged it.
    let (health, firing) = nevermind_obs::rules::health();
    let firing =
        if firing.is_empty() { String::new() } else { format!(" (firing: {})", firing.join(", ")) };
    eprintln!("health at end of run: {}{firing}", health.name());

    if let Some(path) = &store_out {
        let store = result
            .store
            .as_ref()
            .ok_or_else(|| "trial did not return a store despite --store-out".to_string())?;
        let bytes = store.export();
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write store '{path}': {e}"))?;
        eprintln!(
            "wrote {} ranked-week frame{} ({} bytes) to {path}",
            store.frames().len(),
            if store.frames().len() == 1 { "" } else { "s" },
            bytes.len()
        );
    }

    let outcome = &result.outcome;
    let mut out = std::io::stdout().lock();
    writeln!(out, "policy active from day {}", outcome.policy_start_day)?;
    writeln!(out, "reactive twin : {} customer-edge tickets", outcome.reactive_tickets)?;
    writeln!(out, "proactive twin: {} customer-edge tickets", outcome.proactive_tickets)?;
    writeln!(out, "ticket reduction: {:.1}%", 100.0 * outcome.ticket_reduction())?;
    // No dispatch → the precision quotient is undefined; print "n/a"
    // rather than the NaN sentinel (`NaN%` was a long-standing eyesore).
    let precision = match outcome.dispatch_precision_checked() {
        Some(p) => format!("{:.1}% precision", 100.0 * p),
        None => "precision n/a".to_string(),
    };
    writeln!(
        out,
        "proactive dispatches: {} ({} found a fault; {precision})",
        outcome.proactive_dispatches, outcome.proactive_hits,
    )?;
    writeln!(
        out,
        "churned customers: {} reactive vs {} proactive",
        outcome.reactive_churn, outcome.proactive_churn
    )?;
    if let Some(report) = &result.telemetry {
        writeln!(out, "{}", report.summary())?;
    }
    plane.finish()
}
