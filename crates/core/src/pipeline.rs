//! Experiment plumbing: simulated datasets, paper-style time splits, and
//! the operational proactive loop.
//!
//! The paper's timeline (Sec. 5): measurements from 01/01–07/31 are history
//! for the time-series features; 08/01–09/30 is training; four contiguous
//! weeks from 10/31 are the test period. [`SplitSpec::paper_like`] carves
//! the simulated horizon with the same proportions and ordering — training
//! strictly precedes selection evaluation, which strictly precedes the test
//! window.

use crate::error::PipelineError;
use nevermind_dslsim::topology::Topology;
use nevermind_dslsim::{LineId, SimConfig, SimOutput, World, N_DISPOSITIONS};
use nevermind_features::encode::EncoderConfig;
use nevermind_features::BaseEncoder;
use serde::{Deserialize, Serialize};

/// A simulated dataset plus the plant it came from.
///
/// Serializable as one JSON document, which is how the CLI persists a
/// dataset between `simulate`, `train` and `rank` invocations.
#[derive(Serialize, Deserialize)]
pub struct ExperimentData {
    /// Simulator configuration used.
    pub config: SimConfig,
    /// The static plant (lines, DSLAMs, BRAS hierarchy).
    pub topology: Topology,
    /// The year of operational logs.
    pub output: SimOutput,
}

impl ExperimentData {
    /// Simulates a full reactive horizon (the paper's offline setting).
    pub fn simulate(config: SimConfig) -> Self {
        Self::simulate_sharded(config, 1)
    }

    /// [`ExperimentData::simulate`] stepping the plant `shards` DSLAM-subtree
    /// shards at a time (`0` = one per available core). Bit-identical to
    /// the serial run for any shard count; pinned by the dslsim
    /// equivalence tests.
    pub fn simulate_sharded(config: SimConfig, shards: usize) -> Self {
        let world = World::generate(config.clone()).with_shards(shards);
        let topology = world.topology().clone();
        let output = world.run();
        Self { config, topology, output }
    }

    /// Checks that every topology line's id is its position in
    /// [`ExperimentData::topology`], that the logs cover exactly the
    /// configured horizon and every measurement and ticket falls inside it,
    /// that every measurement, ticket, disposition note, IVR call and churn
    /// event names one of its lines, and that every note's disposition is
    /// one of the [`N_DISPOSITIONS`] codes. The encoder and the locator
    /// index per-line and per-disposition tables by these ids, and training
    /// and ranking pick their Saturdays from the horizon, so a dataset read
    /// from disk must pass this before it is used.
    ///
    /// # Errors
    /// Returns [`PipelineError::InvalidDataset`] naming the first topology
    /// line whose id differs from its position, or else a horizon that
    /// differs from the logs', or else the first record whose line id, day
    /// or disposition code is out of range.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let lines = &self.topology.lines;
        if let Some((i, line)) = lines.iter().enumerate().find(|(i, l)| l.id.index() != *i) {
            return Err(PipelineError::InvalidDataset {
                detail: format!(
                    "topology line {i} has id {}, but a line's id must be its position",
                    line.id.index()
                ),
            });
        }
        let (out, days) = (&self.output, self.config.days);
        if out.days != days {
            return Err(PipelineError::InvalidDataset {
                detail: format!("the logs cover {} days, but config.days is {days}", out.days),
            });
        }
        let n_lines = lines.len();
        let line = |l: LineId| {
            (l.index() >= n_lines)
                .then(|| format!("names line {}, but the topology has {n_lines} lines", l.index()))
        };
        let day =
            |d: u32| (d >= days).then(|| format!("is on day {d}, past the {days}-day horizon"));
        check_each("measurement", &out.measurements, |m| line(m.line).or_else(|| day(m.day)))?;
        check_each("ticket", &out.tickets, |t| line(t.line).or_else(|| day(t.day)))?;
        check_each("disposition note", &out.notes, |n| {
            line(n.line).or_else(|| {
                n.disposition.filter(|d| usize::from(d.0) >= N_DISPOSITIONS).map(|d| {
                    format!(
                        "records disposition {}, but there are {N_DISPOSITIONS} disposition codes",
                        d.0
                    )
                })
            })
        })?;
        check_each("IVR call", &out.ivr_calls, |c| line(c.line))?;
        check_each("churn event", &out.churn_events, |c| line(c.line))
    }

    /// Builds the feature encoder over these logs.
    pub fn encoder(&self, encoder_config: EncoderConfig) -> BaseEncoder<'_> {
        BaseEncoder::new(
            &self.topology.lines,
            &self.output.measurements,
            &self.output.tickets,
            encoder_config,
        )
    }

    /// All Saturdays inside the horizon, ascending.
    pub fn saturdays(&self) -> Vec<u32> {
        (0..self.config.days).filter(|d| d % 7 == 6).collect()
    }

    /// Saturdays whose 4-week label window fits inside the horizon.
    pub fn label_complete_saturdays(&self, horizon_days: u32) -> Vec<u32> {
        let days = self.config.days;
        self.saturdays().into_iter().filter(|&d| d.saturating_add(horizon_days) <= days).collect()
    }
}

/// The first of `records` that `fault` finds fault with, as an error
/// reading "`{log} {index} {fault}`".
fn check_each<T>(
    log: &str,
    records: &[T],
    fault: impl Fn(&T) -> Option<String>,
) -> Result<(), PipelineError> {
    match records.iter().enumerate().find_map(|(i, r)| fault(r).map(|f| (i, f))) {
        Some((i, f)) => Err(PipelineError::InvalidDataset { detail: format!("{log} {i} {f}") }),
        None => Ok(()),
    }
}

/// The three time windows of the paper's evaluation protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitSpec {
    /// Training Saturdays (the paper's 08/01–09/30, nine Saturdays).
    pub train_days: Vec<u32>,
    /// Held-out Saturdays used to *evaluate single-feature models* during
    /// feature selection (selection must reward generalization).
    pub selection_eval_days: Vec<u32>,
    /// Final test Saturdays (the paper's four contiguous weeks).
    pub test_days: Vec<u32>,
}

impl SplitSpec {
    /// Paper-proportioned split: the last four label-complete Saturdays
    /// test; four Saturdays whose label windows end before the test period
    /// drive selection; the nine Saturdays before those train. Earlier
    /// weeks remain as history for the time-series features.
    ///
    /// # Errors
    /// Returns [`PipelineError::SplitTooShort`] if the horizon cannot fit
    /// the protocol — e.g. a truncated week of measurements whose last
    /// label window never closes.
    pub fn paper_like(data: &ExperimentData) -> Result<Self, PipelineError> {
        Self::with_horizon(data, 28)
    }

    /// [`SplitSpec::paper_like`] with an explicit label horizon.
    ///
    /// # Errors
    /// Returns [`PipelineError::SplitTooShort`] if the horizon is too
    /// short for any of the three windows.
    pub fn with_horizon(data: &ExperimentData, horizon_days: u32) -> Result<Self, PipelineError> {
        let usable = data.label_complete_saturdays(horizon_days);
        if usable.len() < 2 {
            return Err(PipelineError::SplitTooShort {
                window: "test",
                detail: format!("only {} label-complete Saturdays", usable.len()),
            });
        }
        let n_test = 4.min(usable.len() / 4).max(1);
        let test_days: Vec<u32> = usable[usable.len() - n_test..].to_vec();
        let test_start = test_days[0];

        // Selection-eval windows must close before testing begins.
        let eval_candidates: Vec<u32> = usable
            .iter()
            .copied()
            .filter(|&d| d.saturating_add(horizon_days) <= test_start)
            .collect();
        if eval_candidates.is_empty() {
            return Err(PipelineError::SplitTooShort {
                window: "selection-eval",
                detail: format!("no label window closes before test day {test_start}"),
            });
        }
        let n_eval = 4.min(eval_candidates.len() / 2).max(1);
        let selection_eval_days: Vec<u32> =
            eval_candidates[eval_candidates.len() - n_eval..].to_vec();
        let eval_start = selection_eval_days[0];

        let train_candidates: Vec<u32> =
            eval_candidates.iter().copied().filter(|&d| d < eval_start).collect();
        if train_candidates.is_empty() {
            return Err(PipelineError::SplitTooShort {
                window: "training",
                detail: format!("no Saturday left before selection-eval day {eval_start}"),
            });
        }
        let n_train = 9.min(train_candidates.len());
        let train_days: Vec<u32> = train_candidates[train_candidates.len() - n_train..].to_vec();

        Ok(Self { train_days, selection_eval_days, test_days })
    }
}

/// Outcome of a proactive-vs-reactive operational trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProactiveOutcome {
    /// Day the proactive policy switched on.
    pub policy_start_day: u32,
    /// Customer-edge tickets after the policy start, reactive baseline.
    pub reactive_tickets: usize,
    /// Customer-edge tickets after the policy start, proactive run.
    pub proactive_tickets: usize,
    /// Proactive dispatches sent.
    pub proactive_dispatches: usize,
    /// Proactive dispatches that found (and fixed) a real fault.
    pub proactive_hits: usize,
    /// Customers lost to churn after the policy start, reactive baseline.
    pub reactive_churn: usize,
    /// Customers lost to churn after the policy start, proactive run.
    pub proactive_churn: usize,
}

impl ProactiveOutcome {
    /// Fractional reduction in customer-edge tickets.
    pub fn ticket_reduction(&self) -> f64 {
        if self.reactive_tickets == 0 {
            return 0.0;
        }
        1.0 - self.proactive_tickets as f64 / self.reactive_tickets as f64
    }

    /// Fraction of proactive dispatches that found a real fault, or `None`
    /// when no dispatch was sent: the quotient is undefined (and JSON
    /// cannot represent NaN), so display code prints `n/a`.
    pub fn dispatch_precision_checked(&self) -> Option<f64> {
        (self.proactive_dispatches > 0)
            .then(|| self.proactive_hits as f64 / self.proactive_dispatches as f64)
    }
}

/// The gauges [`run_proactive_trial_with`] sets to the process's peak
/// resident set size (`VmHWM`, MB) at the end of each of its phases, in
/// phase order: the warm-up, the reactive twin, training (the predictor
/// and the health monitor's reference) and the policy loop. Set only
/// while the metrics registry records; like span timings they vary from
/// run to run, so no output, trace, store or history series reads them.
pub const PEAK_RSS_GAUGES: [&str; 4] = [
    "trial/warmup/peak_rss_mb",
    "trial/baseline_world/peak_rss_mb",
    "trial/train/peak_rss_mb",
    "trial/policy_loop/peak_rss_mb",
];

/// Optional behaviors of [`run_proactive_trial_with`] beyond the paper's
/// basic twin-world loop.
#[derive(Debug, Clone, Default)]
pub struct TrialOptions {
    /// Simulator configuration for a *separate* training world. `None`
    /// (the default, and the paper's protocol) trains on the live world's
    /// own warm-up logs. `Some` generates an independent world from this
    /// configuration, steps it through the same warm-up window, and trains
    /// there — the drift-injection setup: a model trained on (say) the
    /// baseline plant scoring an overprovisioned or storm-season live
    /// world, which the model-health telemetry must flag.
    pub train_config: Option<SimConfig>,
    /// Part count for the simulated worlds and every weekly stage — the
    /// one `nevermind_obs::par` rule: `0` (the default) means one part per
    /// available core, `n` steps the plant `n` DSLAM-subtree shards at a
    /// time and spreads ingest, encode, scoring and top-`B` over `n`
    /// parts. Training spreads its stump search and feature selection
    /// over every core whatever this says. Outcomes are bit-identical for
    /// every setting — sharding changes wall time only.
    pub shards: usize,
    /// Stop the trial after ranking calendar week `w` (the Saturday `7w +
    /// 6`) instead of running the full horizon — the checkpointing half of
    /// mid-horizon resume. `None` runs to the end. Both simulated worlds
    /// stop at the same frontier, so the partial outcome is still a fair
    /// proactive-vs-reactive comparison over the truncated window.
    pub stop_after_week: Option<u32>,
    /// Frames from a previous (stopped) trial's store. Each ranked
    /// Saturday whose frame is present is *adopted* instead of re-encoded
    /// — reproducing the checkpointed run bit-for-bit — and later weeks
    /// fall back to encoding. The store must match the resumed trial's
    /// encoder configuration, population and lane set
    /// ([`PipelineError::StoreMismatch`] otherwise).
    pub resume_store: Option<nevermind_features::FeatureStore>,
    /// Retain every ranked week's frame and return the store in
    /// [`TrialResult::store`] (for `--store-out` export). The default
    /// keeps only the latest frame resident.
    pub keep_store: bool,
}

/// What [`run_proactive_trial_with`] hands back.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The proactive-vs-reactive outcome.
    pub outcome: ProactiveOutcome,
    /// Model-health summary; `None` when observability was disabled (the
    /// full per-week series live in the global metrics registry).
    pub telemetry: Option<crate::telemetry::TelemetryReport>,
    /// Every ranked week's feature frame, when [`TrialOptions::keep_store`]
    /// asked for it — export with `FeatureStore::export` to checkpoint.
    pub store: Option<nevermind_features::FeatureStore>,
}

/// Runs the operational NEVERMIND loop against a twin reactive baseline.
///
/// The twins are one world until the policy starts: the warm-up is
/// stepped once, and the reactive baseline is a
/// [`World::counterfactual`] forked from it, so the plant, customers,
/// faults and weather are identical and the only difference is the weekly
/// proactive dispatches. The predictor is trained once, on the logs
/// available at the end of the warm-up window, then applied every
/// following Saturday.
///
/// # Errors
/// Returns [`PipelineError`] when the warm-up exceeds the horizon or the
/// warm-up logs cannot support training (split or calibration failure).
pub fn run_proactive_trial(
    sim_config: SimConfig,
    predictor_config: &crate::predictor::PredictorConfig,
    warmup_weeks: u32,
) -> Result<ProactiveOutcome, PipelineError> {
    run_proactive_trial_with(sim_config, predictor_config, warmup_weeks, &TrialOptions::default())
        .map(|r| r.outcome)
}

/// [`run_proactive_trial`] with [`TrialOptions`]: an optional separate
/// training world (drift injection) and model-health telemetry. While
/// observability is enabled, a [`crate::telemetry::ModelHealthMonitor`]
/// snapshots the training reference at fit time and compares every scored
/// week against it; the monitor only reads the scoring path, so rankings
/// and dispatches are bit-identical with telemetry on or off.
///
/// # Errors
/// Returns [`PipelineError`] when the warm-up exceeds the horizon or the
/// warm-up logs cannot support training (split or calibration failure).
pub fn run_proactive_trial_with(
    sim_config: SimConfig,
    predictor_config: &crate::predictor::PredictorConfig,
    warmup_weeks: u32,
    options: &TrialOptions,
) -> Result<TrialResult, PipelineError> {
    // Named to read cleanly under the CLI's `cli/trial` wrapper span
    // (`cli/trial/proactive_trial/...`) and standalone alike.
    let _trial_span = nevermind_obs::span!("proactive_trial");
    // Saturating: a warm-up whose first policy day overflows `u32` starts
    // past every horizon.
    let policy_start_day = warmup_weeks.saturating_mul(7);
    if policy_start_day >= sim_config.days {
        return Err(PipelineError::WarmupExceedsHorizon {
            policy_start_day,
            days: sim_config.days,
        });
    }
    // A stop-after-week checkpoint truncates both worlds at the day after
    // its Saturday; `None`, or a week at or past the horizon, runs the
    // configured horizon. The simulator config is untouched either way, so
    // a resumed trial regenerates the *identical* world and the stored
    // frames line up bit-for-bit.
    let end_day = match options.stop_after_week {
        Some(w) => sim_config.days.min(w.saturating_add(1).saturating_mul(7)),
        None => sim_config.days,
    };

    // Warm-up. Nothing is dispatched proactively before the policy starts,
    // so up to `policy_start_day` the live world and its reactive twin are
    // one world: it is stepped once, and the twin forks from it below.
    let mut world = World::generate(sim_config.clone()).with_shards(options.shards);
    {
        let _s = nevermind_obs::span!("warmup");
        while world.day() < policy_start_day {
            world.step_day();
        }
    }
    nevermind_obs::mem::gauge_peak_rss(PEAK_RSS_GAUGES[0]);

    // Reactive baseline. The twin is a counterfactual: its technician
    // visits answer to no rank or dispatch decision an operator could ask
    // about, and at scale they would flood the bounded trace ring before
    // the proactive world steps on — so decision tracing is suspended for
    // its lifetime (deterministically: plain flag save/restore). It runs no
    // line tests and starts from empty logs: the trial reads only the
    // tickets and churn it logs after the fork.
    let baseline = {
        let _s = nevermind_obs::span!("baseline_world");
        let tracing = nevermind_obs::trace::enabled();
        nevermind_obs::trace::set_enabled(false);
        // Likewise the metrics-history ring: the twin's days would otherwise
        // interleave with (and displace) the live world's windows.
        let history = nevermind_obs::history::enabled();
        nevermind_obs::history::set_enabled(false);
        let mut baseline_world = world.counterfactual();
        while baseline_world.day() < end_day {
            baseline_world.step_day();
        }
        let out = baseline_world.into_output();
        nevermind_obs::history::set_enabled(history);
        nevermind_obs::trace::set_enabled(tracing);
        out
    };
    // Every record of the twin is from the policy window.
    let reactive_tickets = baseline.customer_edge_tickets().count();
    let reactive_churn = baseline.churn_events.len();
    // Those two counts are all the trial needs of the twin: free its logs
    // before training.
    drop(baseline);
    nevermind_obs::mem::gauge_peak_rss(PEAK_RSS_GAUGES[1]);

    // Train on warm-up logs: the live world's own (paper protocol), or a
    // separately simulated world's (drift injection). The live world lends
    // its logs rather than copying them, and gets them back before the
    // policy loop steps it: training holds one copy of its data.
    let train_data = match &options.train_config {
        None => ExperimentData {
            config: sim_config.clone(),
            topology: world.topology().clone(),
            output: world.lend_output(),
        },
        Some(train_cfg) => {
            let _s = nevermind_obs::span!("train_world");
            let mut train_cfg = train_cfg.clone();
            // The training world only needs to exist through the warm-up.
            train_cfg.days = train_cfg.days.min(sim_config.days);
            // Like the baseline: a drift-injection world's visits are not
            // part of the live policy's story, so they are not traced.
            let tracing = nevermind_obs::trace::enabled();
            nevermind_obs::trace::set_enabled(false);
            let history = nevermind_obs::history::enabled();
            nevermind_obs::history::set_enabled(false);
            let mut train_world = World::generate(train_cfg.clone()).with_shards(options.shards);
            while train_world.day() < policy_start_day {
                train_world.step_day();
            }
            nevermind_obs::history::set_enabled(history);
            nevermind_obs::trace::set_enabled(tracing);
            // The world is done: move its logs rather than copy them.
            let topology = train_world.topology().clone();
            ExperimentData { config: train_cfg, topology, output: train_world.into_output() }
        }
    };
    let mut train_for_split = train_data;
    // The split machinery needs the horizon to reflect data actually seen.
    train_for_split.config.days = policy_start_day;
    let split = SplitSpec::paper_like(&train_for_split)?;
    let (predictor, _) = {
        let _s = nevermind_obs::span!("train");
        crate::predictor::TicketPredictor::fit(&train_for_split, &split, predictor_config)?
    };

    // The model-health monitor runs only while `nevermind_obs::enabled` —
    // with recording off the trial is telemetry-free (and bit-identical
    // either way).
    let telemetry = crate::telemetry::TelemetryConfig::default();
    let mut monitor = nevermind_obs::enabled().then(|| {
        crate::telemetry::ModelHealthMonitor::from_training(
            &predictor,
            &train_for_split,
            &split,
            world.topology().lines.len(),
            &telemetry,
        )
    });
    // Training is done with its logs: the live world takes back the ones
    // it lent; a drift-injection world's go.
    match options.train_config {
        None => world.return_output(train_for_split.output),
        Some(_) => drop(train_for_split),
    }
    nevermind_obs::mem::gauge_peak_rss(PEAK_RSS_GAUGES[2]);

    // The incremental weekly scoring engine: rolling encoder state fed only
    // each week's fresh log events, compiled parallel stump evaluation, and
    // partial top-budget selection — bit-identical to ranking from scratch
    // with `predictor.rank`, without the weekly clone of the growing logs.
    let lines = world.topology().lines.clone();
    let mut scorer = crate::scoring::WeeklyScorer::new(&predictor, &lines);
    scorer.set_shards(options.shards);
    // The health monitor's watched columns ride in the weekly store frames
    // (one lane each) so it can bin them zero-copy. Tracked whether or not
    // observability is on: the lane set — and any exported store bytes —
    // must be a function of the configuration alone.
    let monitored: Vec<usize> =
        predictor.selected_base().iter().take(telemetry.max_features).copied().collect();
    scorer.track_columns(&monitored);
    if options.keep_store {
        scorer.set_retention(nevermind_features::Retention::All);
    }
    if let Some(resume) = &options.resume_store {
        if !resume.matches_config(predictor.encoder_config()) {
            return Err(PipelineError::StoreMismatch {
                detail: "checkpoint was written under a different encoder configuration".into(),
            });
        }
        if resume.n_lines() != lines.len() {
            return Err(PipelineError::StoreMismatch {
                detail: format!(
                    "checkpoint covers {} lines, this trial has {}",
                    resume.n_lines(),
                    lines.len()
                ),
            });
        }
        if resume.cols() != scorer.store().cols() {
            return Err(PipelineError::StoreMismatch {
                detail:
                    "checkpoint tracks a different lane set (model or telemetry sizing changed)"
                        .into(),
            });
        }
        for frame in resume.clone().into_frames() {
            scorer.preload_frame(frame);
        }
    }
    let budget = predictor_config.budget(lines.len());
    let mut tickets_ingested = 0;
    let _policy_span = nevermind_obs::span!("policy_loop");
    while world.day() < end_day {
        world.step_day();
        let just_finished = world.day() - 1;
        if just_finished % 7 == 6 {
            // Rank on everything measured so far, dispatch the top budget.
            // The stopwatch is inert (no clock read) while observability is
            // off, so timing can never perturb the model path.
            let week_timer = nevermind_obs::Stopwatch::start();
            let ranking = {
                // The new tests move out of the live world into the scorer's
                // rolling state; the tickets stay, for the monitor and the
                // outcome.
                let tests = world.take_measurements();
                let tickets = &world.output().tickets;
                scorer.ingest(&tests, &tickets[tickets_ingested..]);
                tickets_ingested = tickets.len();
                scorer.rank_week(just_finished)
            };
            let to_dispatch: Vec<_> = ranking
                .top_rows_sharded(budget, options.shards)
                .into_iter()
                .map(|(key, _, _)| key.line)
                .collect();
            nevermind_obs::counter_add!("weekly/lines_dispatched", to_dispatch.len());
            if let Some(rank_ms) = week_timer.elapsed_ms() {
                // Per-week trajectory: how long each Saturday re-rank took
                // and how many trucks it sent, keyed by the finished day.
                let reg = nevermind_obs::global();
                reg.series("trial/week_rank_ms").push(f64::from(just_finished), rank_ms);
                reg.series("trial/week_dispatches")
                    .push(f64::from(just_finished), to_dispatch.len() as f64);
            }
            if let Some(mon) = monitor.as_mut() {
                // The monitor bins its watched lanes straight out of the
                // week's store frame — the same memory the ranking was
                // scored from; it never feeds back into the ranking.
                mon.observe_week(just_finished, &ranking, scorer.store(), &world.output().tickets);
            }
            // Decision provenance: the week's cutoff decision plus per-line
            // stump/calibration/rank chains for the dispatched head and a
            // sampled reservoir. Reads the ranking; never changes it.
            crate::provenance::emit_week_trace(
                &scorer,
                &predictor,
                &ranking,
                budget,
                just_finished,
            );
            for line in to_dispatch {
                world.schedule_proactive_dispatch(line, 2);
            }
        }
    }
    drop(_policy_span);
    nevermind_obs::mem::gauge_peak_rss(PEAK_RSS_GAUGES[3]);

    let telemetry = monitor.map(|m| m.finish(&world.output().tickets, end_day.saturating_sub(1)));
    let store = options.keep_store.then(|| scorer.into_store());

    let out = world.into_output();
    let proactive_tickets =
        out.customer_edge_tickets().filter(|t| t.day >= policy_start_day).count();
    let proactive_notes: Vec<_> = out.notes.iter().filter(|n| n.proactive).collect();
    let proactive_dispatches = proactive_notes.len();
    let proactive_hits = proactive_notes.iter().filter(|n| n.disposition.is_some()).count();
    let proactive_churn = out.churn_events.iter().filter(|c| c.day >= policy_start_day).count();

    Ok(TrialResult {
        outcome: ProactiveOutcome {
            policy_start_day,
            reactive_tickets,
            proactive_tickets,
            proactive_dispatches,
            proactive_hits,
            reactive_churn,
            proactive_churn,
        },
        telemetry,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_data() -> ExperimentData {
        ExperimentData::simulate(SimConfig::small(31))
    }

    #[test]
    fn split_windows_are_ordered_and_disjoint() {
        let data = small_data();
        let split = SplitSpec::paper_like(&data).expect("horizon fits");
        assert!(!split.train_days.is_empty());
        assert!(!split.selection_eval_days.is_empty());
        assert!(!split.test_days.is_empty());
        let last_train = *split.train_days.last().expect("non-empty");
        let first_eval = split.selection_eval_days[0];
        let last_eval = *split.selection_eval_days.last().expect("non-empty");
        let first_test = split.test_days[0];
        assert!(last_train < first_eval, "training must precede selection eval");
        assert!(last_eval + 28 <= first_test, "eval labels must close before testing");
    }

    #[test]
    fn split_days_are_saturdays_with_complete_labels() {
        let data = small_data();
        let split = SplitSpec::paper_like(&data).expect("horizon fits");
        for &d in split.train_days.iter().chain(&split.selection_eval_days).chain(&split.test_days)
        {
            assert_eq!(d % 7, 6, "day {d} not a Saturday");
            assert!(d + 28 <= data.config.days, "label window of {d} is truncated");
        }
    }

    #[test]
    fn a_horizon_past_the_day_range_leaves_no_test_window() {
        // A label window that ends past the last `u32` day never closes:
        // the window end saturates instead of overflowing.
        let data = small_data();
        assert!(data.label_complete_saturdays(u32::MAX).is_empty());
        let split = SplitSpec::with_horizon(&data, u32::MAX);
        assert!(
            matches!(split, Err(PipelineError::SplitTooShort { window: "test", .. })),
            "{split:?}"
        );
    }

    #[test]
    fn full_default_horizon_gets_paper_sized_windows() {
        // Default 420-day horizon should afford the full 9/4/4 protocol.
        let data = ExperimentData {
            config: SimConfig::default(),
            topology: Topology::generate(&SimConfig::default(), 1),
            output: SimOutput {
                measurements: vec![],
                tickets: vec![],
                notes: vec![],
                outage_events: vec![],
                traffic: nevermind_dslsim::traffic::TrafficTable::new(vec![], 420),
                ivr_calls: vec![],
                churn_events: vec![],
                days: 420,
            },
        };
        let split = SplitSpec::paper_like(&data).expect("horizon fits");
        assert_eq!(split.train_days.len(), 9);
        assert_eq!(split.selection_eval_days.len(), 4);
        assert_eq!(split.test_days.len(), 4);
    }

    #[test]
    fn validate_names_the_first_out_of_range_line() {
        let data = small_data();
        assert_eq!(data.validate(), Ok(()));
        let n = data.topology.lines.len();
        let bad = LineId(n as u32);
        let rejects = |data: &ExperimentData, needle: &str| match data.validate() {
            Err(PipelineError::InvalidDataset { detail }) => {
                assert!(detail.contains(needle), "{detail}");
                assert!(detail.contains(&format!("names line {n},")), "{detail}");
            }
            other => panic!("expected InvalidDataset for {needle}, got {other:?}"),
        };

        let mut d = small_data();
        d.output.measurements[3].line = bad;
        rejects(&d, "measurement 3 ");
        let mut d = small_data();
        d.output.tickets[0].line = bad;
        rejects(&d, "ticket 0 ");
        let mut d = small_data();
        let mut note = d.output.notes.first().cloned().expect("small world dispatches");
        note.line = bad;
        d.output.notes.push(note);
        rejects(&d, "disposition note");
        let mut d = small_data();
        d.output.ivr_calls.push(nevermind_dslsim::world::IvrCall { line: bad, day: 0 });
        rejects(&d, "IVR call");
        let mut d = small_data();
        d.output.churn_events.push(nevermind_dslsim::world::ChurnEvent { line: bad, day: 0 });
        rejects(&d, "churn event");
    }

    #[test]
    fn validate_names_the_first_line_whose_id_is_not_its_position() {
        let mut d = small_data();
        // A duplicate id: line 4 would be encoded twice and line 5 never.
        d.topology.lines[5].id = LineId(4);
        d.topology.lines[9].id = LineId(99_999);
        let expected = "topology line 5 has id 4, but a line's id must be its position";
        assert_eq!(d.validate(), Err(PipelineError::InvalidDataset { detail: expected.into() }));
        d.topology.lines[5].id = LineId(5);
        match d.validate() {
            Err(PipelineError::InvalidDataset { detail }) => {
                assert!(detail.starts_with("topology line 9 has id 99999,"), "{detail}")
            }
            other => panic!("expected InvalidDataset, got {other:?}"),
        }
        d.topology.lines[9].id = LineId(9);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_first_out_of_range_disposition() {
        let mut d = small_data();
        let i = d.output.notes.iter().position(|n| n.disposition.is_some()).expect("a found fault");
        for code in [N_DISPOSITIONS as u8, 200] {
            d.output.notes[i].disposition = Some(nevermind_dslsim::DispositionId(code));
            match d.validate() {
                Err(PipelineError::InvalidDataset { detail }) => assert_eq!(
                    detail,
                    format!(
                        "disposition note {i} records disposition {code}, \
                         but there are {N_DISPOSITIONS} disposition codes"
                    )
                ),
                other => panic!("expected InvalidDataset for code {code}, got {other:?}"),
            }
        }
        d.output.notes[i].disposition = Some(nevermind_dslsim::DispositionId(0));
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn validate_holds_the_logs_to_the_configured_horizon() {
        let data = small_data();
        let days = data.config.days;
        let expect = |d: &ExperimentData, detail: String| {
            assert_eq!(d.validate(), Err(PipelineError::InvalidDataset { detail }));
        };

        let mut d = small_data();
        d.config.days = u32::MAX;
        expect(&d, format!("the logs cover {days} days, but config.days is {}", u32::MAX));

        let mut d = small_data();
        d.output.measurements[7].day = days;
        expect(&d, format!("measurement 7 is on day {days}, past the {days}-day horizon"));
        d.output.measurements[7].day = days - 1;
        assert_eq!(d.validate(), Ok(()));

        let mut d = small_data();
        d.output.tickets[2].day = days;
        expect(&d, format!("ticket 2 is on day {days}, past the {days}-day horizon"));
    }

    #[test]
    fn saturday_enumeration() {
        let data = small_data();
        let sats = data.saturdays();
        assert!(sats.iter().all(|d| d % 7 == 6));
        // Exactly the days d < horizon with d % 7 == 6: one per started
        // week that reaches its seventh day, i.e. floor(days / 7).
        assert_eq!(sats.len(), (data.config.days / 7) as usize);
        assert!(sats.windows(2).all(|w| w[1] == w[0] + 7), "consecutive Saturdays, ascending");
        assert_eq!(sats.first().copied(), Some(6));
        let usable = data.label_complete_saturdays(28);
        assert!(usable.len() < sats.len());
    }

    #[test]
    fn proactive_outcome_math() {
        let outcome = ProactiveOutcome {
            policy_start_day: 100,
            reactive_tickets: 200,
            proactive_tickets: 150,
            proactive_dispatches: 80,
            proactive_hits: 40,
            reactive_churn: 20,
            proactive_churn: 12,
        };
        assert!((outcome.ticket_reduction() - 0.25).abs() < 1e-12);
        assert_eq!(outcome.dispatch_precision_checked(), Some(0.5));

        let degenerate = ProactiveOutcome {
            policy_start_day: 0,
            reactive_tickets: 0,
            proactive_tickets: 0,
            proactive_dispatches: 0,
            proactive_hits: 0,
            reactive_churn: 0,
            proactive_churn: 0,
        };
        assert_eq!(degenerate.ticket_reduction(), 0.0);
        assert_eq!(degenerate.dispatch_precision_checked(), None);
    }

    #[test]
    fn split_rejects_tiny_horizons() {
        // A malformed (truncated) week of measurements: the horizon ends
        // before enough label windows close. This must surface as an error
        // the weekly loop can log and skip — never a panic mid-dispatch.
        let mut cfg = SimConfig::small(1);
        cfg.days = 60;
        let data = ExperimentData {
            config: cfg.clone(),
            topology: Topology::generate(&cfg, 1),
            output: SimOutput {
                measurements: vec![],
                tickets: vec![],
                notes: vec![],
                outage_events: vec![],
                traffic: nevermind_dslsim::traffic::TrafficTable::new(vec![], 60),
                ivr_calls: vec![],
                churn_events: vec![],
                days: 60,
            },
        };
        let err = SplitSpec::paper_like(&data).expect_err("60 days cannot fit the protocol");
        assert!(matches!(err, PipelineError::SplitTooShort { .. }), "unexpected error: {err}");
        assert!(err.to_string().contains("horizon too short"), "{err}");
    }

    #[test]
    fn trial_rejects_warmup_past_horizon() {
        let cfg = SimConfig::small(31);
        let err = run_proactive_trial(cfg, &crate::predictor::PredictorConfig::default(), 600)
            .expect_err("warm-up of 600 weeks cannot fit a 31-line small world");
        assert!(matches!(err, PipelineError::WarmupExceedsHorizon { .. }), "{err}");
        // 613566757 weeks is 4294967299 days: one past `u32::MAX`, which
        // must not wrap round to a day-3 policy start.
        let cfg = SimConfig::small(31);
        let err =
            run_proactive_trial(cfg, &crate::predictor::PredictorConfig::default(), 613_566_757)
                .expect_err("an overflowing warm-up cannot fit any horizon");
        assert_eq!(
            err,
            PipelineError::WarmupExceedsHorizon { policy_start_day: u32::MAX, days: 240 }
        );
    }

    #[test]
    fn stop_week_past_the_horizon_runs_the_whole_horizon() {
        let mut cfg = SimConfig::small(5);
        (cfg.n_lines, cfg.days) = (300, 160);
        let predictor = crate::predictor::PredictorConfig {
            iterations: 20,
            selection_row_cap: 4_000,
            ..crate::predictor::PredictorConfig::default()
        };
        let run = |stop_after_week| {
            let options = TrialOptions { stop_after_week, ..TrialOptions::default() };
            run_proactive_trial_with(cfg.clone(), &predictor, 14, &options)
                .expect("the trial fits its horizon")
                .outcome
        };
        let full = run(None);
        assert!(full.reactive_tickets > 0, "the world must raise tickets");
        for week in [u32::MAX, 613_566_756] {
            assert_eq!(format!("{:?}", run(Some(week))), format!("{full:?}"), "week {week}");
        }
    }
}
