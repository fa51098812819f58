//! `trial`: `run_proactive_trial_with`, run the way `nevermind trial` runs
//! it — twin worlds, training on the warm-up logs, the weekly policy loop,
//! with the metrics registry on (so model-health telemetry runs) and
//! decision tracing off.
//!
//! The traced run re-implements the trial from the same public calls the
//! pipeline makes, with a timer around each, and checks that this replica
//! reaches the untraced run's outcome exactly.

use crate::replay::{self, WeeklyTimes, WeeklyTwin};
use crate::{costed, end_to_end, repeated_setup, secs, step_report, timed, wall_report};
use crate::{Checks, Cost, Layers, Metric, Outcome};
use crate::{RunConfig, Scale};
use nevermind::pipeline::{
    run_proactive_trial_with, ExperimentData, ProactiveOutcome, SplitSpec, TrialOptions,
};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind::scoring::WeeklyScorer;
use nevermind::telemetry::ModelHealthMonitor;
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::{SimConfig, SimOutput, World};
use std::time::Instant;

/// Trials a run times at least (`job_cpu_s` is their median).
pub const MIN_TRIALS: usize = 2;

/// Plant generations behind `setup_s`: one takes ~35 ms, and its first-touch
/// page faults make single timings swing by a third.
pub const SETUP_GENERATIONS: usize = 15;

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Params {
    /// Plant size.
    pub lines: usize,
    /// Simulated horizon.
    pub days: u32,
    /// Weeks before the proactive policy switches on.
    pub warmup_weeks: u32,
    /// Final-model boosting iterations.
    pub iterations: usize,
    /// Feature-selection row cap.
    pub selection_row_cap: usize,
}

impl Params {
    /// Sizes for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                lines: 20_000,
                days: 364,
                warmup_weeks: 30,
                iterations: 120,
                selection_row_cap: 8_000,
            },
            Scale::Tiny => Self {
                lines: 1_500,
                days: 250,
                warmup_weeks: 30,
                iterations: 30,
                selection_row_cap: 3_000,
            },
        }
    }

    /// The baseline-scenario plant for a seed, as `nevermind trial` builds it.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        Scenario::Baseline.config(seed, self.lines, self.days)
    }

    /// `nevermind trial`'s predictor configuration.
    pub fn predictor_config(&self) -> PredictorConfig {
        PredictorConfig {
            iterations: self.iterations,
            budget_fraction: 0.01,
            selection_row_cap: self.selection_row_cap,
            ..PredictorConfig::default()
        }
    }
}

/// Whether two outcomes agree field for field.
pub fn same_outcome(a: &ProactiveOutcome, b: &ProactiveOutcome) -> bool {
    a.policy_start_day == b.policy_start_day
        && a.reactive_tickets == b.reactive_tickets
        && a.proactive_tickets == b.proactive_tickets
        && a.proactive_dispatches == b.proactive_dispatches
        && a.proactive_hits == b.proactive_hits
        && a.reactive_churn == b.reactive_churn
        && a.proactive_churn == b.proactive_churn
}

/// Check (a): the traced replica reaches the untraced run's outcome.
pub fn check_replica(checks: &mut Checks, replica: &ProactiveOutcome, untraced: &ProactiveOutcome) {
    checks.op(same_outcome(replica, untraced), || {
        format!("replica outcome {replica:?} != untraced {untraced:?}")
    });
}

/// One untraced trial with the metrics registry on: the outcome, its cost,
/// and the per-Saturday re-rank times the pipeline records in the
/// `trial/week_rank_ms` series.
pub fn untraced_trial(
    sim: &SimConfig,
    config: &PredictorConfig,
    warmup_weeks: u32,
    threads: usize,
) -> Result<(ProactiveOutcome, Cost, Vec<f64>), String> {
    let reg = nevermind_obs::global();
    reg.reset();
    nevermind_obs::set_enabled(true);
    let options = TrialOptions { shards: threads, ..TrialOptions::default() };
    let (result, cost) =
        costed(|| run_proactive_trial_with(sim.clone(), config, warmup_weeks, &options));
    let week_ms: Vec<f64> =
        reg.series("trial/week_rank_ms").points().into_iter().map(|(_, ms)| ms).collect();
    nevermind_obs::set_enabled(false);
    reg.reset();
    result.map(|r| (r.outcome, cost, week_ms)).map_err(|e| e.to_string())
}

/// Checks one outcome for sanity: the loop dispatched, and found faults.
fn check_outcome(checks: &mut Checks, o: &ProactiveOutcome, weeks: usize, expected_weeks: usize) {
    checks.op(o.reactive_tickets > 0 && o.proactive_dispatches > 0, || {
        format!("degenerate trial outcome: {o:?}")
    });
    checks
        .op(o.proactive_hits <= o.proactive_dispatches && o.ticket_reduction().is_finite(), || {
            format!("inconsistent trial outcome: {o:?}")
        });
    checks.op(weeks == expected_weeks, || {
        format!("{weeks} weekly re-rank samples, expected {expected_weeks}")
    });
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_scale(cfg.scale);
    let sim = p.sim_config(cfg.seed);
    let pcfg = p.predictor_config();
    let policy_weeks = (p.days / 7 - p.warmup_weeks) as usize;
    let mut out = Outcome {
        params: vec![
            ("lines", p.lines.to_string()),
            ("days", p.days.to_string()),
            ("warmup_weeks", p.warmup_weeks.to_string()),
            ("iterations", p.iterations.to_string()),
            ("selection_row_cap", p.selection_row_cap.to_string()),
            ("shards", cfg.threads.to_string()),
        ],
        ..Outcome::default()
    };

    // The trial simulates its own twin worlds, so nothing the job reuses can
    // be built ahead of it. `setup_s` is a probe instead: generating the
    // plant (topology, customers, RNG streams) as each trial does twice.
    let (world, setup_costs) = repeated_setup(SETUP_GENERATIONS, || World::generate(sim.clone()));
    out.checks.op(world.topology().lines.len() == p.lines, || "plant size differs".into());
    drop(world);

    if cfg.trace {
        traced(cfg, &p, &sim, &pcfg, policy_weeks, &mut out);
        return out;
    }

    let mut job = Vec::new();
    let mut week_ms = Vec::new();
    let mut first: Option<ProactiveOutcome> = None;
    let start = Instant::now();
    loop {
        match untraced_trial(&sim, &pcfg, p.warmup_weeks, cfg.threads) {
            Ok((outcome, cost, weeks)) => {
                check_outcome(&mut out.checks, &outcome, weeks.len(), policy_weeks);
                if let Some(f) = &first {
                    out.checks.op(same_outcome(f, &outcome), || {
                        "repeated trial reached a different outcome".into()
                    });
                } else {
                    first = Some(outcome);
                }
                job.push(cost);
                week_ms.extend(weeks);
            }
            Err(e) => {
                out.checks.op(false, || format!("trial failed: {e}"));
            }
        }
        if cfg.measured_enough(start, job.len(), MIN_TRIALS) || out.checks.failed > 0 {
            break;
        }
    }
    out.samples = job.len();
    out.metrics = end_to_end(&setup_costs, &job);
    out.report = wall_report(&setup_costs, &job, "trial_s");
    out.report.extend(step_report("week_rank_ms", "ms", 1.0, &week_ms, policy_weeks));
    if let Some(o) = &first {
        out.report.push(Metric::new("ticket_reduction", o.ticket_reduction(), "ratio"));
        out.report.push(Metric::new(
            "dispatch_precision",
            o.dispatch_precision_checked().unwrap_or(f64::NAN),
            "ratio",
        ));
    }
    out.report.push(Metric::new("trials", job.len() as f64, "count"));
    out
}

/// Bytes held by a `SimOutput`'s log vectors (the cost of cloning it).
pub fn output_bytes(o: &SimOutput) -> usize {
    use std::mem::size_of_val;
    size_of_val(o.measurements.as_slice())
        + size_of_val(o.tickets.as_slice())
        + size_of_val(o.notes.as_slice())
        + size_of_val(o.outage_events.as_slice())
        + size_of_val(o.ivr_calls.as_slice())
        + size_of_val(o.churn_events.as_slice())
        + o.traffic.n_lines() * (o.days as usize * 4 + 4)
}

/// What the traced replica hands back for the replays.
struct Replica {
    outcome: ProactiveOutcome,
    train: ExperimentData,
    split: SplitSpec,
    predictor: TicketPredictor,
    wall_s: f64,
    report: Vec<Metric>,
}

/// The traced run: an untraced trial as reference, then the replica, then
/// the fit replays.
fn traced(
    cfg: &RunConfig,
    p: &Params,
    sim: &SimConfig,
    pcfg: &PredictorConfig,
    policy_weeks: usize,
    out: &mut Outcome,
) {
    let reference = match untraced_trial(sim, pcfg, p.warmup_weeks, cfg.threads) {
        Ok(r) => r,
        Err(e) => {
            out.checks.op(false, || format!("trial failed: {e}"));
            return;
        }
    };
    check_outcome(&mut out.checks, &reference.0, reference.2.len(), policy_weeks);

    let mut layers = Layers { untraced_wall_s: reference.1.wall_s, ..Layers::default() };
    nevermind_obs::global().reset();
    nevermind_obs::set_enabled(true);
    let replica = replica(sim, pcfg, p.warmup_weeks, cfg.threads, &mut layers, &mut out.checks);
    nevermind_obs::set_enabled(false);
    nevermind_obs::global().reset();
    let replica = match replica {
        Ok(r) => r,
        Err(e) => {
            out.checks.op(false, || format!("traced trial replica failed: {e}"));
            return;
        }
    };
    check_replica(&mut out.checks, &replica.outcome, &reference.0);
    layers.traced_wall_s = replica.wall_s;

    let calibrate_s = replay::predictor_fit(
        &replica.train,
        &replica.split,
        pcfg,
        &replica.predictor,
        &mut layers,
        &mut out.checks,
    );
    let boost_s: f64 = layers.boost_fit_ms.iter().sum::<f64>() / 1e3;
    out.samples = 1;
    out.metrics = layers.metrics();
    out.report = replica.report;
    out.report.push(Metric::new("ml.calibrate_s", calibrate_s, "s"));
    out.report.push(Metric::new(
        "ml.select_s_derived",
        layers.fit_s - layers.encode_windows_s - boost_s - calibrate_s,
        "s",
    ));
}

/// `run_proactive_trial_with` (default options, `threads` shards) rebuilt
/// from its public calls with a timer around each. Time spent in the
/// weekly replays is excluded from the returned wall time.
fn replica(
    sim: &SimConfig,
    pcfg: &PredictorConfig,
    warmup_weeks: u32,
    threads: usize,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<Replica, String> {
    let start = Instant::now();
    let mut replay_s = 0.0;
    let lines_n = sim.n_lines;
    let policy_start_day = warmup_weeks * 7;
    let end_day = sim.days;

    let tracing = nevermind_obs::trace::enabled();
    nevermind_obs::trace::set_enabled(false);
    let mut baseline_world = World::generate(sim.clone()).with_shards(threads);
    while baseline_world.day() < end_day {
        let ((), s) = timed(|| baseline_world.step_day());
        layers.stepped(s, lines_n);
    }
    let baseline = baseline_world.into_output();
    nevermind_obs::trace::set_enabled(tracing);
    let reactive_tickets =
        baseline.customer_edge_tickets().filter(|t| t.day >= policy_start_day).count();
    let reactive_churn = baseline.churn_events.iter().filter(|c| c.day >= policy_start_day).count();
    drop(baseline);

    let mut world = World::generate(sim.clone()).with_shards(threads);
    while world.day() < policy_start_day {
        let ((), s) = timed(|| world.step_day());
        layers.stepped(s, lines_n);
    }

    // The warm-up clone handed to training.
    let (mut train, clone_s) = timed(|| ExperimentData {
        config: sim.clone(),
        topology: world.topology().clone(),
        output: world.output().clone(),
    });
    let clone_mb = output_bytes(&train.output) as f64 / (1024.0 * 1024.0);
    train.config.days = policy_start_day;
    let split = SplitSpec::paper_like(&train).map_err(|e| e.to_string())?;
    let (fitted, fit_s) = timed(|| TicketPredictor::fit(&train, &split, pcfg));
    let predictor = fitted.map_err(|e| e.to_string())?.0;
    layers.fit_s = fit_s;

    let telemetry = nevermind::telemetry::TelemetryConfig::default();
    let (monitor, reference_s) = timed(|| {
        nevermind_obs::enabled().then(|| {
            ModelHealthMonitor::from_training(&predictor, &train, &split, lines_n, &telemetry)
        })
    });
    let mut monitor = monitor;

    let lines = world.topology().lines.clone();
    let mut scorer = WeeklyScorer::new(&predictor, &lines);
    scorer.set_shards(threads);
    let monitored: Vec<usize> =
        predictor.selected_base().iter().take(telemetry.max_features).copied().collect();
    scorer.track_columns(&monitored);
    let mut twin = WeeklyTwin::new(&predictor, &lines, scorer.store().cols(), threads);
    let budget = pcfg.budget(lines.len());
    let mut weekly = WeeklyTimes::default();
    let mut observe_week_s = 0.0;
    while world.day() < end_day {
        let ((), s) = timed(|| world.step_day());
        layers.stepped(s, lines_n);
        let day = world.day() - 1;
        if day % 7 != 6 {
            continue;
        }
        let out = world.output();
        let ((), s) = timed(|| scorer.observe(&out.measurements, &out.tickets));
        weekly.observe_ms.push(s * 1e3);
        let (ranking, s) = timed(|| scorer.rank_week(day));
        weekly.rank_week_ms.push(s * 1e3);
        weekly.lines_scored += ranking.len() as u64;
        let (top, s) = timed(|| ranking.top_rows_sharded(budget, threads.max(1)));
        weekly.top_k_ms.push(s * 1e3);
        checks.op(top.len() == budget.min(ranking.len()), || format!("day {day}: short top-B"));

        let ((), s) = timed(|| {
            twin.ingest(&out.measurements, &out.tickets);
            twin.replay(day, scorer.store(), &ranking, layers, checks);
        });
        replay_s += s;

        if let Some(mon) = monitor.as_mut() {
            let (_, s) =
                timed(|| mon.observe_week(day, &ranking, scorer.store(), &world.output().tickets));
            observe_week_s += s;
        }
        nevermind::provenance::emit_week_trace(&scorer, &predictor, &ranking, budget, day);
        for (key, _, _) in top {
            world.schedule_proactive_dispatch(key.line, 2);
        }
    }
    let mut report = weekly.report(&twin, scorer.store());
    drop(monitor);
    drop(twin);
    drop(scorer);

    let out = world.into_output();
    let proactive_notes: Vec<_> = out.notes.iter().filter(|n| n.proactive).collect();
    let outcome = ProactiveOutcome {
        policy_start_day,
        reactive_tickets,
        proactive_tickets: out
            .customer_edge_tickets()
            .filter(|t| t.day >= policy_start_day)
            .count(),
        proactive_dispatches: proactive_notes.len(),
        proactive_hits: proactive_notes.iter().filter(|n| n.disposition.is_some()).count(),
        reactive_churn,
        proactive_churn: out.churn_events.iter().filter(|c| c.day >= policy_start_day).count(),
    };
    let wall_s = secs(start) - replay_s;
    layers.covered_s = layers.step_day_s
        + clone_s
        + fit_s
        + reference_s
        + observe_week_s
        + (weekly.observe_ms.iter().chain(&weekly.rank_week_ms).chain(&weekly.top_k_ms))
            .sum::<f64>()
            / 1e3;
    report.extend([
        Metric::new("core.pipeline.warmup_clone_s", clone_s, "s"),
        Metric::new("core.pipeline.warmup_clone_mb", clone_mb, "MB"),
        Metric::new("core.predictor.fit_s", fit_s, "s"),
        Metric::new("core.telemetry.reference_s", reference_s, "s"),
        Metric::new("core.telemetry.observe_week_s", observe_week_s, "s"),
    ]);
    Ok(Replica { outcome, train, split, predictor, wall_s, report })
}
