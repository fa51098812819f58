//! `rerank`: 52 consecutive Saturday re-ranks of a plant simulated during
//! set-up. Each Saturday runs `WeeklyScorer::observe` on the new log
//! suffix, then `rank_week`, then `top_rows_sharded(budget, threads)`. The
//! predictor is fitted during set-up on a separate small world, as the
//! `weekly_rerank` bench does — features are per line, so the model
//! transfers.
//!
//! The training world's seed is fixed ([`TRAIN_SEED`]); `--seed` drives
//! the ranked plant. A re-rank's cost follows the model's structure (how
//! many store lanes and stumps it reads), so a model retrained per seed
//! would swing the weekly cost by a quarter between seeds; a fixed model
//! leaves the plant's logs as the only input that varies.

use crate::replay::{self, WeeklyTimes, WeeklyTwin};
use crate::{end_to_end, repeated_setup, step_report, timed, wall_report};
use crate::{Checks, Cost, Layers, Metric, Outcome, Stopwatch, SETUP_REPS};
use crate::{RunConfig, Scale};
use nevermind::pipeline::{ExperimentData, SplitSpec};
use nevermind::predictor::{PredictorConfig, RankedPredictions, TicketPredictor};
use nevermind::scoring::WeeklyScorer;
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::{SimConfig, SimOutput, World};
use std::time::Instant;

/// Seed of the training world (the `weekly_rerank` bench's).
pub const TRAIN_SEED: u64 = 11;

/// 52-Saturday sweeps a run times at least (`job_cpu_s` is their median).
pub const MIN_SWEEPS: usize = 8;

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Params {
    /// Ranked plant size.
    pub lines: usize,
    /// Ranked plant horizon (52 Saturdays fit in 364 days).
    pub days: u32,
    /// Training-world size.
    pub train_lines: usize,
    /// Training-world horizon.
    pub train_days: u32,
    /// Final-model boosting iterations (`trial`'s configuration).
    pub iterations: usize,
    /// Feature-selection row cap (`trial`'s configuration).
    pub selection_row_cap: usize,
}

impl Params {
    /// Sizes for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                lines: 30_000,
                days: 364,
                train_lines: 1_000,
                train_days: 240,
                iterations: 120,
                selection_row_cap: 8_000,
            },
            Scale::Tiny => Self {
                lines: 2_000,
                days: 364,
                train_lines: 1_000,
                train_days: 200,
                iterations: 30,
                selection_row_cap: 3_000,
            },
        }
    }

    /// Predictor configuration.
    pub fn predictor_config(&self) -> PredictorConfig {
        PredictorConfig {
            iterations: self.iterations,
            budget_fraction: 0.01,
            selection_row_cap: self.selection_row_cap,
            ..PredictorConfig::default()
        }
    }
}

/// Everything set-up builds.
pub struct Setup {
    /// The ranked plant's configuration.
    pub sim: SimConfig,
    /// The ranked plant.
    pub topology: nevermind_dslsim::topology::Topology,
    /// Its year of logs.
    pub output: SimOutput,
    /// The training world.
    pub train: ExperimentData,
    /// The training split.
    pub split: SplitSpec,
    /// The fitted predictor.
    pub predictor: TicketPredictor,
    /// Time-accounting of the set-up (simulation and fit).
    pub layers: Layers,
}

/// Simulates the plant and fits the predictor.
pub fn setup(p: &Params, seed: u64, threads: usize) -> Result<Setup, String> {
    let mut layers = Layers::default();
    let sim = Scenario::Baseline.config(seed, p.lines, p.days);
    let mut world = World::generate(sim.clone()).with_shards(threads);
    while world.day() < sim.days {
        let ((), s) = timed(|| world.step_day());
        layers.stepped(s, p.lines);
    }
    let topology = world.topology().clone();
    let output = world.into_output();

    let train_cfg = Scenario::Baseline.config(TRAIN_SEED, p.train_lines, p.train_days);
    let train = ExperimentData::simulate_sharded(train_cfg, threads);
    let split = SplitSpec::paper_like(&train).map_err(|e| e.to_string())?;
    let (fitted, fit_s) = timed(|| TicketPredictor::fit(&train, &split, &p.predictor_config()));
    layers.fit_s = fit_s;
    let predictor = fitted.map_err(|e| e.to_string())?.0;
    Ok(Setup { sim, topology, output, train, split, predictor, layers })
}

/// The 52 (or fewer) Saturdays of the horizon, ascending.
pub fn saturdays(days: u32) -> Vec<u32> {
    (6..days).step_by(7).collect()
}

/// Log prefix lengths visible at the end of `day` (logs are day-ordered).
fn frontier(out: &SimOutput, day: u32) -> (usize, usize) {
    (
        out.measurements.partition_point(|m| m.day <= day),
        out.tickets.partition_point(|t| t.day <= day),
    )
}

/// The ranked plant's logs truncated at the end of `day`, as an
/// `ExperimentData` the batch ranking can read.
fn prefix_data(s: &Setup, day: u32) -> ExperimentData {
    let o = &s.output;
    let (m_end, t_end) = frontier(o, day);
    let mut config = s.sim.clone();
    config.days = day + 1;
    ExperimentData {
        config,
        topology: s.topology.clone(),
        output: SimOutput {
            measurements: o.measurements[..m_end].to_vec(),
            tickets: o.tickets[..t_end].to_vec(),
            notes: o.notes[..o.notes.partition_point(|n| n.day <= day)].to_vec(),
            outage_events: o.outage_events.clone(),
            traffic: o.traffic.clone(),
            ivr_calls: o.ivr_calls[..o.ivr_calls.partition_point(|c| c.day <= day)].to_vec(),
            churn_events: o.churn_events[..o.churn_events.partition_point(|c| c.day <= day)]
                .to_vec(),
            days: day + 1,
        },
    }
}

/// Check (b): the engine's ranking at `day` equals `TicketPredictor::rank`
/// over the same log prefix, bit for bit, with the same top-`budget`.
pub fn check_against_batch(
    s: &Setup,
    day: u32,
    streaming: &RankedPredictions,
    budget: usize,
    checks: &mut Checks,
) {
    let batch = s.predictor.rank(&prefix_data(s, day), &[day]);
    checks.op(replay::same_bits(&batch.probabilities, &streaming.probabilities), || {
        format!("day {day}: WeeklyScorer probabilities differ from TicketPredictor::rank")
    });
    checks.op(batch.top_rows(budget) == streaming.top_rows(budget), || {
        format!("day {day}: WeeklyScorer top-B differs from TicketPredictor::rank")
    });
}

/// One sweep over every Saturday with a fresh engine. Returns the sweep's
/// cost (checks and replays excluded), the per-Saturday wall times, the
/// rankings of the `keep` days and, when traced, the weekly layers'
/// report.
fn sweep(
    s: &Setup,
    threads: usize,
    keep: &[u32],
    mut trace: Option<(&mut Layers, &mut WeeklyTimes)>,
    checks: &mut Checks,
) -> (Cost, Vec<f64>, Vec<RankedPredictions>, Vec<Metric>) {
    let budget = PredictorConfig::default().budget(s.topology.lines.len());
    let start = Stopwatch::start();
    let mut replay = Cost::default();
    let mut scorer = WeeklyScorer::new(&s.predictor, &s.topology.lines);
    scorer.set_shards(threads);
    let mut twin = trace
        .is_some()
        .then(|| WeeklyTwin::new(&s.predictor, &s.topology.lines, scorer.store().cols(), threads));
    let mut step_ms = Vec::new();
    let mut kept = Vec::new();
    for day in saturdays(s.sim.days) {
        let (m_end, t_end) = frontier(&s.output, day);
        let (meas, tickets) = (&s.output.measurements[..m_end], &s.output.tickets[..t_end]);
        let t0 = Instant::now();
        scorer.observe(meas, tickets);
        let t1 = Instant::now();
        let ranking = scorer.rank_week(day);
        let t2 = Instant::now();
        let top = ranking.top_rows_sharded(budget, threads.max(1));
        let t3 = Instant::now();
        step_ms.push((t3 - t0).as_secs_f64() * 1e3);

        let r = Stopwatch::start();
        checks.op(
            top.len() == budget.min(ranking.len())
                && ranking.probabilities.iter().all(|p| (0.0..=1.0).contains(p)),
            || format!("day {day}: malformed weekly ranking"),
        );
        if let (Some((layers, weekly)), Some(twin)) = (trace.as_mut(), twin.as_mut()) {
            weekly.observe_ms.push((t1 - t0).as_secs_f64() * 1e3);
            weekly.rank_week_ms.push((t2 - t1).as_secs_f64() * 1e3);
            weekly.top_k_ms.push((t3 - t2).as_secs_f64() * 1e3);
            weekly.lines_scored += ranking.len() as u64;
            twin.ingest(meas, tickets);
            twin.replay(day, scorer.store(), &ranking, layers, checks);
        }
        if keep.contains(&day) {
            kept.push(ranking);
        }
        replay += r.cost();
    }
    let report = match (trace, twin) {
        (Some((_, weekly)), Some(twin)) => weekly.report(&twin, scorer.store()),
        _ => Vec::new(),
    };
    (start.cost() - replay, step_ms, kept, report)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_scale(cfg.scale);
    let mut out = Outcome {
        params: vec![
            ("lines", p.lines.to_string()),
            ("days", p.days.to_string()),
            ("train_lines", p.train_lines.to_string()),
            ("train_days", p.train_days.to_string()),
            ("iterations", p.iterations.to_string()),
            ("shards", cfg.threads.to_string()),
        ],
        ..Outcome::default()
    };
    let (built, setup_costs) = repeated_setup(SETUP_REPS, || setup(&p, cfg.seed, cfg.threads));
    let s = match built {
        Ok(s) => s,
        Err(e) => {
            out.checks.op(false, || format!("rerank set-up failed: {e}"));
            return out;
        }
    };
    let sats = saturdays(s.sim.days);
    let keep = [sats[0], sats[sats.len() / 2], sats[sats.len() - 1]];
    let budget = PredictorConfig::default().budget(s.topology.lines.len());

    if cfg.trace {
        let (untraced, ..) = sweep(&s, cfg.threads, &[], None, &mut out.checks);
        let mut layers = s.layers.clone();
        layers.untraced_wall_s = untraced.wall_s;
        let mut weekly = WeeklyTimes::default();
        let (traced, _, _, report) =
            sweep(&s, cfg.threads, &[], Some((&mut layers, &mut weekly)), &mut out.checks);
        layers.traced_wall_s = traced.wall_s;
        layers.covered_s =
            (weekly.observe_ms.iter().chain(&weekly.rank_week_ms).chain(&weekly.top_k_ms))
                .sum::<f64>()
                / 1e3;
        let calibrate_s = replay::predictor_fit(
            &s.train,
            &s.split,
            &p.predictor_config(),
            &s.predictor,
            &mut layers,
            &mut out.checks,
        );
        out.samples = 1;
        out.metrics = layers.metrics();
        out.report = report;
        out.report.push(Metric::new("core.predictor.fit_s", layers.fit_s, "s"));
        out.report.push(Metric::new("ml.calibrate_s", calibrate_s, "s"));
        return out;
    }

    let mut job = Vec::new();
    let mut step_ms = Vec::new();
    let mut kept = Vec::new();
    let start = Instant::now();
    loop {
        let first = job.is_empty();
        let (cost, steps, k, _) =
            sweep(&s, cfg.threads, if first { &keep } else { &[] }, None, &mut out.checks);
        job.push(cost);
        step_ms.extend(steps);
        kept.extend(k);
        if cfg.measured_enough(start, job.len(), MIN_SWEEPS) || out.checks.failed > 0 {
            break;
        }
    }
    for (day, ranking) in keep.iter().zip(&kept) {
        check_against_batch(&s, *day, ranking, budget, &mut out.checks);
    }
    out.samples = job.len();
    let lines_ranked = (s.topology.lines.len() * sats.len()) as f64;
    out.metrics = end_to_end(&setup_costs, &job);
    out.report = wall_report(&setup_costs, &job, "sweep_s");
    let sweep_s = out.report[1].value;
    out.report.extend([
        Metric::new("rerank_lines_per_s", lines_ranked / sweep_s, "1/s"),
        Metric::new("sweeps", job.len() as f64, "count"),
    ]);
    out.report.extend(step_report("rerank_week_ms", "ms", 1.0, &step_ms, sats.len()));
    out
}
