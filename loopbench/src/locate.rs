//! `locate`: fit the trouble locator on the dispatches of days [30, 2/3 of
//! the horizon) with `nevermind locate`'s configuration, then call
//! `rank_combined` on each pre-encoded held-out dispatch — ~180 small
//! boosting fits and thousands of per-dispatch queries, the regime where
//! per-fit and per-round overhead dominate.
//!
//! The fitting world's seed is fixed ([`FIT_SEED`]); `--seed` drives the
//! world whose dispatches in [2/3 of the horizon, end) are queried. How
//! many dispositions get a model, and so how many boosting fits a locator
//! fit makes, follows the fitting world's dispatch counts; a fitting world
//! per seed would move the fit's cost with the seed, not with the code.

use crate::replay::{self, same_model};
use crate::{costed, end_to_end, repeated_setup, secs, stats, step_report, timed, wall_report};
use crate::{Checks, Cost, Layers, Metric, Outcome, SETUP_REPS};
use crate::{RunConfig, Scale};
use nevermind::locator::{
    collect_dispatch_examples, DispatchExample, LocatorConfig, TroubleLocator,
};
use nevermind::pipeline::ExperimentData;
use nevermind_dslsim::disposition::{DispositionId, N_DISPOSITIONS};
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::World;
use nevermind_ml::boost::BoostConfig;
use nevermind_ml::data::Dataset;
use std::time::Instant;

/// Seed of the world the locator is fitted on.
pub const FIT_SEED: u64 = 20;

/// Locator fits a run times at least (`job_cpu_s` is their median).
pub const MIN_FITS: usize = 3;

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Params {
    /// Plant size.
    pub lines: usize,
    /// Simulated horizon.
    pub days: u32,
    /// Locator boosting iterations per model.
    pub iterations: usize,
    /// Query passes over the held-out dispatches per fit.
    pub query_passes: usize,
}

impl Params {
    /// Sizes for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { lines: 10_000, days: 420, iterations: 80, query_passes: 10 },
            Scale::Tiny => Self { lines: 2_000, days: 420, iterations: 20, query_passes: 2 },
        }
    }

    /// First day of the held-out window (training covers [30, this)).
    pub fn mid(&self) -> u32 {
        self.days * 2 / 3
    }

    /// `nevermind locate`'s configuration.
    pub fn locator_config(&self) -> LocatorConfig {
        LocatorConfig { iterations: self.iterations, ..LocatorConfig::default() }
    }
}

/// Everything set-up builds.
pub struct Setup {
    /// The world the locator is fitted on ([`FIT_SEED`]).
    pub data: ExperimentData,
    /// Its training dispatches.
    pub train: Vec<DispatchExample>,
    /// The queried world (`--seed`).
    pub query: ExperimentData,
    /// Its held-out dispatches.
    pub held_out: Vec<DispatchExample>,
    /// Time-accounting of the simulation.
    pub layers: Layers,
}

/// Simulates one world, timing each day into `layers`.
fn simulate(p: &Params, seed: u64, threads: usize, layers: &mut Layers) -> ExperimentData {
    let config = Scenario::Baseline.config(seed, p.lines, p.days);
    let mut world = World::generate(config.clone()).with_shards(threads);
    while world.day() < config.days {
        let ((), s) = timed(|| world.step_day());
        layers.stepped(s, p.lines);
    }
    let topology = world.topology().clone();
    ExperimentData { config, topology, output: world.into_output() }
}

/// Simulates the fitting and the queried world and collects their
/// dispatch examples.
pub fn setup(p: &Params, seed: u64, threads: usize) -> Setup {
    let mut layers = Layers::default();
    let data = simulate(p, FIT_SEED, threads, &mut layers);
    let query = simulate(p, seed, threads, &mut layers);
    let train = collect_dispatch_examples(&data.output.notes, 30, p.mid());
    let held_out = collect_dispatch_examples(&query.output.notes, p.mid(), p.days);
    Setup { data, train, query, held_out, layers }
}

/// Minutes a technician walking `order` spends testing until `truth`.
pub fn minutes_walked(order: impl Iterator<Item = DispositionId>, truth: DispositionId) -> f64 {
    let mut minutes = 0.0;
    for d in order {
        minutes += d.info().test_minutes;
        if d == truth {
            break;
        }
    }
    minutes
}

/// Check (c): a ranking is a permutation of the 52 dispositions with
/// finite probabilities in [0, 1].
pub fn valid_ranking(ranked: &[nevermind::locator::DispositionScore]) -> bool {
    let mut seen = [false; N_DISPOSITIONS];
    ranked.len() == N_DISPOSITIONS
        && ranked.iter().all(|s| {
            let i = s.disposition.0 as usize;
            let fresh = i < N_DISPOSITIONS && !std::mem::replace(&mut seen[i], true);
            fresh && s.probability.is_finite() && (0.0..=1.0).contains(&s.probability)
        })
}

/// One query pass: `rank_combined` on every held-out row, timed per row.
/// Returns the per-query milliseconds and the mean technician minutes
/// under the combined order.
fn query_pass(
    locator: &TroubleLocator,
    rows: &Dataset,
    held_out: &[DispatchExample],
    checks: &mut Checks,
) -> (Vec<f64>, f64) {
    let mut ms = Vec::with_capacity(held_out.len());
    let mut minutes = 0.0;
    for (i, e) in held_out.iter().enumerate() {
        let (ranked, s) = timed(|| locator.rank_combined(rows.x.row(i)));
        ms.push(s * 1e3);
        checks.op(valid_ranking(&ranked), || format!("dispatch {i}: invalid disposition ranking"));
        minutes += minutes_walked(ranked.iter().map(|s| s.disposition), e.disposition);
    }
    (ms, minutes / held_out.len().max(1) as f64)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_scale(cfg.scale);
    let lcfg = p.locator_config();
    let (s, setup_costs) = repeated_setup(SETUP_REPS, || setup(&p, cfg.seed, cfg.threads));
    let mut out = Outcome {
        params: vec![
            ("lines", p.lines.to_string()),
            ("fit_seed", FIT_SEED.to_string()),
            ("days", p.days.to_string()),
            ("iterations", p.iterations.to_string()),
            ("train_dispatches", s.train.len().to_string()),
            ("held_out_dispatches", s.held_out.len().to_string()),
            ("query_passes", p.query_passes.to_string()),
            ("shards", cfg.threads.to_string()),
        ],
        ..Outcome::default()
    };
    if !out.checks.op(!s.train.is_empty() && !s.held_out.is_empty(), || {
        "no dispatches to fit or query".into()
    }) {
        return out;
    }
    let fit = |checks: &mut Checks| {
        let (r, cost) = costed(|| TroubleLocator::fit(&s.data, 30, p.mid(), &lcfg));
        let r = r.map_err(|e| e.to_string());
        checks.op(r.is_ok(), || format!("locator fit failed: {:?}", r.as_ref().err()));
        r.ok().map(|l| (l, cost))
    };

    if cfg.trace {
        traced(&p, &s, &fit, &mut out);
        return out;
    }

    let mut job = Vec::new();
    let mut modeled = 0;
    let mut query_ms = Vec::new();
    let mut basic_minutes = 0.0;
    let mut combined_minutes = 0.0;
    let start = Instant::now();
    while let Some((locator, cost)) = fit(&mut out.checks) {
        job.push(cost);
        modeled = locator.modeled_dispositions().len();
        let rows = locator.encode_examples(&s.query, &s.held_out);
        for _ in 0..p.query_passes {
            let (ms, minutes) = query_pass(&locator, &rows, &s.held_out, &mut out.checks);
            query_ms.extend(ms);
            combined_minutes = minutes;
        }
        let basic = locator.basic_ranking();
        basic_minutes = s
            .held_out
            .iter()
            .map(|e| minutes_walked(basic.iter().copied(), e.disposition))
            .sum::<f64>()
            / s.held_out.len() as f64;
        // The locator must beat the experience (basic) order it replaces.
        out.checks.op(combined_minutes < basic_minutes, || {
            format!("combined order ({combined_minutes:.1} min) no better than basic")
        });
        if cfg.measured_enough(start, job.len(), MIN_FITS) || out.checks.failed > 0 {
            break;
        }
    }
    out.samples = job.len();
    out.metrics = end_to_end(&setup_costs, &job);
    out.report = wall_report(&setup_costs, &job, "locator_fit_s");
    out.report.extend(step_report("locate_query_us", "us", 1e3, &query_ms, s.held_out.len()));
    out.report.extend([
        Metric::new("locate_minutes_combined", combined_minutes, "min"),
        Metric::new("locate_minutes_basic", basic_minutes, "min"),
        Metric::new("modeled_dispositions", modeled as f64, "count"),
    ]);
    out
}

/// The traced run: an untraced fit as reference, the traced fit and query
/// pass, then the replays — the batch encode, each modeled disposition's
/// one-vs-rest `BStump::fit`, and each query's model evaluations.
fn traced(
    p: &Params,
    s: &Setup,
    fit: &dyn Fn(&mut Checks) -> Option<(TroubleLocator, Cost)>,
    out: &mut Outcome,
) {
    let mut layers = s.layers.clone();
    // The composite: fit, encode the held-out dispatches, one query pass.
    let start = Instant::now();
    let Some((reference, _)) = fit(&mut out.checks) else { return };
    let rows = reference.encode_examples(&s.query, &s.held_out);
    query_pass(&reference, &rows, &s.held_out, &mut out.checks);
    layers.untraced_wall_s = secs(start);
    drop(reference);

    let start = Instant::now();
    let Some((locator, fit)) = fit(&mut out.checks) else { return };
    let fit_s = fit.wall_s;
    let (rows, encode_held_out_s) = timed(|| locator.encode_examples(&s.query, &s.held_out));
    let (query_ms, _) = query_pass(&locator, &rows, &s.held_out, &mut out.checks);
    layers.traced_wall_s = secs(start);
    layers.fit_s = fit_s;
    layers.covered_s = fit_s + encode_held_out_s + query_ms.iter().sum::<f64>() / 1e3;

    let (train_rows, encode_s) = timed(|| locator.encode_examples(&s.data, &s.train));
    layers.encode_windows_s = encode_s;
    let lcfg = p.locator_config();
    let boost = BoostConfig {
        iterations: lcfg.iterations,
        n_bins: lcfg.n_bins,
        smoothing: None,
        parallel: true,
    };
    for &d in locator.modeled_dispositions() {
        let y: Vec<bool> = s.train.iter().map(|e| e.disposition == d).collect();
        let data = Dataset::new(train_rows.x.clone(), y);
        let model = replay::boost_fit(&mut layers, &data, &boost);
        out.checks
            .op(locator.model_pair(d).is_some_and(|(flat, _, _)| same_model(&model, flat)), || {
                format!("disposition {}: replayed fit differs from the locator's model", d.0)
            });
    }

    for i in 0..s.held_out.len() {
        let row = rows.x.row(i);
        let ranked = locator.rank_combined(row);
        let (probabilities, secs) = timed(|| {
            locator
                .modeled_dispositions()
                .iter()
                .filter_map(|&d| {
                    let (flat, loc, fuse) = locator.model_pair(d)?;
                    Some((d, fuse.probability(&[flat.margin(row), loc.margin(row)])))
                })
                .collect::<Vec<_>>()
        });
        layers.score_ms.push(secs * 1e3);
        let same = probabilities.iter().all(|&(d, p)| {
            ranked.iter().any(|r| r.disposition == d && r.probability.to_bits() == p.to_bits())
        });
        out.checks.op(same, || format!("dispatch {i}: replayed model evaluation differs"));
    }
    out.samples = 1;
    out.metrics = layers.metrics();
    out.report = vec![
        Metric::new("core.locator.fit_s", fit_s, "s"),
        Metric::new("core.locator.rank_combined_us_p50", 1e3 * stats::median(&query_ms), "us"),
    ];
}
