//! Weekly population re-ranking: the operational loop's hot path.
//!
//! Every simulated Saturday the proactive policy re-ranks the whole line
//! population and dispatches the top-budget. The incremental engine
//! ([`WeeklyScorer`]) ingests only each week's fresh events into rolling
//! per-line state, scores through compiled lookup tables on every core,
//! and partially selects the budgeted head. This bench measures 20
//! consecutive Saturdays at 10k- and 100k-line populations, with each
//! observability layer on, to hold those layers to their overhead budgets.
//! (The pre-incremental `rebuild_each_week` baseline is retired; its last
//! ratio stays recorded in `BENCH_scoring.json`.)
//!
//! # Paired, interleaved measurement
//!
//! This bench does *not* use the criterion stand-in: measuring each variant
//! in its own block let slow machine-state drift (frequency scaling, cache
//! and page warm-up) land entirely on whichever variant ran first, and a
//! committed snapshot once showed `incremental_instrumented` *faster* than
//! `incremental` — an artifact, not a result. Instead the harness runs the
//! variants round-robin: sample 0 of every variant, then sample 1 of every
//! variant, and so on, so drift is shared and per-sample deltas pair up.
//! Medians of the paired samples are what `BENCH_scoring.json` records.
//!
//! # Refreshing `BENCH_scoring.json`
//!
//! ```sh
//! cargo bench -p nevermind-bench --bench weekly_rerank | tee /tmp/weekly.log
//! ```
//!
//! then copy each reported median into the matching
//! `results.<population>.<variant>` entry of `BENCH_scoring.json` (medians
//! in milliseconds), update `context` if the hardware changed, and
//! sanity-check the three overhead budgets the README promises:
//! `incremental_instrumented` within ~2% of `incremental`,
//! `incremental_profiled` (metrics plus the continuous span profiler
//! sweeping at its default cadence) within 5%, `incremental_traced`
//! (metrics *and* decision-provenance tracing live) within 5%, and
//! `incremental_history` (metrics plus the history ring folding a full
//! registry snapshot on every ranked Saturday) within 5%. Run on an
//! otherwise idle machine.

use nevermind::pipeline::{ExperimentData, SplitSpec};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind::provenance::emit_week_trace;
use nevermind::scoring::WeeklyScorer;
use nevermind_dslsim::topology::Topology;
use nevermind_dslsim::{SimConfig, SimOutput, World};
use std::hint::black_box;
use std::time::Instant;

const WEEKS: usize = 20;

/// Trains one predictor on a small world; the bench then applies it to
/// larger populations (features are per-line, so the model transfers).
fn trained_predictor() -> TicketPredictor {
    let data = ExperimentData::simulate(SimConfig::small(11));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let cfg =
        PredictorConfig { iterations: 120, selection_row_cap: 8_000, ..PredictorConfig::default() };
    TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data").0
}

struct Population {
    topology: Topology,
    output: SimOutput,
    /// The 20 Saturdays being re-ranked, ascending.
    saturdays: Vec<u32>,
    budget: usize,
}

fn population(n_lines: usize) -> Population {
    let mut sim_config = SimConfig::small(12);
    sim_config.n_lines = n_lines;
    sim_config.days = 420;
    let world = World::generate(sim_config);
    let topology = world.topology().clone();
    let output = world.run();
    let saturdays: Vec<u32> = (6..output.days)
        .step_by(7)
        .collect::<Vec<_>>()
        .split_off((output.days as usize / 7).saturating_sub(WEEKS));
    assert_eq!(saturdays.len(), WEEKS);
    let budget = PredictorConfig::default().budget(n_lines);
    Population { topology, output, saturdays, budget }
}

/// Log prefixes visible at the end of `day` (global logs are day-ordered).
fn frontier(out: &SimOutput, day: u32) -> (usize, usize) {
    (
        out.measurements.partition_point(|m| m.day <= day),
        out.tickets.partition_point(|t| t.day <= day),
    )
}

/// The incremental weekly path: ingest the fresh suffix, encode from
/// rolling state, score through compiled LUTs in parallel, partially select.
fn incremental(p: &Population, predictor: &TicketPredictor) -> usize {
    let mut scorer = WeeklyScorer::new(predictor, &p.topology.lines);
    let mut dispatched = 0;
    for &day in &p.saturdays {
        let (m_end, t_end) = frontier(&p.output, day);
        scorer.observe(&p.output.measurements[..m_end], &p.output.tickets[..t_end]);
        dispatched += scorer.top_lines(day, p.budget).len();
    }
    dispatched
}

/// The incremental path with decision-provenance tracing live:
/// `emit_week_trace` borrows the week's frame from the scorer's feature
/// store (no extra materialization) and writes the dispatch-cutoff, score,
/// stump, calibrate and rank events for the dispatched head plus the
/// reservoir sample — what `trial --trace` pays.
fn incremental_traced(p: &Population, predictor: &TicketPredictor) -> usize {
    let mut scorer = WeeklyScorer::new(predictor, &p.topology.lines);
    let mut dispatched = 0;
    for &day in &p.saturdays {
        let (m_end, t_end) = frontier(&p.output, day);
        scorer.observe(&p.output.measurements[..m_end], &p.output.tickets[..t_end]);
        let ranking = scorer.rank_week(day);
        emit_week_trace(&scorer, predictor, &ranking, p.budget, day);
        dispatched += ranking.top_rows(p.budget).len();
    }
    dispatched
}

/// The incremental path with the metrics-history ring live: after each
/// ranked Saturday, `history::tick` folds a full registry snapshot into
/// the day/week window rings — the snapshot cadence `--history on` adds
/// to the operational loop (in the real trial the tick runs per simulated
/// day; the weekly fold here is the one that lands on the scoring path).
fn incremental_history(p: &Population, predictor: &TicketPredictor) -> usize {
    let mut scorer = WeeklyScorer::new(predictor, &p.topology.lines);
    let mut dispatched = 0;
    for &day in &p.saturdays {
        let (m_end, t_end) = frontier(&p.output, day);
        scorer.observe(&p.output.measurements[..m_end], &p.output.tickets[..t_end]);
        dispatched += scorer.top_lines(day, p.budget).len();
        nevermind_obs::history::tick(u64::from(day));
    }
    dispatched
}

/// Milliseconds of one timed call.
fn time_ms(f: &mut dyn FnMut() -> usize) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Runs every variant `samples` times, interleaved round-robin, and prints
/// each variant's median (plus all samples, for eyeballing drift).
fn run_paired(n_lines: usize, samples: usize, variants: &mut [(&str, &mut dyn FnMut() -> usize)]) {
    // One untimed warm-up pass per variant so first-touch costs (page
    // faults, lazy allocations, branch history) are not attributed to
    // whichever variant happens to run first.
    for (_, f) in variants.iter_mut() {
        black_box(f());
    }
    let mut timings: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); variants.len()];
    for _ in 0..samples {
        for (vi, (_, f)) in variants.iter_mut().enumerate() {
            timings[vi].push(time_ms(f));
        }
    }
    let mut medians = Vec::with_capacity(variants.len());
    for (vi, (name, _)) in variants.iter().enumerate() {
        let med = median(&timings[vi]);
        medians.push((*name, med));
        let all: Vec<String> = timings[vi].iter().map(|t| format!("{t:.1}")).collect();
        println!(
            "weekly_rerank/{name}/{n_lines}: median {med:.3} ms  (samples: {})",
            all.join(", ")
        );
    }
    // Paired deltas against the plain incremental path.
    if let Some(&(_, base)) = medians.iter().find(|(n, _)| *n == "incremental") {
        for &(name, med) in &medians {
            if name != "incremental" {
                println!(
                    "weekly_rerank/{name}/{n_lines}: overhead vs incremental {:+.2}%",
                    (med / base - 1.0) * 100.0
                );
            }
        }
    }
}

fn main() {
    let predictor = trained_predictor();
    // The million-line row is opt-in (`NEVERMIND_BENCH_1M=1`): simulating
    // the population alone takes minutes and several GB — it exists to put
    // a number on the million-line operational year, not for CI.
    let mut populations = vec![10_000usize, 100_000];
    if std::env::var_os("NEVERMIND_BENCH_1M").is_some() {
        populations.push(1_000_000);
    }
    for n_lines in populations {
        let p = population(n_lines);
        // The incremental variants are fast enough that their medians are
        // noise-bound, not time-bound — spend samples freely at 10k.
        let samples = if n_lines >= 100_000 { 3 } else { 11 };
        println!(
            "\n== weekly_rerank @ {n_lines} lines, {WEEKS} weeks, {samples} paired samples =="
        );
        let mut incr = || incremental(&p, &predictor);
        // Metrics registry live for the whole call: spans and counters
        // record. The paired delta against `incremental` is the
        // instrumentation overhead on the hot path (budgeted < 2%).
        let mut instrumented = || {
            nevermind_obs::set_enabled(true);
            let n = incremental(&p, &predictor);
            nevermind_obs::set_enabled(false);
            n
        };
        // Metrics live *and* the continuous span profiler sweeping at the
        // CLI's default cadence: the paired delta against `incremental`
        // is what `--profile` costs the hot path (budgeted < 5%).
        // Start/stop per sample mirrors the CLI, which brings the sampler
        // up for the whole run.
        let mut profiled = || {
            nevermind_obs::set_enabled(true);
            nevermind_obs::profile::global()
                .start(nevermind_obs::profile::Profiler::DEFAULT_INTERVAL)
                .expect("sampler thread starts");
            let n = incremental(&p, &predictor);
            nevermind_obs::profile::global().stop();
            nevermind_obs::set_enabled(false);
            n
        };
        // Metrics *and* tracing live; the ring is reset each call so every
        // sample pays the same allocation pattern.
        let mut traced = || {
            nevermind_obs::set_enabled(true);
            nevermind_obs::trace::set_enabled(true);
            nevermind_obs::trace::global().reset();
            let n = incremental_traced(&p, &predictor);
            nevermind_obs::trace::set_enabled(false);
            nevermind_obs::set_enabled(false);
            n
        };
        // Metrics *and* the history ring live; the ring is reset each call
        // so every sample folds the same window structure from scratch.
        let mut history = || {
            nevermind_obs::set_enabled(true);
            nevermind_obs::history::global().reset();
            nevermind_obs::history::set_enabled(true);
            let n = incremental_history(&p, &predictor);
            nevermind_obs::history::set_enabled(false);
            nevermind_obs::set_enabled(false);
            n
        };
        let mut variants: Vec<(&str, &mut dyn FnMut() -> usize)> = vec![
            ("incremental", &mut incr),
            ("incremental_instrumented", &mut instrumented),
            ("incremental_profiled", &mut profiled),
            ("incremental_traced", &mut traced),
            ("incremental_history", &mut history),
        ];
        run_paired(n_lines, samples, &mut variants);
    }
}
