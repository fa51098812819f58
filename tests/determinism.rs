//! Determinism guarantees across the whole stack: identical seeds must
//! produce bit-identical worlds, models, and rankings — the property every
//! experiment in EXPERIMENTS.md relies on.

use nevermind::pipeline::{run_proactive_trial_with, ExperimentData, SplitSpec, TrialOptions};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind_dslsim::scenario::Scenario;
use nevermind_dslsim::{SimConfig, World};

fn sim(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small(seed);
    cfg.n_lines = 1_500;
    cfg.days = 270;
    cfg
}

fn quick_predictor_cfg() -> PredictorConfig {
    PredictorConfig {
        iterations: 50,
        selection_iterations: 4,
        n_base: 15,
        n_quadratic: 5,
        n_product: 5,
        selection_row_cap: 4_000,
        ..PredictorConfig::default()
    }
}

#[test]
fn identical_seeds_identical_worlds() {
    let a = ExperimentData::simulate(sim(11));
    let b = ExperimentData::simulate(sim(11));
    assert_eq!(a.output.measurements.len(), b.output.measurements.len());
    assert_eq!(a.output.tickets.len(), b.output.tickets.len());
    assert_eq!(a.output.notes.len(), b.output.notes.len());
    assert_eq!(a.output.ivr_calls.len(), b.output.ivr_calls.len());
    for (x, y) in a.output.measurements.iter().zip(&b.output.measurements) {
        assert_eq!(x.line, y.line);
        assert_eq!(x.day, y.day);
        assert_eq!(x.values, y.values);
    }
    for (x, y) in a.output.tickets.iter().zip(&b.output.tickets) {
        assert_eq!(x.line, y.line);
        assert_eq!(x.day, y.day);
        assert_eq!(x.category, y.category);
    }
}

#[test]
fn different_seeds_different_worlds() {
    let a = ExperimentData::simulate(sim(21));
    let b = ExperimentData::simulate(sim(22));
    assert_ne!(
        a.output.tickets.len(),
        b.output.tickets.len(),
        "two seeds giving identical ticket counts would be suspicious"
    );
}

#[test]
fn identical_fits_identical_rankings() {
    let data = ExperimentData::simulate(sim(31));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let cfg = quick_predictor_cfg();

    let (p1, r1) = TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
    let (p2, r2) = TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");

    assert_eq!(r1.selected_base, r2.selected_base);
    assert_eq!(r1.selected_derived, r2.selected_derived);
    assert_eq!(p1.model().stumps(), p2.model().stumps());

    let rank1 = p1.rank(&data, &split.test_days);
    let rank2 = p2.rank(&data, &split.test_days);
    assert_eq!(rank1.probabilities, rank2.probabilities);
}

#[test]
fn serialized_model_reproduces_ranking() {
    let data = ExperimentData::simulate(sim(41));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let (p, _) = TicketPredictor::fit(&data, &split, &quick_predictor_cfg())
        .expect("well-formed training data");

    let json = serde_json::to_string(&p).expect("serialize");
    let restored: TicketPredictor = serde_json::from_str(&json).expect("deserialize");

    let a = p.rank(&data, &split.test_days);
    let b = restored.rank(&data, &split.test_days);
    assert_eq!(a.probabilities, b.probabilities);
    assert_eq!(a.top_rows(25), b.top_rows(25));
}

#[test]
fn sharded_simulation_matches_serial() {
    // Shard-parallel stepping is an execution detail: the full serialized
    // output (measurements, tickets with ids, notes, IVR, churn, traffic)
    // must be byte-identical for every shard count.
    let serial = ExperimentData::simulate(sim(61));
    let serial_json = serde_json::to_string(&serial.output).expect("output serializes");
    for shards in [2usize, 7, 16] {
        let sharded = ExperimentData::simulate_sharded(sim(61), shards);
        let sharded_json = serde_json::to_string(&sharded.output).expect("output serializes");
        assert_eq!(serial_json, sharded_json, "SimOutput diverged at {shards} shards");
    }
}

#[test]
fn sharded_ranking_matches_serial() {
    // The model side of the sharding contract: a predictor trained once
    // must hand back the same budgeted head whether selection is serial
    // or shard-parallel.
    let data = ExperimentData::simulate(sim(71));
    let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
    let (p, _) = TicketPredictor::fit(&data, &split, &quick_predictor_cfg())
        .expect("well-formed training data");
    let ranking = p.rank(&data, &split.test_days);
    let serial = ranking.top_rows(40);
    for shards in [1usize, 2, 7, 16] {
        assert_eq!(serial, ranking.top_rows_sharded(40, shards), "top-B diverged at {shards}");
    }
}

#[test]
fn step_and_run_agree() {
    // Stepping a world day by day must produce the same logs as run().
    let cfg = sim(51);
    let run_out = nevermind_dslsim::World::generate(cfg.clone()).run();
    let mut world = nevermind_dslsim::World::generate(cfg);
    while world.day() < world.config().days {
        world.step_day();
    }
    let step_out = world.into_output();
    assert_eq!(run_out.measurements.len(), step_out.measurements.len());
    assert_eq!(run_out.tickets.len(), step_out.tickets.len());
    assert_eq!(run_out.notes.len(), step_out.notes.len());
    for (a, b) in run_out.measurements.iter().zip(&step_out.measurements).take(2_000) {
        assert_eq!(a.values, b.values);
    }
}

#[test]
fn forked_twin_counts_match_a_separately_stepped_twin() {
    // The trial forks its reactive twin from the live world at policy
    // start. Its counts must equal those of a twin generated fresh and
    // stepped from day 0 to the trial's last day.
    const WARMUP_WEEKS: u32 = 14;
    let cfg = Scenario::Baseline.config(0x7_1A1, 300, 160);
    let pcfg = PredictorConfig {
        iterations: 40,
        budget_fraction: 0.01,
        selection_row_cap: 8_000,
        ..PredictorConfig::default()
    };
    let policy_start_day = WARMUP_WEEKS * 7;
    for shards in [1, 3] {
        // No stop, a stop before the warm-up ends, and one mid-policy.
        for stop_after_week in [None, Some(5), Some(18)] {
            let end_day = stop_after_week.map_or(cfg.days, |w| cfg.days.min((w + 1) * 7));
            let mut twin = World::generate(cfg.clone()).with_shards(shards);
            while twin.day() < end_day {
                twin.step_day();
            }
            let twin = twin.into_output();
            let expected = (
                twin.customer_edge_tickets().filter(|t| t.day >= policy_start_day).count(),
                twin.churn_events.iter().filter(|c| c.day >= policy_start_day).count(),
            );
            if stop_after_week.is_none() {
                assert!(expected.0 > 0, "the policy window must hold reactive tickets");
            }
            let options = TrialOptions { shards, stop_after_week, ..TrialOptions::default() };
            let outcome = run_proactive_trial_with(cfg.clone(), &pcfg, WARMUP_WEEKS, &options)
                .expect("trial config is valid")
                .outcome;
            assert_eq!(
                (outcome.reactive_tickets, outcome.reactive_churn),
                expected,
                "{shards} shards, stop after week {stop_after_week:?}"
            );
        }
    }
}
