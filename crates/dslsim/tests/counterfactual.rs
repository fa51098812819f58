//! A counterfactual is the world minus its Saturday line tests.
//!
//! `World::counterfactual` forks a world mid-horizon into a copy that runs
//! no line tests. The tests draw only from each DSLAM's `measure` stream
//! and write only measurements, so the copy must log exactly the same
//! tickets, notes, churn, IVR calls, outages and traffic as a plain clone
//! stepped alongside it, and no measurement after the fork. The clone in
//! turn must match a world that was never forked, which shows that
//! cloning carries every RNG stream.

use nevermind_dslsim::{SimConfig, SimOutput, World};
use serde::Serialize;

const FORK_DAY: u32 = 100;

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("simulator logs serialize")
}

fn run_to_horizon(mut world: World) -> SimOutput {
    while world.day() < world.config().days {
        world.step_day();
    }
    world.into_output()
}

#[test]
fn counterfactual_logs_everything_but_the_line_tests() {
    for seed in [0xCF01, 0xCF02] {
        for shards in [1, 3] {
            let cfg = SimConfig::small(seed);
            let mut world = World::generate(cfg.clone()).with_shards(shards);
            while world.day() < FORK_DAY {
                world.step_day();
            }
            let counterfactual = run_to_horizon(world.counterfactual());
            let clone = run_to_horizon(world.clone());
            let at = format!("seed {seed:#x}, {shards} shards");

            assert!(
                clone.tickets.iter().any(|t| t.day >= FORK_DAY)
                    && clone.churn_events.iter().any(|c| c.day >= FORK_DAY),
                "{at}: the horizon after the fork must hold tickets and churn"
            );
            assert_eq!(json(&counterfactual.tickets), json(&clone.tickets), "{at}: tickets");
            assert_eq!(json(&counterfactual.notes), json(&clone.notes), "{at}: notes");
            assert_eq!(
                json(&counterfactual.churn_events),
                json(&clone.churn_events),
                "{at}: churn"
            );
            assert_eq!(json(&counterfactual.ivr_calls), json(&clone.ivr_calls), "{at}: IVR");
            assert_eq!(
                json(&counterfactual.outage_events),
                json(&clone.outage_events),
                "{at}: outages"
            );
            assert_eq!(json(&counterfactual.traffic), json(&clone.traffic), "{at}: traffic");

            let before_fork: Vec<_> =
                clone.measurements.iter().filter(|m| m.day < FORK_DAY).collect();
            assert!(
                before_fork.len() < clone.measurements.len(),
                "{at}: the clone must keep testing after the fork"
            );
            assert_eq!(
                json(&counterfactual.measurements),
                json(&before_fork),
                "{at}: counterfactual measurements"
            );

            let fresh = World::generate(cfg).with_shards(shards).run();
            assert_eq!(json(&clone), json(&fresh), "{at}: a clone must step on like the original");
        }
    }
}
