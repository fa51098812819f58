//! A counterfactual is the world minus its Saturday line tests and minus
//! its logs so far.
//!
//! `World::counterfactual` forks a world mid-horizon into a copy that runs
//! no line tests and starts from empty logs. The tests draw only from each
//! DSLAM's `measure` stream and write only measurements, and stepping only
//! appends to the logs, so the copy must log exactly the tickets, notes,
//! churn and IVR calls a plain clone stepped alongside it appends after the
//! fork, and hold no measurement, traffic, outage or pre-fork record. The
//! clone in turn must match a world that was never forked, which shows
//! that cloning carries every RNG stream.

use nevermind_dslsim::{SimConfig, SimOutput, World};
use serde::Serialize;

const FORK_DAY: u32 = 100;

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("simulator logs serialize")
}

fn run_to_horizon(mut world: World) -> SimOutput {
    while world.day() < world.config().days {
        world.step_day();
    }
    world.into_output()
}

#[test]
fn counterfactual_logs_only_the_post_fork_suffix_without_line_tests() {
    for seed in [0xCF01, 0xCF02] {
        for shards in [1, 3] {
            let cfg = SimConfig::small(seed);
            let mut world = World::generate(cfg.clone()).with_shards(shards);
            while world.day() < FORK_DAY {
                world.step_day();
            }
            let at_fork = world.output();
            let (tickets, notes, churn, ivr) = (
                at_fork.tickets.len(),
                at_fork.notes.len(),
                at_fork.churn_events.len(),
                at_fork.ivr_calls.len(),
            );
            let twin = run_to_horizon(world.counterfactual());
            let clone = run_to_horizon(world.clone());
            let at = format!("seed {seed:#x}, {shards} shards");

            assert!(
                tickets > 0 && notes > 0 && churn > 0,
                "{at}: the logs before the fork must hold tickets, notes and churn"
            );
            assert!(
                clone.tickets.len() > tickets && clone.churn_events.len() > churn,
                "{at}: the horizon after the fork must hold tickets and churn"
            );
            assert_eq!(json(&twin.tickets), json(&clone.tickets[tickets..]), "{at}: tickets");
            assert_eq!(json(&twin.notes), json(&clone.notes[notes..]), "{at}: notes");
            assert_eq!(json(&twin.churn_events), json(&clone.churn_events[churn..]), "{at}: churn");
            assert_eq!(json(&twin.ivr_calls), json(&clone.ivr_calls[ivr..]), "{at}: IVR");
            assert!(twin.tickets.iter().all(|t| t.day >= FORK_DAY), "{at}: pre-fork ticket");

            assert!(
                clone.measurements.iter().any(|m| m.day >= FORK_DAY),
                "{at}: the clone must keep testing after the fork"
            );
            assert!(twin.measurements.is_empty(), "{at}: the twin holds measurements");
            assert_eq!(twin.traffic.n_lines(), 0, "{at}: the twin holds traffic");
            assert!(twin.outage_events.is_empty(), "{at}: the twin holds the outage schedule");
            assert_eq!(twin.days, clone.days, "{at}: horizon");

            let fresh = World::generate(cfg).with_shards(shards).run();
            assert_eq!(json(&clone), json(&fresh), "{at}: a clone must step on like the original");
        }
    }
}
