//! A world lends its logs out and takes them back.
//!
//! `World::lend_output` moves the logs so far out of the world without a
//! copy, and `World::return_output` hands them back. A round trip must
//! leave nothing behind: the world steps on exactly like one that never
//! lent its logs. While the logs are out the world must refuse to step,
//! so a day can never be appended to the empty stand-in.

use nevermind_dslsim::{SimConfig, World};

const LEND_DAY: u32 = 90;

#[test]
fn a_world_steps_on_alike_after_lending_its_logs() {
    for shards in [1, 3] {
        let cfg = SimConfig::small(0x1E4D);
        let mut lender = World::generate(cfg.clone()).with_shards(shards);
        while lender.day() < LEND_DAY {
            lender.step_day();
        }
        let logs = lender.lend_output();
        assert!(
            logs.measurements.iter().any(|m| m.day >= LEND_DAY - 7),
            "{shards} shards: the lent logs are the warm-up's"
        );
        lender.return_output(logs);
        let lent = serde_json::to_string(&lender.run()).expect("logs serialize");
        let never = serde_json::to_string(&World::generate(cfg).with_shards(shards).run())
            .expect("logs serialize");
        assert_eq!(lent, never, "{shards} shards");
    }
}

#[test]
#[should_panic(expected = "logs are lent out")]
fn stepping_a_world_whose_logs_are_lent_panics() {
    let mut world = World::generate(SimConfig::small(0x1E4E));
    world.step_day();
    let _logs = world.lend_output();
    world.step_day();
}
