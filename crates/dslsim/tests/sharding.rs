//! Sharded-vs-serial equivalence: any shard count must be an execution
//! detail, never a modelling one.
//!
//! The contract (ISSUE 6): for shard counts {1, 2, 7, 16} a world stepped
//! shard-parallel produces **byte-identical** `SimOutput` logs versus the
//! serial (one-shard) run — same measurements, tickets (ids included),
//! notes, IVR calls, churn, traffic. Equality is checked on the
//! `serde_json` serialization of the whole output, which covers every
//! field of every record including the f64s bit-for-bit (serde prints the
//! shortest roundtrip representation).

use nevermind_dslsim::topology::Topology;
use nevermind_dslsim::{LineId, SimConfig, SimOutput, World};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 7, 16];

fn small_config(seed: u64, n_lines: usize, days: u32) -> SimConfig {
    let mut cfg = SimConfig::small(seed);
    cfg.n_lines = n_lines;
    cfg.days = days;
    cfg
}

fn output_json(out: &SimOutput) -> String {
    serde_json::to_string(out).expect("SimOutput serializes")
}

#[test]
fn shard_counts_yield_byte_identical_output() {
    let cfg = small_config(0x5AAD_ED01, 2_000, 120);
    let serial = output_json(&World::generate(cfg.clone()).with_shards(1).run());
    for shards in SHARD_COUNTS {
        let sharded = output_json(&World::generate(cfg.clone()).with_shards(shards).run());
        assert_eq!(serial, sharded, "SimOutput diverged at {shards} shards");
    }
}

#[test]
fn shards_beyond_dslam_count_are_clamped() {
    // 500 lines / 48 per DSLAM = 11 DSLAMs; 64 shards must clamp cleanly.
    let cfg = small_config(0x5AAD_ED02, 500, 90);
    let serial = output_json(&World::generate(cfg.clone()).run());
    let world = World::generate(cfg).with_shards(64);
    assert_eq!(world.shards(), 64, "the knob itself is not clamped");
    assert_eq!(serial, output_json(&world.run()), "clamped shards diverged");
}

/// The lines the proactive test dispatches to: ten spread over the plant
/// (`97·k`), the first and last line of every DSLAM — where one DSLAM's run
/// of line records ends and the next one's begins — and every fifth line of
/// the partial last DSLAM.
fn proactive_targets(topology: &Topology) -> Vec<LineId> {
    let mut lines: Vec<LineId> = (0..10u32).map(|k| LineId((k * 97) % 1_000)).collect();
    for dslam in &topology.dslams {
        lines.extend([dslam.first_line, LineId(dslam.first_line.0 + dslam.n_lines - 1)]);
    }
    let last = topology.dslams.last().expect("the plant has DSLAMs");
    // 1,000 lines at 48 per DSLAM leave 40 lines in the 21st.
    assert_eq!((topology.dslams.len(), last.n_lines), (21, 40));
    lines.extend(last.lines().step_by(5));
    lines
}

#[test]
fn sharded_stepping_interoperates_with_proactive_dispatches() {
    // The operational loop: step day by day, injecting proactive
    // dispatches between days, under different shard counts.
    let run = |shards: usize| -> (String, Vec<LineId>) {
        let cfg = small_config(0x5AAD_ED03, 1_000, 90);
        let mut world = World::generate(cfg).with_shards(shards);
        let targets = proactive_targets(world.topology());
        while world.day() < world.config().days {
            world.step_day();
            // Every other Saturday, "rank" a deterministic set of lines.
            let day = world.day() - 1;
            if day % 14 == 6 {
                for &line in &targets {
                    world.schedule_proactive_dispatch(line, 2);
                }
            }
        }
        let out = world.into_output();
        let unvisited = targets
            .into_iter()
            .filter(|&line| !out.notes.iter().any(|n| n.proactive && n.line == line))
            .collect();
        (output_json(&out), unvisited)
    };
    let (serial, unvisited) = run(1);
    assert!(unvisited.is_empty(), "no proactive visit reached {unvisited:?}");
    for shards in SHARD_COUNTS {
        assert_eq!(serial, run(shards).0, "proactive trial diverged at {shards} shards");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (seed, shard count) pair: a tiny world's sharded output is
    /// byte-identical to its serial output.
    #[test]
    fn sharded_output_equals_serial(seed in 0u64..1_000, shards in 1usize..=16) {
        let cfg = small_config(seed, 400, 60);
        let serial = output_json(&World::generate(cfg.clone()).run());
        let sharded = output_json(&World::generate(cfg).with_shards(shards).run());
        prop_assert_eq!(serial, sharded);
    }
}
