//! Property tests for the week-major feature store: both encoders must
//! fill byte-identical stores, and the `nevermind-store/v1` wire format
//! must round-trip byte-for-byte.
//!
//! This is the store-level statement of the workspace's encoder
//! equivalence: `BaseEncoder` (batch, rebuilt from truncated logs each
//! week, replaying each line) and `IncrementalEncoder` (weekly, sharded)
//! drive the same per-line routine, so the frames they fill — values,
//! missing bitmaps, labels — must agree exactly, for every lane subset,
//! shard count and plant size. The weekly writer encodes straight into
//! the frame in parts cut on 64-line bitmap words, so the plant sizes
//! include whole words, a ragged last word and plants under one word.

use nevermind_dslsim::{SimConfig, SimOutput, World};
use nevermind_features::encode::{BaseEncoder, EncoderConfig};
use nevermind_features::{FeatureStore, IncrementalEncoder, Retention};
use proptest::prelude::*;

fn sim(seed: u64) -> (Vec<nevermind_dslsim::topology::Line>, SimOutput) {
    sim_lines(seed, SimConfig::small(seed).n_lines)
}

fn sim_lines(seed: u64, n_lines: usize) -> (Vec<nevermind_dslsim::topology::Line>, SimOutput) {
    let cfg = SimConfig { n_lines, ..SimConfig::small(seed) };
    let world = World::generate(cfg);
    let lines = world.topology().lines.clone();
    (lines, world.run())
}

/// Distinct, sorted base-column indices drawn from the full encoder width.
fn lane_subset(picks: &[u32]) -> Vec<usize> {
    let width = BaseEncoder::base_meta().0.len();
    let mut cols: Vec<usize> = picks.iter().map(|&i| i as usize % width).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One store filled by weekly truncated-log `BaseEncoder` runs, one by
    /// a streaming sharded `IncrementalEncoder` writing straight into its
    /// lanes — identical export bytes, and those bytes survive an import →
    /// export round trip unchanged.
    #[test]
    fn both_encoders_fill_byte_identical_stores(
        seed in 0u64..1000,
        n_lines in prop_oneof![Just(2_000usize), Just(1_024), Just(1_025), 1usize..200],
        weeks in 2usize..6,
        shards in 1usize..8,
        picks in prop::collection::vec(any::<u32>(), 1..10),
    ) {
        let (lines, out) = sim_lines(seed, n_lines);
        let ecfg = EncoderConfig::default();
        let cols = lane_subset(&picks);

        let mut base_store = FeatureStore::new(lines.len(), &cols, &ecfg);
        base_store.set_retention(Retention::All);
        let mut inc_store = FeatureStore::new(lines.len(), &cols, &ecfg);
        inc_store.set_retention(Retention::All);

        let mut inc = IncrementalEncoder::new(&lines, ecfg.clone());
        let (mut m_cursor, mut t_cursor) = (0usize, 0usize);
        for day in (6..out.days).step_by(7).skip(4).take(weeks) {
            let m_end = out.measurements.partition_point(|m| m.day <= day);
            let t_end = out.tickets.partition_point(|t| t.day <= day);
            inc.ingest_sharded(
                &out.measurements[m_cursor..m_end],
                &out.tickets[t_cursor..t_end],
                shards,
            );
            (m_cursor, t_cursor) = (m_end, t_end);

            let batch = BaseEncoder::new(
                &lines,
                &out.measurements[..m_end],
                &out.tickets[..t_end],
                ecfg.clone(),
            );
            base_store.ingest_frame(day, &batch.encode(&[day]).select_columns(&cols));
            inc.encode_week_into(day, shards, &mut inc_store);
        }

        let bytes = base_store.export();
        prop_assert_eq!(&bytes, &inc_store.export(), "encoder writers disagree");

        let reloaded = FeatureStore::import(&bytes).expect("own export must import");
        prop_assert_eq!(reloaded.export(), bytes, "round trip must be byte-stable");
    }
}

/// The missing bitmap is exactly the encoder's NaN set: a bit is set iff
/// the encoded value was NaN, `value()` restores NaN for those cells, and
/// every present cell keeps its exact bit pattern.
#[test]
fn missing_bitmap_agrees_with_encoder_nans() {
    let (lines, out) = sim(77);
    let ecfg = EncoderConfig::default();
    let width = BaseEncoder::base_meta().0.len();
    let cols: Vec<usize> = (0..width).collect();
    let enc = BaseEncoder::new(&lines, &out.measurements, &out.tickets, ecfg.clone());

    let day = 20 * 7 + 6;
    let ds = enc.encode(&[day]);
    let mut store = FeatureStore::new(lines.len(), &cols, &ecfg);
    let frame = store.ingest_frame(day, &ds.select_columns(&cols));

    let mut nan_cells = 0usize;
    for (lane, &col) in cols.iter().enumerate() {
        for row in 0..lines.len() {
            let orig = ds.data.x.get(row, col);
            assert_eq!(
                frame.is_missing(lane, row),
                orig.is_nan(),
                "bitmap vs NaN at lane {lane} row {row}"
            );
            let got = frame.value(lane, row);
            if orig.is_nan() {
                assert!(got.is_nan(), "missing cell must read back as NaN");
                nan_cells += 1;
            } else {
                assert_eq!(got.to_bits(), orig.to_bits(), "present cell bits");
            }
        }
    }
    assert!(nan_cells > 0, "simulated logs must exercise missing cells");
    assert_eq!(frame.labels_vec(), ds.data.y);
}
