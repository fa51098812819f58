//! Plant topology: region → BRAS → DSLAM → crossbox → line.
//!
//! Loop lengths follow a right-skewed distribution with a tail past the
//! paper's 15,000 ft rule-of-thumb (long loops can't sustain fast profiles
//! and end up needing speed downgrades). Profile assignment is loosely
//! anti-correlated with loop length — as in practice, where provisioning
//! checks are imperfect and some customers are sold more speed than their
//! copper can carry. Those mismatched lines are exactly the ones the paper's
//! `DS-SPEED-DOWN` disposition exists for.

use crate::config::SimConfig;
use crate::ids::{BrasId, CrossboxId, DslamId, LineId, RegionId};
use crate::profile::ServiceProfile;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One subscriber line and its static plant attributes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Line {
    /// Line id (== index in [`Topology::lines`]).
    pub id: LineId,
    /// Terminating DSLAM.
    pub dslam: DslamId,
    /// Crossbox on the way to the DSLAM.
    pub crossbox: CrossboxId,
    /// True physical loop length in feet.
    pub loop_length_ft: f64,
    /// Subscribed service tier.
    pub profile: ServiceProfile,
    /// Whether the plant has a legacy bridge tap on this pair.
    pub has_bridge_tap: bool,
}

/// A DSLAM and its position in the hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dslam {
    /// DSLAM id (== index in [`Topology::dslams`]).
    pub id: DslamId,
    /// Upstream BRAS.
    pub bras: BrasId,
    /// Geographic region.
    pub region: RegionId,
    /// Lines terminated here (contiguous id range).
    pub first_line: LineId,
    /// Number of lines terminated here.
    pub n_lines: u32,
}

impl Dslam {
    /// Iterator over the line ids this DSLAM terminates.
    pub fn lines(&self) -> impl Iterator<Item = LineId> {
        (self.first_line.0..self.first_line.0 + self.n_lines).map(LineId)
    }
}

/// The full static plant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// All lines, indexed by [`LineId`].
    pub lines: Vec<Line>,
    /// All DSLAMs, indexed by [`DslamId`].
    pub dslams: Vec<Dslam>,
    /// Number of BRAS servers.
    pub n_bras: usize,
    /// Number of regions.
    pub n_regions: usize,
    /// Number of crossboxes.
    pub n_crossboxes: usize,
}

impl Topology {
    /// Generates the plant deterministically from the configuration.
    pub fn generate(config: &SimConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n_dslams = config.n_dslams();
        let n_bras = config.n_bras();

        let mut dslams = Vec::with_capacity(n_dslams);
        let mut lines = Vec::with_capacity(config.n_lines);
        let mut crossbox_counter = 0u32;

        for d in 0..n_dslams {
            let first_line = LineId(lines.len() as u32);
            let remaining = config.n_lines - lines.len();
            let n_here = config.lines_per_dslam.min(remaining) as u32;
            let bras = BrasId((d / config.dslams_per_bras) as u16);
            let region = RegionId((bras.0 as usize % config.n_regions) as u16);
            let dslam_id = DslamId(d as u32);

            // Crossboxes for this DSLAM: contiguous block.
            let first_crossbox = crossbox_counter;
            crossbox_counter += config.crossboxes_per_dslam as u32;

            // A per-DSLAM central loop length: DSLAMs serve neighbourhoods,
            // so loop lengths cluster within one.
            let hub_ft: f64 = rng.random_range(2_000.0..12_000.0);

            for l in 0..n_here {
                let id = LineId(first_line.0 + l);
                let crossbox =
                    CrossboxId(first_crossbox + (l as usize % config.crossboxes_per_dslam) as u32);
                // Right-skewed spread around the hub: some subscribers sit
                // much further out than the neighbourhood center.
                let spread: f64 = rng.random_range(0.0f64..1.0);
                let loop_length_ft =
                    (hub_ft + 8_000.0 * spread * spread * spread + rng.random_range(0.0..1_500.0))
                        .clamp(500.0, 24_000.0);

                // Profile assignment: longer loops skew toward slower tiers,
                // but provisioning is imperfect — a fraction of long loops
                // still get fast profiles (future speed-downgrade cases).
                let p_fast =
                    (1.2 - loop_length_ft / 16_000.0 + config.overprovision_bias).clamp(0.05, 0.95);
                let profile = if rng.random_bool(p_fast) {
                    if rng.random_bool(0.5) {
                        ServiceProfile::Advanced
                    } else {
                        ServiceProfile::Mid
                    }
                } else {
                    ServiceProfile::Basic
                };

                let has_bridge_tap = rng.random_bool(0.08);

                lines.push(Line {
                    id,
                    dslam: dslam_id,
                    crossbox,
                    loop_length_ft,
                    profile,
                    has_bridge_tap,
                });
            }

            dslams.push(Dslam { id: dslam_id, bras, region, first_line, n_lines: n_here });
            if lines.len() >= config.n_lines {
                break;
            }
        }

        Self {
            lines,
            dslams,
            n_bras,
            n_regions: config.n_regions,
            n_crossboxes: crossbox_counter as usize,
        }
    }

    /// The line record for an id.
    #[inline]
    pub fn line(&self, id: LineId) -> &Line {
        &self.lines[id.index()]
    }

    /// The DSLAM record for an id.
    #[inline]
    pub fn dslam(&self, id: DslamId) -> &Dslam {
        &self.dslams[id.index()]
    }

    /// DSLAM terminating a given line.
    #[inline]
    pub fn dslam_of(&self, line: LineId) -> DslamId {
        self.line(line).dslam
    }

    /// BRAS above a given line.
    #[inline]
    pub fn bras_of(&self, line: LineId) -> BrasId {
        self.dslam(self.line(line).dslam).bras
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (SimConfig, Topology) {
        let cfg = SimConfig::small(42);
        let topo = Topology::generate(&cfg, 7);
        (cfg, topo)
    }

    #[test]
    fn line_count_matches_config() {
        let (cfg, topo) = small();
        assert_eq!(topo.lines.len(), cfg.n_lines);
    }

    #[test]
    fn line_ids_are_indices() {
        let (_, topo) = small();
        for (i, line) in topo.lines.iter().enumerate() {
            assert_eq!(line.id.index(), i);
        }
    }

    #[test]
    fn dslam_ranges_partition_lines() {
        let (_, topo) = small();
        let mut covered = vec![false; topo.lines.len()];
        for dslam in &topo.dslams {
            for lid in dslam.lines() {
                assert!(!covered[lid.index()], "line {} in two DSLAMs", lid);
                covered[lid.index()] = true;
                assert_eq!(topo.line(lid).dslam, dslam.id);
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn dslam_size_is_several_tens() {
        let (cfg, topo) = small();
        for dslam in &topo.dslams[..topo.dslams.len() - 1] {
            assert_eq!(dslam.n_lines as usize, cfg.lines_per_dslam);
        }
    }

    #[test]
    fn hierarchy_is_consistent() {
        let (cfg, topo) = small();
        for dslam in &topo.dslams {
            assert!(dslam.bras.index() < topo.n_bras);
            assert!(dslam.region.index() < cfg.n_regions);
            assert_eq!(dslam.bras.0 as usize, dslam.id.index() / cfg.dslams_per_bras);
        }
    }

    #[test]
    fn loop_lengths_are_plausible_with_long_tail() {
        let (_, topo) = small();
        let lengths: Vec<f64> = topo.lines.iter().map(|l| l.loop_length_ft).collect();
        assert!(lengths.iter().all(|&ft| (500.0..=24_000.0).contains(&ft)));
        let long = lengths.iter().filter(|&&ft| ft > 15_000.0).count();
        assert!(long > 0, "expected some loops past 15kft");
        assert!((long as f64) < 0.35 * lengths.len() as f64, "tail too heavy: {long}");
    }

    #[test]
    fn some_fast_profiles_on_long_loops() {
        // The provisioning mismatch that feeds DS-SPEED-DOWN must exist.
        let (_, topo) = small();
        let mismatched =
            topo.lines.iter().filter(|l| l.loop_length_ft > l.profile.marginal_loop_ft()).count();
        assert!(mismatched > 0, "no profile/loop mismatches generated");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SimConfig::small(9);
        let a = Topology::generate(&cfg, 3);
        let b = Topology::generate(&cfg, 3);
        assert_eq!(a.lines.len(), b.lines.len());
        for (la, lb) in a.lines.iter().zip(&b.lines) {
            assert_eq!(la.loop_length_ft, lb.loop_length_ft);
            assert_eq!(la.profile, lb.profile);
        }
        let c = Topology::generate(&cfg, 4);
        assert!(
            a.lines.iter().zip(&c.lines).any(|(x, y)| x.loop_length_ft != y.loop_length_ft),
            "different seed should change the plant"
        );
    }

    #[test]
    fn crossboxes_subdivide_dslams() {
        let (cfg, topo) = small();
        for dslam in &topo.dslams {
            let mut boxes: Vec<u32> = dslam.lines().map(|l| topo.line(l).crossbox.0).collect();
            boxes.sort_unstable();
            boxes.dedup();
            assert!(boxes.len() <= cfg.crossboxes_per_dslam);
            assert!(!boxes.is_empty());
        }
    }
}
