//! The weekly line test and its 25 metrics (Table 2).
//!
//! Every Saturday each DSLAM initiates a short conversation with the modem
//! on each of its lines and derives the metrics below. If the modem does not
//! answer (off, unpowered, or dead), there is **no record** for that line
//! that week — the missingness itself is informative and is consumed by the
//! encoder's "modem" customer feature.

use crate::ids::LineId;
use serde::{Deserialize, Serialize};

/// Number of per-test metrics.
pub const N_METRICS: usize = 25;

/// The 25 line features of Table 2. Prefixes `Dn`/`Up` are the paper's
/// `dn`/`up` (downstream/upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // Each variant documented via `description()`.
pub enum LineMetric {
    State,
    DnBr,
    UpBr,
    DnPwr,
    UpPwr,
    DnNmr,
    UpNmr,
    DnAten,
    UpAten,
    DnRelCap,
    UpRelCap,
    DnCvCnt1,
    DnCvCnt2,
    DnCvCnt3,
    DnEsCnt1,
    DnEsCnt2,
    DnFecCnt1,
    HiCar,
    Bt,
    Crosstalk,
    LoopLength,
    DnMaxAttainFbr,
    UpMaxAttainFbr,
    DnCells,
    UpCells,
}

impl LineMetric {
    /// All metrics in canonical (array-index) order.
    pub const ALL: [LineMetric; N_METRICS] = [
        LineMetric::State,
        LineMetric::DnBr,
        LineMetric::UpBr,
        LineMetric::DnPwr,
        LineMetric::UpPwr,
        LineMetric::DnNmr,
        LineMetric::UpNmr,
        LineMetric::DnAten,
        LineMetric::UpAten,
        LineMetric::DnRelCap,
        LineMetric::UpRelCap,
        LineMetric::DnCvCnt1,
        LineMetric::DnCvCnt2,
        LineMetric::DnCvCnt3,
        LineMetric::DnEsCnt1,
        LineMetric::DnEsCnt2,
        LineMetric::DnFecCnt1,
        LineMetric::HiCar,
        LineMetric::Bt,
        LineMetric::Crosstalk,
        LineMetric::LoopLength,
        LineMetric::DnMaxAttainFbr,
        LineMetric::UpMaxAttainFbr,
        LineMetric::DnCells,
        LineMetric::UpCells,
    ];

    /// Index of this metric in the canonical order: its discriminant, as
    /// the variants are declared in [`Self::ALL`]'s order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's lowercase feature name (Table 2).
    pub fn name(self) -> &'static str {
        match self {
            LineMetric::State => "state",
            LineMetric::DnBr => "dnbr",
            LineMetric::UpBr => "upbr",
            LineMetric::DnPwr => "dnpwr",
            LineMetric::UpPwr => "uppwr",
            LineMetric::DnNmr => "dnnmr",
            LineMetric::UpNmr => "upnmr",
            LineMetric::DnAten => "dnaten",
            LineMetric::UpAten => "upaten",
            LineMetric::DnRelCap => "dnrelcap",
            LineMetric::UpRelCap => "uprelcap",
            LineMetric::DnCvCnt1 => "dncvcnt1",
            LineMetric::DnCvCnt2 => "dncvcnt2",
            LineMetric::DnCvCnt3 => "dncvcnt3",
            LineMetric::DnEsCnt1 => "dnescnt1",
            LineMetric::DnEsCnt2 => "dnescnt2",
            LineMetric::DnFecCnt1 => "dnfeccnt1",
            LineMetric::HiCar => "hicar",
            LineMetric::Bt => "bt",
            LineMetric::Crosstalk => "crosstalk",
            LineMetric::LoopLength => "looplength",
            LineMetric::DnMaxAttainFbr => "dnmaxattainfbr",
            LineMetric::UpMaxAttainFbr => "upmaxattainfbr",
            LineMetric::DnCells => "dncells",
            LineMetric::UpCells => "upcells",
        }
    }

    /// Table-2 description.
    pub fn description(self) -> &'static str {
        match self {
            LineMetric::State => "if the modem is on",
            LineMetric::DnBr | LineMetric::UpBr => "bit rate (kbps)",
            LineMetric::DnPwr | LineMetric::UpPwr => "signal power",
            LineMetric::DnNmr | LineMetric::UpNmr => "noise margin",
            LineMetric::DnAten | LineMetric::UpAten => "signal attenuation",
            LineMetric::DnRelCap | LineMetric::UpRelCap => "relative capacity",
            LineMetric::DnCvCnt1 | LineMetric::DnCvCnt2 | LineMetric::DnCvCnt3 => {
                "code violation interval counts with different thresholds"
            }
            LineMetric::DnEsCnt1 | LineMetric::DnEsCnt2 => {
                "the number of seconds in which code violations occurred"
            }
            LineMetric::DnFecCnt1 => {
                "downstream forward error correction counts with value not less than 50"
            }
            LineMetric::HiCar => "the biggest carrier number",
            LineMetric::Bt => "the existence of a bridge tap",
            LineMetric::Crosstalk => "the existence of cross talk",
            LineMetric::LoopLength => "estimated loop length",
            LineMetric::DnMaxAttainFbr | LineMetric::UpMaxAttainFbr => {
                "maximum attainable fast bit rate"
            }
            LineMetric::DnCells | LineMetric::UpCells => "rolling count of cells",
        }
    }

    /// Whether the metric is categorical (binary) rather than continuous.
    /// Categorical metrics are binary-expanded by the feature encoder
    /// (paper, footnote 2).
    pub fn is_categorical(self) -> bool {
        matches!(self, LineMetric::State | LineMetric::Bt | LineMetric::Crosstalk)
    }
}

/// One completed line test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineTest {
    /// The tested line.
    pub line: LineId,
    /// Simulation day of the test (always a Saturday).
    pub day: u32,
    /// Metric values in [`LineMetric::ALL`] order.
    pub values: [f32; N_METRICS],
}

impl LineTest {
    /// Value of one metric.
    #[inline]
    pub fn get(&self, metric: LineMetric) -> f32 {
        self.values[metric.index()]
    }

    /// Week index (Saturday tests: week = day / 7).
    #[inline]
    pub fn week(&self) -> u32 {
        self.day / 7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_metrics() {
        assert_eq!(LineMetric::ALL.len(), 25);
        assert_eq!(N_METRICS, 25);
    }

    #[test]
    fn names_unique_and_lowercase() {
        let mut names: Vec<&str> = LineMetric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25);
        for n in names {
            assert_eq!(n, n.to_lowercase());
        }
    }

    #[test]
    fn index_roundtrip() {
        for (i, m) in LineMetric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn three_categorical_metrics() {
        let cats: Vec<LineMetric> =
            LineMetric::ALL.iter().copied().filter(|m| m.is_categorical()).collect();
        assert_eq!(cats, vec![LineMetric::State, LineMetric::Bt, LineMetric::Crosstalk]);
    }

    #[test]
    fn line_test_accessors() {
        let mut values = [0f32; N_METRICS];
        values[LineMetric::DnBr.index()] = 768.0;
        let t = LineTest { line: LineId(3), day: 13, values };
        assert_eq!(t.get(LineMetric::DnBr), 768.0);
        assert_eq!(t.week(), 1);
    }
}
