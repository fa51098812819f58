//! Recoverable pipeline errors.
//!
//! The operational loop runs unattended every Saturday; a malformed week of
//! measurements (a truncated horizon, an empty evaluation window, a NaN
//! margin from a corrupted reading) must surface as an error the caller can
//! log and skip, never as a panic mid-dispatch. Everything that used to
//! `assert!` on operational data in this crate now returns
//! [`PipelineError`].

use nevermind_ml::CalibrateError;

/// Why training, splitting or an operational trial was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The horizon cannot fit the paper's split protocol (train →
    /// selection-eval → test, each with label-complete Saturdays).
    SplitTooShort {
        /// Which window could not be carved.
        window: &'static str,
        /// Human-readable detail (counts, boundary days).
        detail: String,
    },
    /// A calibration fit was rejected — see [`CalibrateError`].
    Calibration(CalibrateError),
    /// A model was asked to train on zero examples.
    NoTrainingExamples {
        /// Which model had nothing to train on.
        model: &'static str,
    },
    /// A trial's warm-up window consumed the whole simulated horizon.
    WarmupExceedsHorizon {
        /// First day the proactive policy would switch on.
        policy_start_day: u32,
        /// Simulated horizon length in days.
        days: u32,
    },
    /// A resume checkpoint's feature store does not fit this trial —
    /// different encoder configuration, population size, or lane set.
    StoreMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A deserialized predictor is internally inconsistent — a stump or
    /// selected column out of range, or a non-finite parameter — so using
    /// it would index out of bounds or score garbage.
    InvalidModel {
        /// Which check failed, with the offending value.
        detail: String,
    },
    /// A deserialized dataset's logs name a line outside its topology or a
    /// disposition code past the table, so the per-line or per-disposition
    /// indexes would read out of bounds.
    InvalidDataset {
        /// The offending record and its id.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SplitTooShort { window, detail } => {
                write!(f, "horizon too short for the {window} window: {detail}")
            }
            Self::Calibration(e) => write!(f, "calibration failed: {e}"),
            Self::NoTrainingExamples { model } => {
                write!(f, "no training examples for the {model}")
            }
            Self::WarmupExceedsHorizon { policy_start_day, days } => {
                write!(
                    f,
                    "warm-up longer than the horizon: policy would start day \
                     {policy_start_day} of {days}"
                )
            }
            Self::StoreMismatch { detail } => {
                write!(f, "resume store does not match this trial: {detail}")
            }
            Self::InvalidModel { detail } => write!(f, "invalid model: {detail}"),
            Self::InvalidDataset { detail } => write!(f, "invalid dataset: {detail}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Calibration(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CalibrateError> for PipelineError {
    fn from(e: CalibrateError) -> Self {
        Self::Calibration(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_cause() {
        let e = PipelineError::from(CalibrateError::NonFiniteMargin { index: 7 });
        assert!(e.to_string().contains("non-finite margin at index 7"), "{e}");
        let e = PipelineError::WarmupExceedsHorizon { policy_start_day: 90, days: 60 };
        assert!(e.to_string().contains("90"), "{e}");
    }

    #[test]
    fn source_chains_to_calibrate_error() {
        use std::error::Error;
        let e = PipelineError::from(CalibrateError::Empty);
        assert!(e.source().is_some());
        assert!(PipelineError::NoTrainingExamples { model: "locator" }.source().is_none());
    }
}
