//! # nevermind
//!
//! Reproduction of **NEVERMIND** (Jin, Duffield, Gerber, Haffner, Sen,
//! Zhang — *"NEVERMIND, the problem is already fixed: proactively detecting
//! and troubleshooting customer DSL problems"*, ACM CoNEXT 2010).
//!
//! NEVERMIND replaces the reactive wait-for-the-customer-to-call DSL
//! troubleshooting loop with a proactive one built from two components:
//!
//! * the **ticket predictor** ([`predictor`]) encodes each line's sparse
//!   weekly measurements (Table 3), selects features by **top-N average
//!   precision** (Sec. 4.3), trains a **BStump** boosted-stump classifier
//!   (Sec. 4.4) and ranks the whole population by the calibrated
//!   probability of a customer ticket within four weeks; the operator
//!   dispatches the top-`B` lines (the ATDS weekly budget — 20K in the
//!   paper's network) before the customers call;
//! * the **trouble locator** ([`locator`]) gives the dispatched technician
//!   a ranked list of the 52 repair dispositions, via a flat
//!   one-vs-rest model or the **combined model** (Eq. 2) that fuses each
//!   disposition's classifier with its parent major-location classifier.
//!
//! [`analysis`] reproduces the paper's evaluation analyses (time-to-ticket
//! CDFs, the Table-5 outage/IVR attribution, the not-on-site traffic
//! check), [`comparison`] measures the Sec.-4.4 model-choice claim
//! (BStump vs linear, Naive Bayes and CART under label noise), [`scoring`]
//! holds the incremental weekly scoring engine (streaming encoder +
//! compiled parallel scorer + partial top-`B` selection) that the
//! operational loop re-ranks the population with, [`telemetry`] watches the
//! fitted model for input-feature drift, score-distribution shift and
//! calibration decay against its training-window reference, and
//! [`pipeline`] wires everything to the simulator for the operational
//! proactive loop.
//!
//! ## Quickstart
//!
//! ```no_run
//! use nevermind::pipeline::{ExperimentData, SplitSpec};
//! use nevermind::predictor::{PredictorConfig, TicketPredictor};
//! use nevermind_dslsim::SimConfig;
//!
//! // Simulate a year of a 20k-line DSL network and split it like the paper.
//! let data = ExperimentData::simulate(SimConfig::default());
//! let split = SplitSpec::paper_like(&data).expect("default horizon fits the protocol");
//!
//! // Train the predictor and rank the test population.
//! let cfg = PredictorConfig::default();
//! let (predictor, report) = TicketPredictor::fit(&data, &split, &cfg).expect("training data is well-formed");
//! let ranking = predictor.rank(&data, &split.test_days);
//! let budget = cfg.budget(ranking.len());
//! println!("precision@{budget}: {:.3}", ranking.precision_at(budget));
//! println!("{} features selected", report.n_selected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod comparison;
pub mod error;
pub mod locator;
pub mod pipeline;
pub mod predictor;
pub mod provenance;
pub mod scoring;
pub mod telemetry;

pub use error::PipelineError;
pub use locator::{LocatorConfig, TroubleLocator};
pub use pipeline::{ExperimentData, SplitSpec, TrialOptions, TrialResult};
pub use predictor::{PredictorConfig, RankedPredictions, TicketPredictor};
pub use scoring::WeeklyScorer;
pub use telemetry::{ModelHealthMonitor, TelemetryConfig, TelemetryReport, MODEL_HEALTH_RULES};
