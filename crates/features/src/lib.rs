//! # nevermind-features
//!
//! The Table-3 feature encoder: turns each line's sparse weekly measurement
//! history into the feature vector the ticket predictor consumes.
//!
//! The paper defines three families (Sec. 4.2):
//!
//! * **history features** — *basic* (this Saturday's 25 metrics), *delta*
//!   (change vs last week), and *time-series* (z-score vs the long-term
//!   history);
//! * **customer features** — *profile* (measured value ÷ the subscribed
//!   profile's expectation), *ticket* (days since the most recent trouble
//!   ticket), and *modem* (fraction of weekly tests the modem missed);
//! * **derived features** — *quadratic* (squares) and *product* (pairwise
//!   products) of the above, which let the linear BStump model capture
//!   variances and interactions.
//!
//! Categorical metrics are binary already (`state`, `bt`, `crosstalk`), so
//! the paper's binary expansion is the identity here; they are excluded
//! from quadratic derivation (a 0/1 squared is itself).
//!
//! [`incremental`] holds the weekly encoder and the one per-line routine
//! that fills a base row; [`encode`] the batch encoder, which replays each
//! line of a fixed log through that routine, the derived-feature
//! enumerations and `assemble`, the one builder of a model's feature space;
//! [`indexes`] the per-line measurement/ticket views the replay reads (and
//! the core crate's label lookups); [`store`] the week-major columnar
//! [`FeatureStore`] the weekly encoder writes and every downstream reader
//! (scoring, telemetry, provenance) borrows zero-copy; and [`registry`] the
//! feature taxonomy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod incremental;
pub mod indexes;
pub mod registry;
pub mod store;

pub use encode::{BaseEncoder, EncodedDataset};
pub use incremental::IncrementalEncoder;
pub use indexes::{MeasurementIndex, TicketIndex};
pub use registry::{DerivedFeature, FeatureClass};
pub use store::{FeatureStore, Retention, StoreError, WeekFrame};
