//! The experiment harness: the `experiments` binary regenerates each table
//! and figure of the paper's evaluation.
//!
//! [`ctx::Ctx`] simulates one world and lazily fits/caches the predictor,
//! ranking, and locator that most experiments share; [`report`] holds the
//! plain-text table/histogram rendering and JSON persistence; [`exp`]
//! implements one regeneration function per table/figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod exp;
pub mod report;
