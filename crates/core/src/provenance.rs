//! Decision-provenance emission for the weekly proactive loop.
//!
//! Every ranked Saturday, [`emit_week_trace`] writes the events that let
//! `nevermind explain` reconstruct a line's causal chain afterwards:
//!
//! * one `dispatch_week` event with the cutoff decision (population,
//!   budget, the last dispatched probability);
//! * per traced line: a `score` event (ensemble margin), up to
//!   [`TOP_STUMPS`] `stump` events (feature id/name, value, threshold,
//!   vote — the stump-level margin contributions), a `calibrate` event
//!   (emitted by [`PlattScale::probability_traced`]) and a `rank` event
//!   (rank position, calibrated probability, dispatched or not).
//!
//! Traced lines follow the sampling policy in [`nevermind_obs::trace`]:
//! the dispatched head is always traced, plus a deterministic
//! day-seeded reservoir of non-dispatched lines.
//!
//! Everything here *reads* the scoring path — each traced row is
//! re-expanded from the store frame the week was ranked from, through the
//! plan its margin was computed with
//! ([`WeeklyScorer::traced_assembled_row`]) — so rankings and dispatches
//! are bit-identical with tracing on or off, and the reconstructed margin
//! is bit-identical to the ranked one (pinned by the root `trace` tests).
//!
//! [`PlattScale::probability_traced`]: nevermind_ml::calibrate::PlattScale::probability_traced

use crate::predictor::{RankedPredictions, TicketPredictor};
use crate::scoring::WeeklyScorer;
use nevermind_ml::rank::{rank_of, top_k};
use nevermind_obs::trace::{self, TraceEvent};

/// Stump-level contributions traced per line, strongest first.
pub const TOP_STUMPS: usize = 5;

/// Salt mixed into the day-seeded reservoir draw so the trace sample is
/// decorrelated from every simulator RNG stream.
const RESERVOIR_SALT: u64 = 0x7472_6163_655F_7631; // "trace_v1"

/// Emits the week's provenance events for a just-computed ranking. No-op
/// (one relaxed atomic load) while tracing is disabled; never perturbs the
/// ranking it describes.
pub fn emit_week_trace(
    scorer: &WeeklyScorer<'_>,
    predictor: &TicketPredictor,
    ranking: &RankedPredictions,
    budget: usize,
    day: u32,
) {
    if !trace::enabled() || ranking.is_empty() {
        return;
    }
    let top = top_k(&ranking.probabilities, budget);
    let mut week = TraceEvent::new("dispatch_week")
        .day(day)
        .attr("population", ranking.len())
        .attr("budget", budget)
        .attr("dispatched", top.len());
    if let Some(&row) = top.last() {
        week = week.attr("cutoff_probability", ranking.probabilities[row]);
    }
    trace::global().emit(week);

    // The dispatched head is always traced, as (row, rank, dispatched) ...
    let mut traced: Vec<(usize, usize, bool)> =
        top.iter().enumerate().map(|(pos, &row)| (row, pos + 1, true)).collect();
    // ... plus a deterministic reservoir of the rest, so the export can
    // also explain lines the policy chose *not* to dispatch. Their ranks
    // follow the ranking's own order, ties included.
    let k = trace::global().policy().reservoir_per_week;
    for row in trace::sample_indices(u64::from(day) ^ RESERVOIR_SALT, ranking.len(), k) {
        if !traced.iter().any(|&(r, _, _)| r == row) {
            traced.push((row, rank_of(&ranking.probabilities, row), false));
        }
    }

    let names = predictor.assembled_feature_names();
    for &(row, rank, dispatched) in &traced {
        let Some(assembled) = scorer.traced_assembled_row(row) else {
            continue;
        };
        let key = ranking.rows[row];
        emit_scored_line(
            predictor,
            &names,
            &assembled,
            (key.line.0, day),
            (rank, ranking.probabilities[row], dispatched),
        );
    }
}

/// Emits one line's `score` → `stump`* → `calibrate` → `rank` provenance
/// chain from its assembled feature row. `key` is `(line, day)`;
/// `outcome` is `(rank, ranked probability, dispatched)`. Shared by the
/// weekly loop ([`emit_week_trace`]) and the CLI's batch `rank` path.
pub fn emit_scored_line(
    predictor: &TicketPredictor,
    names: &[String],
    assembled: &[f32],
    key: (u32, u32),
    outcome: (usize, f64, bool),
) {
    if !trace::enabled() {
        return;
    }
    let (line, day) = key;
    let (rank, ranked_probability, dispatched) = outcome;
    let margin = predictor.model().margin(assembled);
    trace::global().emit(
        TraceEvent::new("score")
            .line(line)
            .day(day)
            .attr("margin", margin)
            .attr("stumps", predictor.model().stumps().len()),
    );

    // Stump-level contributions: every stump that voted (NaN features
    // abstain with vote 0), strongest |vote| first, index-stable ties.
    let stumps = predictor.model().stumps();
    let mut votes: Vec<(usize, f64)> = stumps
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.score(assembled)))
        .filter(|&(_, v)| v != 0.0)
        .collect();
    votes.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
    for (order, &(si, vote)) in votes.iter().take(TOP_STUMPS).enumerate() {
        let stump = &stumps[si];
        let name = names.get(stump.feature).map_or("?", String::as_str);
        let value = assembled.get(stump.feature).copied().unwrap_or(f32::NAN);
        trace::global().emit(
            TraceEvent::new("stump")
                .line(line)
                .day(day)
                .attr("order", order)
                .attr("feature", stump.feature)
                .attr("name", name)
                .attr("value", value)
                .attr("threshold", stump.threshold)
                .attr("vote", vote),
        );
    }

    // The calibration step emits its own "calibrate" event; its output is
    // bit-identical to the ranked probability (same margin, same sigmoid).
    let _ = predictor.calibration().probability_traced(margin, line, day);
    trace::global().emit(
        TraceEvent::new("rank")
            .line(line)
            .day(day)
            .attr("rank", rank)
            .attr("probability", ranked_probability)
            .attr("dispatched", dispatched),
    );
}
