//! The simulated world: a day-by-day event loop over the whole plant.
//!
//! Each simulated day the world advances customers (usage, awareness,
//! calls), fault processes (onsets, self-healing), outages (precursor
//! stress, hard-down, IVR), dispatches (technician visits, repairs,
//! disposition notes), traffic counters, and — on Saturdays — the weekly
//! line tests.
//!
//! Two modes of use:
//!
//! * **Offline (the paper's evaluation setting):** [`World::run`] simulates
//!   the full horizon reactively and returns the accumulated [`SimOutput`]
//!   logs, which the learning pipeline then splits into train/test windows.
//! * **Operational (the NEVERMIND loop):** drive [`World::step_day`]
//!   yourself, inspect [`World::output`] after each Saturday, and inject
//!   [`World::schedule_proactive_dispatch`] calls for the predictor's
//!   top-ranked lines.
//!
//! # Sharded stepping
//!
//! The plant is partitioned by DSLAM subtree into [`World::with_shards`]
//! contiguous shards. Every DSLAM owns five ChaCha8 streams (fault,
//! customer, measure, dispatch, misc), each seeded
//! `subseed(subseed(world_seed, subsystem), dslam_id)` — so the draw
//! sequence behind any line depends only on its DSLAM, never on how many
//! shards the plant happens to be split into. `step_day` steps the shards
//! as [`nevermind_obs::par`] parts, each writing tickets, notes,
//! measurements, traffic and trace events into a private per-day buffer;
//! the buffers are merged in shard order (= plant line order) with ticket
//! ids renumbered at the merge. One shard runs the identical
//! buffer-and-merge code inline, which is what makes `--shards N`
//! bit-identical to serial for every `N` (see `tests/sharding.rs`).

use crate::config::{DayOfWeek, SimConfig};
use crate::customer::{generate_customers, Customer};
use crate::dispatch::{basic_order, run_dispatch, taxonomy_priors, DispositionNote};
use crate::disposition::{DispositionId, FaultClass, N_DISPOSITIONS};
use crate::fault::{disposition_weights, Fault};
use crate::ids::{DslamId, LineId};
use crate::measurement::LineTest;
use crate::outage::{OutageEvent, OutageSchedule};
use crate::physics::{combine_effects, modem_answers, synthesize};
use crate::ticket::{Ticket, TicketCategory};
use crate::topology::Topology;
use crate::traffic::TrafficTable;
use crate::weather::{ExogenousCalendar, CONSTRUCTION_MULTIPLIER, WET_MULTIPLIER};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A customer call suppressed by the outage IVR (the call happened, the
/// ticket did not — Sec. 5.2's first scenario).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IvrCall {
    /// Calling customer's line.
    pub line: LineId,
    /// Day of the suppressed call.
    pub day: u32,
}

/// A customer terminating their contract after a problem dragged on —
/// the churn the paper's proactive approach is motivated by ("a lengthy
/// resolution can lead to customer dissatisfaction and ultimately lead to
/// churn").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// The departing customer's line.
    pub line: LineId,
    /// Day of the termination.
    pub day: u32,
}

/// Accumulated logs of one simulation run — the synthetic counterparts of
/// the paper's four data sources (plus the outage and IVR side-channels).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutput {
    /// Completed weekly line tests.
    pub measurements: Vec<LineTest>,
    /// All tickets (customer edge, outage, non-technical).
    pub tickets: Vec<Ticket>,
    /// Disposition notes from dispatches and remote resolutions.
    pub notes: Vec<DispositionNote>,
    /// Scheduled DSLAM outages that fell inside the horizon.
    pub outage_events: Vec<OutageEvent>,
    /// Daily traffic counters for the sampled BRAS servers.
    pub traffic: TrafficTable,
    /// IVR-suppressed calls.
    pub ivr_calls: Vec<IvrCall>,
    /// Contract terminations after unresolved problems.
    pub churn_events: Vec<ChurnEvent>,
    /// Simulated horizon in days.
    pub days: u32,
}

impl SimOutput {
    /// Customer-edge tickets only (what the predictor trains against).
    pub fn customer_edge_tickets(&self) -> impl Iterator<Item = &Ticket> {
        self.tickets.iter().filter(|t| t.is_customer_edge())
    }
}

#[derive(Debug, Clone)]
struct PendingDispatch {
    due_day: u32,
    line: LineId,
    ticket: Option<u32>,
    proactive: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct LineHazard {
    /// Σ of base disposition weights.
    sum_base: f64,
    /// Extra weight when the region is wet: (mult−1)·Σ weather-sensitive.
    extra_wet: f64,
    /// Extra weight during construction: (mult−1)·Σ outside hard cuts.
    extra_construction: f64,
}

/// One DSLAM subtree's RNG streams, derived `seed → subsystem → dslam`.
///
/// Deriving per-DSLAM (not per-shard) is what makes the draw sequence a
/// property of the plant rather than of the partition: shard boundaries
/// can move freely without perturbing a single sample.
#[derive(Clone)]
struct SubtreeRngs {
    fault: ChaCha8Rng,
    customer: ChaCha8Rng,
    measure: ChaCha8Rng,
    dispatch: ChaCha8Rng,
    misc: ChaCha8Rng,
}

impl SubtreeRngs {
    fn new(seed: u64, dslam: u32) -> Self {
        let stream =
            |s: u64| ChaCha8Rng::seed_from_u64(subseed(subseed(seed, s), u64::from(dslam)));
        Self {
            fault: stream(5),
            customer: stream(6),
            measure: stream(7),
            dispatch: stream(8),
            misc: stream(9),
        }
    }
}

/// Mutable per-line and per-DSLAM state, split into shard slices each day.
#[derive(Clone)]
struct PlantState {
    /// Per line: fault history.
    faults: Vec<Vec<Fault>>,
    /// Per line: first day the customer noticed the current problem.
    aware_since: Vec<Option<u32>>,
    /// Per line: contract terminated.
    churned: Vec<bool>,
    /// Per line: trailing 8-day usage window (bit 0 = today).
    usage_bits: Vec<u8>,
    /// Per line: the at-most-one scheduled truck roll.
    pending: Vec<Option<PendingDispatch>>,
    /// Per DSLAM: subsystem RNG streams.
    rngs: Vec<SubtreeRngs>,
    /// Per DSLAM: outage calls that became tickets (u16 + saturation so a
    /// very large DSLAM in a long outage can neither wrap nor panic).
    outage_reports: Vec<u16>,
    /// Per DSLAM: the IVR announcement is up.
    outage_known: Vec<bool>,
}

/// The running simulation.
///
/// `Clone` copies everything — plant state, every per-DSLAM RNG stream and
/// the logs so far — so a clone steps on bit-for-bit like the original.
#[derive(Clone)]
pub struct World {
    config: SimConfig,
    topology: Topology,
    customers: Vec<Customer>,
    calendar: ExogenousCalendar,
    outages: OutageSchedule,

    hazards: Vec<LineHazard>,
    mean_base_hazard: f64,
    /// Per line: covered by the BRAS traffic sample.
    traffic_covered: Vec<bool>,

    state: PlantState,
    priors: [f64; N_DISPOSITIONS],

    shards: usize,
    /// Run the Saturday line tests; off only in a [`World::counterfactual`].
    line_tests: bool,
    day: u32,
    next_ticket: u32,
    out: SimOutput,
    /// Whether [`World::lend_output`] has `out`'s logs (an empty stand-in
    /// holds their place until [`World::return_output`]).
    lent: bool,
}

/// Read-only context shared by all shards during one day.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    config: &'a SimConfig,
    topology: &'a Topology,
    customers: &'a [Customer],
    calendar: &'a ExogenousCalendar,
    outages: &'a OutageSchedule,
    hazards: &'a [LineHazard],
    traffic_covered: &'a [bool],
    mean_base_hazard: f64,
    /// Day-start snapshot: every shard triages with the same priors.
    priors: [f64; N_DISPOSITIONS],
    day: u32,
    trace: bool,
    line_tests: bool,
}

/// One shard's slice of the mutable plant state: a contiguous DSLAM range
/// and the contiguous line range it terminates.
struct ShardMut<'a> {
    first_dslam: usize,
    first_line: usize,
    faults: &'a mut [Vec<Fault>],
    aware_since: &'a mut [Option<u32>],
    churned: &'a mut [bool],
    usage_bits: &'a mut [u8],
    pending: &'a mut [Option<PendingDispatch>],
    rngs: &'a mut [SubtreeRngs],
    outage_reports: &'a mut [u16],
    outage_known: &'a mut [bool],
}

/// Everything a shard produced in one day, merged in shard order.
///
/// Ticket ids are shard-local indices into `tickets` until the merge
/// assigns each shard a contiguous global id block; `remote_notes` and
/// `new_pending` carry the local index so the merge can patch them.
struct DayBuffer {
    tickets: Vec<(LineId, TicketCategory)>,
    /// Remote-fix notes (advance phase), with the local ticket index.
    remote_notes: Vec<(DispositionNote, u32)>,
    /// Truck-roll notes (dispatch phase); their tickets are already global.
    visit_notes: Vec<DispositionNote>,
    /// Reactive dispatches queued today, with the local ticket index.
    new_pending: Vec<(PendingDispatch, u32)>,
    ivr_calls: Vec<IvrCall>,
    churn_events: Vec<ChurnEvent>,
    measurements: Vec<LineTest>,
    traffic: Vec<(LineId, u32)>,
    trace: Vec<nevermind_obs::trace::TraceEvent>,
    /// Disposition prior increments, replayed as exact `+1.0` sequences at
    /// the merge so the f64 op sequence is identical for any shard count.
    prior_counts: [u32; N_DISPOSITIONS],
}

impl Default for DayBuffer {
    fn default() -> Self {
        Self {
            tickets: Vec::new(),
            remote_notes: Vec::new(),
            visit_notes: Vec::new(),
            new_pending: Vec::new(),
            ivr_calls: Vec::new(),
            churn_events: Vec::new(),
            measurements: Vec::new(),
            traffic: Vec::new(),
            trace: Vec::new(),
            prior_counts: [0; N_DISPOSITIONS],
        }
    }
}

/// Samples the disposition for a new fault under current conditions.
fn sample_new_fault(
    line: &crate::topology::Line,
    existing: &[Fault],
    day: u32,
    wet: bool,
    constr: bool,
    rng: &mut ChaCha8Rng,
) -> Option<Fault> {
    let mut w = disposition_weights(line);
    for (i, info) in crate::disposition::DISPOSITIONS.iter().enumerate() {
        if wet && info.weather_sensitive {
            w[i] *= WET_MULTIPLIER;
        }
        if constr && info.class == FaultClass::Hard && info.location.is_outside() {
            w[i] *= CONSTRUCTION_MULTIPLIER;
        }
    }
    // Avoid stacking a second copy of an already-active disposition.
    for f in existing {
        if f.active(day) {
            w[f.disposition.0 as usize] = 0.0;
        }
    }
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut pick = rng.random_range(0.0..total);
    let mut chosen = N_DISPOSITIONS - 1;
    for (i, &wi) in w.iter().enumerate() {
        if pick < wi {
            chosen = i;
            break;
        }
        pick -= wi;
    }
    let disposition = DispositionId(chosen as u8);
    let info = disposition.info();
    let ramp = info.ramp_days * rng.random_range(0.5..1.5);
    let severity_cap = rng.random_range(0.7..1.0);
    Some(Fault { disposition, onset_day: day, ramp_days: ramp, severity_cap, repaired_day: None })
}

/// Per-line susceptibility to DSLAM-level stress, in [0.25, 1.0].
///
/// A failing card does not degrade every port equally; heterogeneity keeps
/// the precursor pattern from being a trivially separable DSLAM-wide
/// signature (see `physics::combine_effects`).
fn stress_susceptibility(line: LineId) -> f64 {
    let h = subseed(0xCAFE_F00D, line.0 as u64);
    0.5 + 0.5 * (h as f64 / u64::MAX as f64)
}

/// Derives a subsystem seed from the master seed (SplitMix64 step).
fn subseed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fraction of the trailing seven days the customer was online, in [0, 1].
///
/// The `u8` window holds eight days of history; the Saturday test reads
/// only the trailing seven. (Bug fix: the eighth bit used to leak into the
/// count, so an always-on customer measured 8/7 ≈ 1.14.)
fn weekly_usage(bits: u8) -> f64 {
    f64::from((bits & 0x7F).count_ones()) / 7.0
}

/// Daily fault-onset probability under the hazard normalization.
///
/// Guards the degenerate all-zero-hazard plant: `mean_base_hazard == 0`
/// would otherwise turn the division into NaN and poison `random_bool`.
fn fault_onset_prob(daily_rate: f64, total_hazard: f64, mean_base_hazard: f64) -> f64 {
    if mean_base_hazard <= 0.0 {
        return 0.0;
    }
    (daily_rate * total_hazard / mean_base_hazard).clamp(0.0, 1.0)
}

/// Carves the plant state into per-shard mutable slices along `dslams`
/// (a partition of the DSLAMs) and the line ranges those DSLAMs terminate.
fn split_shards<'a>(
    topology: &Topology,
    dslams: &[std::ops::Range<usize>],
    state: &'a mut PlantState,
) -> Vec<ShardMut<'a>> {
    use nevermind_obs::par::split_mut;
    // First line terminated at or after DSLAM `d`.
    let line_at =
        |d: usize| topology.dslams.get(d).map_or(topology.lines.len(), |x| x.first_line.index());
    let lines: Vec<_> = dslams.iter().map(|d| line_at(d.start)..line_at(d.end)).collect();
    let mut faults = split_mut(&mut state.faults, &lines, 1).into_iter();
    let mut aware_since = split_mut(&mut state.aware_since, &lines, 1).into_iter();
    let mut churned = split_mut(&mut state.churned, &lines, 1).into_iter();
    let mut usage_bits = split_mut(&mut state.usage_bits, &lines, 1).into_iter();
    let mut pending = split_mut(&mut state.pending, &lines, 1).into_iter();
    let mut rngs = split_mut(&mut state.rngs, dslams, 1).into_iter();
    let mut outage_reports = split_mut(&mut state.outage_reports, dslams, 1).into_iter();
    let mut outage_known = split_mut(&mut state.outage_known, dslams, 1).into_iter();
    dslams
        .iter()
        .zip(&lines)
        .map_while(|(d, l)| {
            Some(ShardMut {
                first_dslam: d.start,
                first_line: l.start,
                faults: faults.next()?,
                aware_since: aware_since.next()?,
                churned: churned.next()?,
                usage_bits: usage_bits.next()?,
                pending: pending.next()?,
                rngs: rngs.next()?,
                outage_reports: outage_reports.next()?,
                outage_known: outage_known.next()?,
            })
        })
        .collect()
}

/// One shard's full day: outage bookkeeping, per-line advancement, due
/// dispatches, and (Saturdays) line tests.
fn step_shard(ctx: &StepCtx<'_>, shard: &mut ShardMut<'_>, buf: &mut DayBuffer) {
    refresh_outage_state(ctx, shard);
    advance_lines(ctx, shard, buf);
    process_dispatches(ctx, shard, buf);
    if ctx.line_tests && DayOfWeek::of(ctx.day).is_test_day() {
        run_line_tests(ctx, shard, buf);
    }
}

/// Resets IVR counters at outage boundaries.
fn refresh_outage_state(ctx: &StepCtx<'_>, shard: &mut ShardMut<'_>) {
    for d in 0..shard.outage_reports.len() {
        let dslam = DslamId((shard.first_dslam + d) as u32);
        if !ctx.outages.is_down(dslam, ctx.day) {
            shard.outage_reports[d] = 0;
            shard.outage_known[d] = false;
        }
    }
}

/// Per-line daily processing: usage, fault onsets/healing, awareness,
/// calls and tickets, traffic.
fn advance_lines(ctx: &StepCtx<'_>, shard: &mut ShardMut<'_>, buf: &mut DayBuffer) {
    let day = ctx.day;
    let daily_rate = ctx.config.faults_per_line_year / 365.0;

    for d in 0..shard.rngs.len() {
        let dslam_id = DslamId((shard.first_dslam + d) as u32);
        let dslam = ctx.topology.dslam(dslam_id);
        let region = dslam.region;
        let dslam_down = ctx.outages.is_down(dslam_id, day);
        let dslam_stress = ctx.outages.stress(dslam_id, day);

        for line_id in dslam.lines() {
            let gi = line_id.index();
            let li = gi - shard.first_line;

            // Churned customers are gone: no usage, no problems noticed,
            // no calls. The copper stays in the plant but the service is
            // disconnected.
            if shard.churned[li] {
                shard.usage_bits[li] <<= 1;
                record_traffic(ctx, buf, line_id, false, &mut shard.rngs[d].misc);
                continue;
            }

            let customer = &ctx.customers[gi];

            // --- usage ---
            let used = customer.uses_service(day, &mut shard.rngs[d].customer);
            shard.usage_bits[li] = (shard.usage_bits[li] << 1) | u8::from(used);

            // --- fault self-healing ---
            for f in shard.faults[li].iter_mut() {
                if f.repaired_day.is_none() && f.onset_day <= day {
                    let heal_p = match f.disposition.info().class {
                        FaultClass::Hard => 0.002,
                        FaultClass::Intermittent => 0.02,
                        FaultClass::Degraded => 0.018,
                    };
                    if shard.rngs[d].fault.random_bool(heal_p) {
                        f.repaired_day = Some(day);
                    }
                }
            }

            // --- fault onset ---
            let active_count = shard.faults[li].iter().filter(|f| f.active(day)).count();
            if active_count < 3 {
                let h = &ctx.hazards[gi];
                let wet = ctx.calendar.is_wet(region, day);
                let constr = ctx.calendar.is_construction(dslam_id, day);
                let mut total = h.sum_base;
                if wet {
                    total += h.extra_wet;
                }
                if constr {
                    total += h.extra_construction;
                }
                let p = fault_onset_prob(daily_rate, total, ctx.mean_base_hazard);
                if shard.rngs[d].fault.random_bool(p) {
                    if let Some(fault) = sample_new_fault(
                        &ctx.topology.lines[gi],
                        &shard.faults[li],
                        day,
                        wet,
                        constr,
                        &mut shard.rngs[d].fault,
                    ) {
                        shard.faults[li].push(fault);
                    }
                }
            }

            // --- outage handling (overrides individual awareness) ---
            if dslam_down {
                if used && !customer.is_away(day) {
                    // The service is dead; the customer calls with outage
                    // urgency modulated by the weekly pattern.
                    let p = customer.call_prob(day, 1.0, ctx.config.report_base_prob * 1.6);
                    if shard.rngs[d].customer.random_bool(p) {
                        if shard.outage_known[d] {
                            buf.ivr_calls.push(IvrCall { line: line_id, day });
                        } else {
                            buf.tickets.push((line_id, TicketCategory::Outage));
                            shard.outage_reports[d] = shard.outage_reports[d].saturating_add(1);
                            if shard.outage_reports[d] >= 3 {
                                shard.outage_known[d] = true;
                            }
                        }
                    }
                }
                // No individual fault reporting while the DSLAM is down.
                record_traffic(ctx, buf, line_id, false, &mut shard.rngs[d].misc);
                continue;
            }

            // --- awareness & reporting of line faults ---
            // A degrading DSLAM card is user-visible too: sporadic drops in
            // the precursor window produce some genuine pre-outage
            // customer-edge tickets (and keep the measurement pattern from
            // being a pure no-ticket signature).
            let stress_perceived = 0.55 * dslam_stress * stress_susceptibility(line_id);
            let perceived = shard.faults[li]
                .iter()
                .map(|f| f.perceived_severity(day))
                .fold(stress_perceived, f64::max);
            if perceived <= 0.0 {
                shard.aware_since[li] = None;
            } else {
                if shard.aware_since[li].is_none() && used && perceived > customer.tolerance {
                    shard.aware_since[li] = Some(day);
                }
                if let Some(since) = shard.aware_since[li] {
                    let p = customer.call_prob(day, perceived, ctx.config.report_base_prob);
                    if shard.rngs[d].customer.random_bool(p) {
                        let local_ticket = buf.tickets.len() as u32;
                        buf.tickets.push((line_id, TicketCategory::CustomerEdge));
                        handle_customer_edge_ticket(ctx, shard, buf, d, li, local_ticket);
                    }
                    // A problem the customer has been living with for more
                    // than a week starts burning goodwill; eventually they
                    // terminate the contract.
                    if day.saturating_sub(since) > 7 {
                        let p_churn = customer.churn_propensity * 0.012;
                        if shard.rngs[d].customer.random_bool(p_churn) {
                            shard.churned[li] = true;
                            buf.churn_events.push(ChurnEvent { line: line_id, day });
                            continue;
                        }
                    }
                }
            }

            // --- non-technical tickets ---
            let p_nt = ctx.config.non_technical_tickets_per_line_year / 365.0;
            if shard.rngs[d].misc.random_bool(p_nt.clamp(0.0, 1.0)) {
                buf.tickets.push((line_id, TicketCategory::NonTechnical));
            }

            // --- traffic ---
            let hard_down = shard.faults[li].iter().any(|f| {
                f.active(day)
                    && f.disposition.info().class == FaultClass::Hard
                    && f.severity(day) > 0.8
            });
            record_traffic(ctx, buf, line_id, used && !hard_down, &mut shard.rngs[d].misc);
        }
    }
}

/// ATDS triage of a fresh customer-edge ticket: remote resolution or a
/// field dispatch in 1–3 days (unless one is already scheduled).
fn handle_customer_edge_ticket(
    ctx: &StepCtx<'_>,
    shard: &mut ShardMut<'_>,
    buf: &mut DayBuffer,
    d: usize,
    li: usize,
    local_ticket: u32,
) {
    if shard.pending[li].is_some() {
        return; // repeat ticket while a visit is pending
    }
    let day = ctx.day;
    let line_id = LineId((shard.first_line + li) as u32);
    // Remote resolution path (configuration fixes, reboots).
    if shard.rngs[d].dispatch.random_bool(0.15) {
        let live_closest = shard.faults[li]
            .iter()
            .enumerate()
            .filter(|(_, f)| f.active(day))
            .min_by_key(|(_, f)| f.disposition.location())
            .map(|(i, _)| i);
        if let Some(fi) = live_closest {
            let disposition = shard.faults[li][fi].disposition;
            // Remote fixes reliably handle only configuration-style
            // problems; hardware faults bounce back to a dispatch.
            if matches!(disposition.info().class, FaultClass::Degraded) {
                shard.faults[li][fi].repaired_day = Some(day + 1);
                buf.prior_counts[disposition.0 as usize] += 1;
                buf.remote_notes.push((
                    DispositionNote {
                        ticket: None, // local id; patched to global at merge
                        line: line_id,
                        day: day + 1,
                        disposition: Some(disposition),
                        tests_performed: 0,
                        minutes_spent: 0.0,
                        proactive: false,
                    },
                    local_ticket,
                ));
                return;
            }
        }
    }
    let delay = shard.rngs[d].dispatch.random_range(1..=3u32);
    buf.new_pending.push((
        PendingDispatch { due_day: day + delay, line: line_id, ticket: None, proactive: false },
        local_ticket,
    ));
}

/// Runs all dispatches due today, in line order within the shard.
fn process_dispatches(ctx: &StepCtx<'_>, shard: &mut ShardMut<'_>, buf: &mut DayBuffer) {
    let day = ctx.day;
    // All of today's visits triage with the day-start priors snapshot, so
    // the disposition check order cannot depend on the shard partition.
    let order = basic_order(&ctx.priors);
    for li in 0..shard.pending.len() {
        if !shard.pending[li].as_ref().is_some_and(|p| p.due_day <= day) {
            continue;
        }
        let Some(p) = shard.pending[li].take() else {
            continue;
        };
        let d = ctx.topology.lines[shard.first_line + li].dslam.index() - shard.first_dslam;
        let outcome = run_dispatch(
            p.line,
            &mut shard.faults[li],
            day,
            &order,
            p.ticket,
            p.proactive,
            &mut shard.rngs[d].dispatch,
        );
        if let Some(found) = outcome.note.disposition {
            buf.prior_counts[found.0 as usize] += 1;
        }
        if ctx.trace {
            // Close the provenance loop: what the truck found, keyed
            // back to the originating "dispatch" event by line (and to
            // the week's "rank" event for proactive visits).
            let note = &outcome.note;
            buf.trace.push(
                nevermind_obs::trace::TraceEvent::new("visit")
                    .line(note.line.0)
                    .day(day)
                    .attr("proactive", note.proactive)
                    .attr("found_fault", note.disposition.is_some())
                    .attr("disposition", note.disposition.map_or("none", |dd| dd.info().code))
                    .attr("tests_performed", note.tests_performed)
                    .attr("minutes_spent", note.minutes_spent),
            );
        }
        buf.visit_notes.push(outcome.note);
    }
}

/// Saturday line tests across the shard.
fn run_line_tests(ctx: &StepCtx<'_>, shard: &mut ShardMut<'_>, buf: &mut DayBuffer) {
    let day = ctx.day;
    for d in 0..shard.rngs.len() {
        let dslam_id = DslamId((shard.first_dslam + d) as u32);
        let dslam = ctx.topology.dslam(dslam_id);
        let down = ctx.outages.is_down(dslam_id, day);
        let raw_stress = ctx.outages.stress(dslam_id, day);

        for line_id in dslam.lines() {
            let gi = line_id.index();
            let li = gi - shard.first_line;
            if shard.churned[li] {
                continue; // service disconnected: the test gets no answer
            }
            let line = &ctx.topology.lines[gi];
            let customer = &ctx.customers[gi];
            let used_today = shard.usage_bits[li] & 1 == 1;

            // Customer-side modem silence first.
            let p_off = customer.modem_off_prob(day, used_today);
            if shard.rngs[d].measure.random_bool(p_off) {
                continue;
            }

            let stress = if down { 1.0 } else { raw_stress * stress_susceptibility(line_id) };
            let effects = combine_effects(line, &shard.faults[li], day, stress);
            if !modem_answers(&effects, &mut shard.rngs[d].measure) {
                continue;
            }
            let usage = weekly_usage(shard.usage_bits[li]);
            let values = synthesize(line, &effects, usage, &mut shard.rngs[d].measure);
            buf.measurements.push(LineTest { line: line_id, day, values });
        }
    }
}

fn record_traffic(
    ctx: &StepCtx<'_>,
    buf: &mut DayBuffer,
    line: LineId,
    active: bool,
    rng: &mut ChaCha8Rng,
) {
    if !ctx.traffic_covered[line.index()] {
        return;
    }
    let kb = if active { rng.random_range(200..8_000u32) } else { 0 };
    buf.traffic.push((line, kb));
}

impl World {
    /// Builds a world from the configuration. Deterministic in
    /// `config.seed`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn generate(config: SimConfig) -> Self {
        let _span = nevermind_obs::span!("sim/generate");
        if let Err(e) = config.validate() {
            // lint:allow(no-panic-in-lib) -- documented # Panics contract; a bad config is a programmer error, not operational data
            panic!("invalid SimConfig: {e}");
        }
        let topology = Topology::generate(&config, subseed(config.seed, 1));
        let customers = generate_customers(&config, subseed(config.seed, 2));
        let calendar = ExogenousCalendar::generate(
            config.n_regions,
            topology.dslams.len(),
            config.days,
            subseed(config.seed, 3),
        );
        let outages = OutageSchedule::generate(
            topology.dslams.len(),
            config.days,
            config.outages_per_dslam_year,
            config.outage_precursor_days,
            subseed(config.seed, 4),
        );

        let hazards: Vec<LineHazard> = topology
            .lines
            .iter()
            .map(|line| {
                let w = disposition_weights(line);
                let mut h = LineHazard::default();
                for (i, info) in crate::disposition::DISPOSITIONS.iter().enumerate() {
                    h.sum_base += w[i];
                    if info.weather_sensitive {
                        h.extra_wet += (WET_MULTIPLIER - 1.0) * w[i];
                    }
                    if info.class == FaultClass::Hard && info.location.is_outside() {
                        h.extra_construction += (CONSTRUCTION_MULTIPLIER - 1.0) * w[i];
                    }
                }
                h
            })
            .collect();
        let mean_base_hazard =
            hazards.iter().map(|h| h.sum_base).sum::<f64>() / hazards.len().max(1) as f64;

        // Traffic is sampled for the lines under the first N BRAS servers.
        let traffic_covered: Vec<bool> = topology
            .lines
            .iter()
            .map(|l| topology.bras_of(l.id).index() < config.traffic_bras_sample)
            .collect();
        let sampled_lines: Vec<LineId> =
            topology.lines.iter().filter(|l| traffic_covered[l.id.index()]).map(|l| l.id).collect();
        let traffic = TrafficTable::new(sampled_lines, config.days);

        let n_lines = topology.lines.len();
        let n_dslams = topology.dslams.len();
        let outage_events = outages.events().to_vec();
        let rngs: Vec<SubtreeRngs> =
            (0..n_dslams).map(|d| SubtreeRngs::new(config.seed, d as u32)).collect();

        Self {
            customers,
            calendar,
            outages,
            hazards,
            mean_base_hazard,
            traffic_covered,
            state: PlantState {
                faults: vec![Vec::new(); n_lines],
                aware_since: vec![None; n_lines],
                churned: vec![false; n_lines],
                usage_bits: vec![0; n_lines],
                pending: vec![None; n_lines],
                rngs,
                outage_reports: vec![0; n_dslams],
                outage_known: vec![false; n_dslams],
            },
            priors: taxonomy_priors(),
            shards: 1,
            line_tests: true,
            day: 0,
            next_ticket: 0,
            lent: false,
            out: SimOutput {
                measurements: Vec::new(),
                tickets: Vec::new(),
                notes: Vec::new(),
                outage_events,
                traffic,
                ivr_calls: Vec::new(),
                churn_events: Vec::new(),
                days: config.days,
            },
            topology,
            config,
        }
    }

    /// Returns the world stepping with `shards` parallel shards — the
    /// [`nevermind_obs::par`] part count: `0` means one per available
    /// core, and shards beyond the DSLAM count are merged away.
    ///
    /// Sharding is an execution detail, not a modelling one: any shard
    /// count produces bit-identical [`SimOutput`] logs and trace bytes.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count [`World::with_shards`] set (`0` = every core).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A copy of the world that runs no Saturday line tests: the same
    /// plant state, every per-DSLAM RNG stream and the logs so far.
    ///
    /// The line tests draw only from each DSLAM's `measure` stream and
    /// write only measurements, so skipping them moves no other stream.
    /// Stepped the same way, the copy logs exactly the tickets, notes,
    /// churn events, IVR calls, outages and traffic the original would;
    /// its measurements stop at the fork day. This is the reactive twin
    /// of a proactive trial, which reads only tickets and churn from it.
    #[must_use]
    pub fn counterfactual(&self) -> Self {
        Self { line_tests: false, ..self.clone() }
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The static plant.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The customer population.
    pub fn customers(&self) -> &[Customer] {
        &self.customers
    }

    /// Current simulation day (the next day to be stepped).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Logs accumulated so far.
    ///
    /// # Panics
    /// Panics while the logs are lent ([`World::lend_output`]).
    pub fn output(&self) -> &SimOutput {
        self.assert_logs_home();
        &self.out
    }

    /// Consumes the world, returning the logs.
    ///
    /// # Panics
    /// Panics while the logs are lent ([`World::lend_output`]).
    pub fn into_output(self) -> SimOutput {
        self.assert_logs_home();
        self.out
    }

    /// Lends the logs so far out of the world without copying them, until
    /// [`World::return_output`] takes them back: a proactive trial trains
    /// on its live world's warm-up logs this way. While they are out the
    /// world holds an empty stand-in, so stepping it, reading its logs or
    /// consuming it panics instead of writing to or reading the wrong logs.
    ///
    /// # Panics
    /// Panics if the logs are already lent.
    pub fn lend_output(&mut self) -> SimOutput {
        self.assert_logs_home();
        self.lent = true;
        let stand_in = SimOutput {
            measurements: Vec::new(),
            tickets: Vec::new(),
            notes: Vec::new(),
            outage_events: Vec::new(),
            traffic: TrafficTable::new(Vec::new(), self.out.days),
            ivr_calls: Vec::new(),
            churn_events: Vec::new(),
            days: self.out.days,
        };
        std::mem::replace(&mut self.out, stand_in)
    }

    /// Takes back the logs [`World::lend_output`] lent. They must come back
    /// as they left: the world steps on by appending to them.
    ///
    /// # Panics
    /// Panics if the logs are not lent, or if `out` covers a different
    /// horizon than the world's.
    pub fn return_output(&mut self, out: SimOutput) {
        assert!(self.lent, "the world's logs are not lent");
        assert_eq!(out.days, self.out.days, "returned logs cover a different horizon");
        self.out = out;
        self.lent = false;
    }

    /// The guard of [`World::lend_output`]: the world's logs must be home.
    fn assert_logs_home(&self) {
        assert!(!self.lent, "the world's logs are lent out");
    }

    /// Full fault history of a line (ground truth for evaluation).
    pub fn fault_history(&self, line: LineId) -> &[Fault] {
        &self.state.faults[line.index()]
    }

    /// Schedules a proactive (NEVERMIND) dispatch for `line`, `delay_days`
    /// from now. Ignored if a dispatch is already scheduled for the line.
    pub fn schedule_proactive_dispatch(&mut self, line: LineId, delay_days: u32) {
        let li = line.index();
        if self.state.pending[li].is_some() {
            return;
        }
        nevermind_obs::counter_add!("sim/proactive_scheduled", 1);
        let due_day = self.day + delay_days.max(1);
        if nevermind_obs::trace::enabled() {
            // Decision provenance: the dispatch that a later "visit" event
            // (same line, first due day at or after this one) answers to.
            nevermind_obs::trace::global().emit(
                nevermind_obs::trace::TraceEvent::new("dispatch")
                    .line(line.0)
                    .day(self.day)
                    .attr("due_day", due_day)
                    .attr("proactive", true),
            );
        }
        self.state.pending[li] =
            Some(PendingDispatch { due_day, line, ticket: None, proactive: true });
    }

    /// Runs the remaining horizon reactively and returns the logs.
    pub fn run(mut self) -> SimOutput {
        let _span = nevermind_obs::span!("sim/run");
        while self.day < self.config.days {
            self.step_day();
        }
        self.into_output()
    }

    /// Advances the simulation by one day, stepping the shards as
    /// [`nevermind_obs::par`] parts and merging the per-shard buffers in
    /// shard order.
    ///
    /// # Panics
    /// Panics if stepped past the configured horizon, or while the logs
    /// are lent ([`World::lend_output`]).
    pub fn step_day(&mut self) {
        let _span = nevermind_obs::span!("sim/step_day");
        nevermind_obs::counter_add!("sim/days_stepped", 1);
        assert!(self.day < self.config.days, "stepped past the simulation horizon");
        self.assert_logs_home();
        let day = self.day;

        let ctx = StepCtx {
            config: &self.config,
            topology: &self.topology,
            customers: &self.customers,
            calendar: &self.calendar,
            outages: &self.outages,
            hazards: &self.hazards,
            traffic_covered: &self.traffic_covered,
            mean_base_hazard: self.mean_base_hazard,
            priors: self.priors,
            day,
            trace: nevermind_obs::trace::enabled(),
            line_tests: self.line_tests,
        };
        let bounds = nevermind_obs::par::bounds(self.topology.dslams.len(), self.shards);
        let shards = split_shards(&self.topology, &bounds, &mut self.state);
        let bufs = nevermind_obs::par::run(shards, |mut shard| {
            let mut buf = DayBuffer::default();
            step_shard(&ctx, &mut shard, &mut buf);
            buf
        });
        self.merge_day(day, bufs);
        self.day += 1;
        // History snapshots are clocked on *simulated* days — the only time
        // source the model is allowed to observe — so the ring store and any
        // rule evaluations it triggers are byte-reproducible across reruns
        // and shard counts.
        nevermind_obs::history::tick(u64::from(day));
    }

    /// Folds the per-shard day buffers into the global logs and state, in
    /// shard order — which, because shards are contiguous DSLAM ranges, is
    /// plant line order within each record kind.
    fn merge_day(&mut self, day: u32, mut bufs: Vec<DayBuffer>) {
        // Ticket ids: each shard's buffer gets the next contiguous block.
        let mut bases = Vec::with_capacity(bufs.len());
        for buf in &bufs {
            bases.push(self.next_ticket);
            for &(line, category) in &buf.tickets {
                self.out.tickets.push(Ticket { id: self.next_ticket, line, day, category });
                self.next_ticket += 1;
            }
        }
        // Notes keep their two producer phases separate: every shard's
        // remote fixes (advance phase) land before any shard's truck rolls
        // (dispatch phase), matching the single-shard emission order.
        for (buf, &base) in bufs.iter_mut().zip(&bases) {
            for (mut note, local) in buf.remote_notes.drain(..) {
                note.ticket = Some(base + local);
                self.out.notes.push(note);
            }
        }
        for buf in &mut bufs {
            if nevermind_obs::enabled() {
                for note in buf.visit_notes.iter().filter(|n| n.proactive) {
                    nevermind_obs::counter_add!("sim/proactive_visits", 1);
                    if note.disposition.is_some() {
                        nevermind_obs::counter_add!("sim/proactive_hits", 1);
                    }
                }
            }
            self.out.notes.append(&mut buf.visit_notes);
        }
        for (buf, &base) in bufs.iter_mut().zip(&bases) {
            for (mut p, local) in buf.new_pending.drain(..) {
                p.ticket = Some(base + local);
                let li = p.line.index();
                self.state.pending[li] = Some(p);
            }
        }
        for buf in &mut bufs {
            self.out.ivr_calls.append(&mut buf.ivr_calls);
            self.out.churn_events.append(&mut buf.churn_events);
            self.out.measurements.append(&mut buf.measurements);
            for (line, kb) in buf.traffic.drain(..) {
                self.out.traffic.record(line, day, kb);
            }
        }
        // Priors advance by replaying each increment as `+1.0`: the same
        // f64 op sequence regardless of how the counts were partitioned.
        for buf in &bufs {
            for (di, &count) in buf.prior_counts.iter().enumerate() {
                for _ in 0..count {
                    self.priors[di] += 1.0;
                }
            }
        }
        for buf in &mut bufs {
            for ev in buf.trace.drain(..) {
                nevermind_obs::trace::global().emit(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(seed: u64) -> (SimConfig, SimOutput) {
        let cfg = SimConfig::small(seed);
        let out = World::generate(cfg.clone()).run();
        (cfg, out)
    }

    #[test]
    fn produces_all_record_types() {
        let (_, out) = run_small(1);
        assert!(!out.measurements.is_empty(), "no measurements");
        assert!(out.customer_edge_tickets().count() > 0, "no customer-edge tickets");
        assert!(!out.notes.is_empty(), "no disposition notes");
        assert!(out.traffic.n_lines() > 0, "no traffic sample");
    }

    #[test]
    fn measurements_only_on_saturdays() {
        let (_, out) = run_small(2);
        for m in &out.measurements {
            assert!(DayOfWeek::of(m.day).is_test_day(), "measurement on day {}", m.day);
        }
    }

    #[test]
    fn weekly_measurement_coverage_is_high_but_incomplete() {
        let (cfg, out) = run_small(3);
        let n_saturdays = (0..cfg.days).filter(|&d| DayOfWeek::of(d).is_test_day()).count();
        let expected_full = cfg.n_lines * n_saturdays;
        let coverage = out.measurements.len() as f64 / expected_full as f64;
        assert!(coverage > 0.5, "coverage {coverage}");
        assert!(coverage < 0.999, "some records must be missing (modem off)");
    }

    #[test]
    fn ticket_volume_is_operationally_plausible() {
        let (cfg, out) = run_small(4);
        let ce = out.customer_edge_tickets().count() as f64;
        let weeks = cfg.days as f64 / 7.0;
        let weekly_rate = ce / weeks / cfg.n_lines as f64;
        // Roughly 0.1%–1.5% of lines ticket per week.
        assert!(
            (0.001..0.015).contains(&weekly_rate),
            "weekly customer-edge ticket rate {weekly_rate}"
        );
    }

    #[test]
    fn tickets_peak_early_week() {
        let (_, out) = run_small(5);
        let mut by_dow = [0usize; 7];
        for t in out.customer_edge_tickets() {
            by_dow[(t.day % 7) as usize] += 1;
        }
        let monday = by_dow[1];
        let saturday = by_dow[6];
        let sunday = by_dow[0];
        assert!(monday > saturday, "Mon {monday} vs Sat {saturday}");
        assert!(monday > sunday, "Mon {monday} vs Sun {sunday}");
    }

    #[test]
    fn dispatches_repair_faults() {
        let (_, out) = run_small(6);
        let found = out.notes.iter().filter(|n| n.disposition.is_some()).count();
        assert!(found > 0, "no successful repairs");
        // Reactive notes must reference tickets; remote fixes have 0 tests.
        for n in &out.notes {
            if !n.proactive {
                assert!(n.ticket.is_some());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = run_small(7);
        let (_, b) = run_small(7);
        assert_eq!(a.measurements.len(), b.measurements.len());
        assert_eq!(a.tickets.len(), b.tickets.len());
        assert_eq!(a.notes.len(), b.notes.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements).take(500) {
            assert_eq!(x.line, y.line);
            assert_eq!(x.day, y.day);
            assert_eq!(x.values, y.values);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a) = run_small(8);
        let (_, b) = run_small(9);
        assert_ne!(a.tickets.len(), b.tickets.len());
    }

    #[test]
    fn outages_suppress_tickets_via_ivr() {
        // Crank outage rate so the small world reliably sees several.
        let mut cfg = SimConfig::small(10);
        cfg.outages_per_dslam_year = 6.0;
        let out = World::generate(cfg).run();
        assert!(!out.outage_events.is_empty(), "no outages scheduled");
        assert!(!out.ivr_calls.is_empty(), "IVR never engaged");
        let outage_tickets =
            out.tickets.iter().filter(|t| t.category == TicketCategory::Outage).count();
        assert!(outage_tickets > 0, "no outage tickets before IVR kicked in");
    }

    #[test]
    fn proactive_dispatch_repairs_and_notes() {
        let cfg = SimConfig::small(11);
        let mut world = World::generate(cfg);
        // Step until some line has a live fault, then dispatch proactively.
        // A single visit can legitimately end "no trouble found" (the
        // technician's test misses with `TEST_MISS_PROB`), so keep
        // re-dispatching while the fault is live — exactly what a weekly
        // re-ranking would do — and require a successful visit eventually.
        let mut target = None;
        for _ in 0..120 {
            world.step_day();
            let day = world.day();
            if target.is_none() {
                target = (0..world.topology().lines.len())
                    .map(|li| LineId(li as u32))
                    .find(|&li| world.fault_history(li).iter().any(|f| f.active(day)));
            }
            if let Some(line) = target {
                let repaired = world
                    .output()
                    .notes
                    .iter()
                    .any(|n| n.proactive && n.line == line && n.disposition.is_some());
                let live = world.fault_history(line).iter().any(|f| f.active(day));
                if !repaired && live {
                    world.schedule_proactive_dispatch(line, 1);
                }
            }
        }
        let line = target.expect("a fault should appear within 120 days");
        let out = world.output();
        let note = out
            .notes
            .iter()
            .find(|n| n.proactive && n.line == line && n.disposition.is_some())
            .expect("a proactive dispatch should find the fault");
        assert!(note.ticket.is_none());
    }

    #[test]
    fn unresolved_problems_cause_churn() {
        let (_, out) = run_small(40);
        assert!(!out.churn_events.is_empty(), "a year of operations should lose some customers");
        // Churn must be rarer than tickets (it is the tail outcome).
        assert!(out.churn_events.len() < out.customer_edge_tickets().count());
    }

    #[test]
    fn churned_lines_go_quiet() {
        let (_, out) = run_small(41);
        let Some(churn) = out.churn_events.first().copied() else {
            panic!("expected at least one churn event");
        };
        // No customer-edge tickets from that line after the churn day.
        let later_tickets = out
            .customer_edge_tickets()
            .filter(|t| t.line == churn.line && t.day > churn.day)
            .count();
        assert_eq!(later_tickets, 0, "churned customer must stop calling");
        // And no completed line tests after disconnection.
        let later_tests =
            out.measurements.iter().filter(|m| m.line == churn.line && m.day > churn.day).count();
        assert_eq!(later_tests, 0, "disconnected line must stop answering tests");
    }

    #[test]
    fn traffic_sample_covers_configured_bras() {
        let (cfg, out) = run_small(12);
        assert!(out.traffic.n_lines() > 0);
        // All covered lines belong to the first `traffic_bras_sample` BRASes.
        let world = World::generate(SimConfig::small(12));
        for &l in out.traffic.lines() {
            assert!(world.topology().bras_of(l).index() < cfg.traffic_bras_sample);
        }
    }

    #[test]
    fn vacationing_customers_show_traffic_gaps() {
        let cfg = SimConfig::small(13);
        let world = World::generate(cfg.clone());
        // Find a covered customer with a vacation inside the horizon.
        let candidate = world
            .customers()
            .iter()
            .find(|c| {
                world.output().traffic.covers(c.line)
                    && c.vacations.iter().any(|&(s, e)| e < cfg.days && s > 7)
            })
            .map(|c| (c.line, c.vacations.clone()));
        let Some((line, vacations)) = candidate else {
            // Statistically rare with small populations; nothing to assert.
            return;
        };
        let out = world.run();
        let (s, e) = vacations[0];
        let total = out.traffic.total_in_window(line, s, e).expect("covered");
        assert_eq!(total, 0, "traffic during vacation");
    }

    #[test]
    fn weekly_usage_reads_only_the_trailing_seven_days() {
        // Regression: an always-on customer carries eight set bits in the
        // u8 window, but a week has seven days — the old 8/7 ≈ 1.14 bug.
        assert_eq!(weekly_usage(0b1111_1111), 1.0, "always-on measures exactly 1.0");
        assert_eq!(weekly_usage(0b0111_1111), 1.0);
        assert_eq!(weekly_usage(0b1000_0000), 0.0, "the eighth (oldest) day is out of window");
        assert_eq!(weekly_usage(0), 0.0);
        for bits in 0..=u8::MAX {
            let u = weekly_usage(bits);
            assert!((0.0..=1.0).contains(&u), "usage {u} out of [0,1] for bits {bits:#010b}");
        }
    }

    #[test]
    fn fault_onset_prob_guards_degenerate_hazard() {
        // A plant whose every line has zero base hazard must simply never
        // fault — not feed NaN into `random_bool`.
        let p = fault_onset_prob(0.55 / 365.0, 0.0, 0.0);
        assert_eq!(p, 0.0);
        assert!(fault_onset_prob(0.01, 2.0, 1.0) > 0.0);
        assert!(fault_onset_prob(0.01, 2.0, 1.0) <= 1.0);
        assert!(fault_onset_prob(f64::MAX, f64::MAX, 1.0) == 1.0, "clamped");
    }

    #[test]
    fn outage_report_counter_saturates_instead_of_wrapping() {
        // Regression for the u8 `+= 1` overflow: pin the counter at the
        // numeric ceiling and push one more report through a live outage.
        let mut cfg = SimConfig::small(77);
        cfg.n_lines = 300;
        cfg.lines_per_dslam = 300;
        cfg.days = 60;
        // Rate ≥ 365/yr clamps the daily outage probability to 1.0, so an
        // outage is guaranteed to start on day 0.
        cfg.outages_per_dslam_year = 400.0;
        let mut world = World::generate(cfg);
        assert!(world.outages.is_down(DslamId(0), 0), "outage must start on day 0");
        world.state.outage_reports[0] = u16::MAX;
        world.step_day();
        // The counter held (or was consumed by the IVR flip) — it did not
        // wrap to a small value that would lose outage awareness.
        assert!(
            world.state.outage_known[0] || world.state.outage_reports[0] == u16::MAX,
            "counter wrapped: {}",
            world.state.outage_reports[0]
        );
    }

    #[test]
    fn large_dslam_survives_repeated_outages() {
        // A 300-line DSLAM hammered by outages for two months: every
        // outage day can add reports, and the run must neither panic nor
        // lose IVR suppression.
        let mut cfg = SimConfig::small(78);
        cfg.n_lines = 300;
        cfg.lines_per_dslam = 300;
        cfg.days = 60;
        cfg.outages_per_dslam_year = 400.0;
        let out = World::generate(cfg).run();
        let outage_tickets =
            out.tickets.iter().filter(|t| t.category == TicketCategory::Outage).count();
        assert!(outage_tickets > 0, "outage tickets before the IVR");
        assert!(!out.ivr_calls.is_empty(), "IVR suppression engaged");
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        // The in-crate smoke check; the exhaustive JSON-level equality
        // lives in tests/sharding.rs.
        let cfg = SimConfig::small(90);
        let serial = World::generate(cfg.clone()).run();
        let sharded = World::generate(cfg).with_shards(4).run();
        assert_eq!(serial.tickets.len(), sharded.tickets.len());
        assert_eq!(serial.measurements.len(), sharded.measurements.len());
        for (a, b) in serial.measurements.iter().zip(&sharded.measurements) {
            assert_eq!(a.line, b.line);
            assert_eq!(a.day, b.day);
            assert_eq!(a.values, b.values);
        }
        for (a, b) in serial.tickets.iter().zip(&sharded.tickets) {
            assert_eq!((a.id, a.line, a.day, a.category), (b.id, b.line, b.day, b.category));
        }
    }
}
