//! The operational NEVERMIND loop: every Saturday, rank the population and
//! proactively dispatch the weekly budget — then compare customer-edge
//! ticket volume against an identical reactive-only twin of the same world.
//!
//! This is the paper's deployment scenario (Fig. 3, bottom box): resolve
//! predicted problems during the quiet weekend so the Monday call-in peak
//! shrinks.
//!
//! ```sh
//! cargo run --release --example proactive_week
//! ```

use nevermind::pipeline::run_proactive_trial;
use nevermind::predictor::PredictorConfig;
use nevermind_dslsim::SimConfig;

fn main() {
    let mut sim = SimConfig::small(42);
    sim.n_lines = 4_000;
    sim.days = 330;

    let predictor_cfg = PredictorConfig {
        iterations: 120,
        selection_row_cap: 8_000,
        budget_fraction: 0.01,
        ..PredictorConfig::default()
    };
    let warmup_weeks = 30;

    println!(
        "running twin worlds ({} lines, {} days, policy starts week {warmup_weeks}) ...",
        sim.n_lines, sim.days
    );
    let outcome =
        run_proactive_trial(sim, &predictor_cfg, warmup_weeks).expect("trial config is valid");

    println!("\n--- outcome after day {} ---", outcome.policy_start_day);
    println!("reactive twin   : {} customer-edge tickets", outcome.reactive_tickets);
    println!("proactive twin  : {} customer-edge tickets", outcome.proactive_tickets);
    println!("ticket reduction: {:.1}%", 100.0 * outcome.ticket_reduction());
    // No dispatch → the precision quotient is undefined: print "n/a".
    let precision = match outcome.dispatch_precision_checked() {
        Some(p) => format!("{:.1}% precision", 100.0 * p),
        None => "precision n/a".to_string(),
    };
    println!(
        "proactive dispatches: {} ({} found a real fault, {precision})",
        outcome.proactive_dispatches, outcome.proactive_hits,
    );
    println!(
        "churned customers : {} reactive vs {} proactive",
        outcome.reactive_churn, outcome.proactive_churn
    );
    println!(
        "\nEvery avoided ticket is a call that never had to happen — the paper's \
         \"NEVERMIND, the problem is already fixed\"."
    );
}
