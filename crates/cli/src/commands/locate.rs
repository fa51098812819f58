//! `nevermind locate` — fit the trouble locator on a saved dataset and
//! show ranked dispositions for held-out dispatches.

use super::{iterations, load_dataset, CliResult};
use crate::args::Args;
use nevermind::locator::{
    collect_dispatch_examples, LocatorConfig, LocatorEvaluation, TroubleLocator,
};

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "data",
        "top",
        "dispatches",
        "iterations",
        "metrics",
        "trace",
        "trace-sample",
    ])?;
    let _span = nevermind_obs::span!("cli/locate");
    let data = load_dataset(&args.require("data")?)?;
    let top: usize = args.get_parsed_or("top", 5usize)?;
    let n_show: usize = args.get_parsed_or("dispatches", 3usize)?;

    let days = data.config.days;
    let mid = days * 2 / 3;
    let config = LocatorConfig { iterations: iterations(args, 80)?, ..LocatorConfig::default() };
    eprintln!("fitting the trouble locator on dispatches in [30, {mid}) ...");
    let locator = TroubleLocator::fit(&data, 30, mid, &config)?;
    println!(
        "{} of 52 dispositions modeled from {} training dispatches",
        locator.modeled_dispositions().len(),
        collect_dispatch_examples(&data.output.notes, 30, mid).len()
    );

    let examples = collect_dispatch_examples(&data.output.notes, mid, days);
    if examples.is_empty() {
        println!("no held-out dispatches to demonstrate on");
        return Ok(());
    }
    let ds = locator.encode_examples(&data, &examples[..n_show.min(examples.len())]);
    for (i, e) in examples.iter().take(n_show).enumerate() {
        println!(
            "\ndispatch to {} (day {}), technician recorded {}:",
            e.line,
            e.day,
            e.disposition.info().code
        );
        // Tag the locator's trace events with the dispatch they explain.
        let ranked = locator.rank_combined_traced(ds.x.row(i), Some((e.line.0, e.day)));
        for s in ranked.iter().take(top) {
            let marker = if s.disposition == e.disposition { "  <-- true" } else { "" };
            println!(
                "  {:<20} P = {:.3} ({}){marker}",
                s.disposition.info().code,
                s.probability,
                s.disposition.location().label()
            );
        }
    }

    let eval = LocatorEvaluation::run(&locator, &data, mid, days);
    let (basic, flat, combined) = eval.tests_to_locate(0.5);
    let (bm, fm, cm, costm) = eval.mean_minutes();
    println!("\n--- aggregate over {} held-out dispatches ---", eval.per_example.len());
    println!("tests to locate 50%: basic {basic} / flat {flat} / combined {combined}");
    println!(
        "mean technician minutes: basic {bm:.0} / flat {fm:.0} / combined {cm:.0} / cost-aware {costm:.0}"
    );
    println!("major-location accuracy: {:.1}%", 100.0 * eval.location_accuracy());
    Ok(())
}
