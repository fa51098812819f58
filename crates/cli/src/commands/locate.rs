//! `nevermind locate` — fit the trouble locator on a saved dataset and
//! show ranked dispositions for held-out dispatches.

use super::{iterations, load_dataset, CliResult};
use crate::args::Args;
use nevermind::locator::{
    collect_dispatch_examples, LocatorConfig, LocatorEvaluation, TroubleLocator,
};
use std::io::Write;

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
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "{} of 52 dispositions modeled from {} training dispatches",
        locator.modeled_dispositions().len(),
        collect_dispatch_examples(&data.output.notes, 30, mid).len()
    )?;

    let examples = collect_dispatch_examples(&data.output.notes, mid, days);
    if examples.is_empty() {
        writeln!(out, "no held-out dispatches to demonstrate on")?;
        return Ok(());
    }
    // The evaluation ranks every held-out dispatch, the shown ones too,
    // and traces each ranking keyed by its dispatch. The shown dispatches
    // are ranked again for display with tracing suspended, so each
    // dispatch's events appear once.
    let eval = LocatorEvaluation::run(&locator, &data, mid, days);
    let tracing = nevermind_obs::trace::enabled();
    nevermind_obs::trace::set_enabled(false);
    let ds = locator.encode_examples(&data, &examples[..n_show.min(examples.len())]);
    let shown: Vec<_> = (0..ds.x.n_rows()).map(|i| locator.rank_combined(ds.x.row(i))).collect();
    nevermind_obs::trace::set_enabled(tracing);
    for (e, ranked) in examples.iter().zip(&shown) {
        writeln!(
            out,
            "\ndispatch to {} (day {}), technician recorded {}:",
            e.line,
            e.day,
            e.disposition.info().code
        )?;
        for s in ranked.iter().take(top) {
            let marker = if s.disposition == e.disposition { "  <-- true" } else { "" };
            writeln!(
                out,
                "  {:<20} P = {:.3} ({}){marker}",
                s.disposition.info().code,
                s.probability,
                s.disposition.location().label()
            )?;
        }
    }

    let (basic, flat, combined) = eval.tests_to_locate(0.5);
    let (bm, fm, cm, costm) = eval.mean_minutes();
    writeln!(out, "\n--- aggregate over {} held-out dispatches ---", eval.per_example.len())?;
    writeln!(out, "tests to locate 50%: basic {basic} / flat {flat} / combined {combined}")?;
    writeln!(out,
        "mean technician minutes: basic {bm:.0} / flat {fm:.0} / combined {cm:.0} / cost-aware {costm:.0}"
    )?;
    writeln!(out, "major-location accuracy: {:.1}%", 100.0 * eval.location_accuracy())?;
    Ok(())
}
