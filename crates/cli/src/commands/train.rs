//! `nevermind train` — fit the ticket predictor on a saved dataset.

use super::{budget_fraction, count_in, iterations, load_dataset, CliResult};
use crate::args::Args;
use nevermind::pipeline::SplitSpec;
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use std::io::Write;

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "data",
        "model",
        "iterations",
        "budget-fraction",
        "n-base",
        "n-quadratic",
        "n-product",
        "selection-row-cap",
        "metrics",
        "trace",
        "trace-sample",
    ])?;
    let data_path = args.require("data")?;
    let model_path = args.require("model")?;
    // Every flag is checked before the dataset is read.
    let config = PredictorConfig {
        iterations: iterations(args, 150)?,
        budget_fraction: budget_fraction(args)?,
        n_base: args.get_parsed_or("n-base", 40usize)?,
        n_quadratic: args.get_parsed_or("n-quadratic", 25usize)?,
        n_product: args.get_parsed_or("n-product", 25usize)?,
        // An empty cap leaves selection no eval rows: every candidate
        // would score AP(N) = 0 over nothing.
        selection_row_cap: count_in(args, "selection-row-cap", 12_000, 1..=usize::MAX)?,
        ..PredictorConfig::default()
    };

    let data = load_dataset(&data_path)?;
    let split = SplitSpec::paper_like(&data)?;

    eprintln!(
        "training on {:?} (selection eval {:?}) ...",
        split.train_days, split.selection_eval_days
    );
    let span = nevermind_obs::span!("cli/train");
    let (predictor, report) = TicketPredictor::fit(&data, &split, &config)?;
    eprintln!("fit finished in {:.1}s", span.elapsed().as_secs_f64());
    drop(span);

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "selected {} features ({} base + {} derived); selection AP budget {}",
        report.n_selected(),
        report.selected_base.len(),
        report.selected_derived.len(),
        report.selection_budget
    )?;
    writeln!(out, "top selected features by single-feature AP:")?;
    // A degenerate selection window (single-class labels) yields NaN AP for
    // every feature scored on it; `total_cmp` keeps the sort panic-free,
    // and NaN-scored features are reported separately rather than ranked.
    let all: Vec<_> =
        report.base.iter().chain(report.quadratic.iter()).chain(report.product.iter()).collect();
    let (unscored, mut scored): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.score.is_nan());
    scored.sort_by(|a, b| b.score.total_cmp(&a.score));
    for f in scored.iter().take(10) {
        writeln!(out, "  {:<40} AP = {:.3}", f.name, f.score)?;
    }
    if !unscored.is_empty() {
        writeln!(
            out,
            "note: {} features have undefined AP (degenerate selection window?), e.g. {}",
            unscored.len(),
            unscored[0].name
        )?;
    }

    let file = std::io::BufWriter::new(std::fs::File::create(&model_path)?);
    serde_json::to_writer(file, &predictor)?;
    writeln!(out, "\nwrote model to {model_path}")?;

    // Quick self-check on the held-out test window.
    let ranking = predictor.rank(&data, &split.test_days);
    let budget = config.budget(ranking.len());
    writeln!(
        out,
        "held-out check: precision@{budget} = {:.1}% over {} (line, week) pairs",
        100.0 * ranking.precision_at(budget),
        ranking.len()
    )?;
    Ok(())
}
