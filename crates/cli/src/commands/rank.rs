//! `nevermind rank` — spend the ATDS budget on a saved dataset with a
//! saved model, optionally explaining each pick.

use super::{load_dataset, CliResult};
use crate::args::Args;
use nevermind::pipeline::SplitSpec;
use nevermind::predictor::TicketPredictor;

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&["data", "model", "top", "explain", "metrics", "trace", "trace-sample"])?;
    let _span = nevermind_obs::span!("cli/rank");
    let data = load_dataset(&args.require("data")?)?;
    let model_path = args.require("model")?;
    let top: usize = args.get_parsed_or("top", 20usize)?;
    let explain: usize = args.get_parsed_or("explain", 0usize)?;

    let file = std::fs::File::open(&model_path)
        .map_err(|e| format!("cannot open model '{model_path}': {e}"))?;
    let predictor: TicketPredictor = serde_json::from_reader(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse model '{model_path}': {e}"))?;
    predictor.validate()?;

    let split = SplitSpec::paper_like(&data)?;
    eprintln!("ranking test Saturdays {:?} ...", split.test_days);
    let ranking = predictor.rank(&data, &split.test_days);

    println!("{:<12} {:>5} {:>22} {:>8}", "line", "day", "P(ticket in 4 wks)", "outcome");
    for (key, prob, label) in ranking.top_rows(top) {
        println!(
            "{:<12} {:>5} {:>22.3} {:>8}",
            key.line.to_string(),
            key.day,
            prob,
            if label { "ticket" } else { "-" }
        );
    }
    let budget = ((ranking.len() as f64) * 0.01).ceil() as usize;
    println!("\nprecision@{budget} (1% budget) = {:.1}%", 100.0 * ranking.precision_at(budget));

    // With `--trace`, emit the provenance chain for every printed row so
    // `nevermind explain` can reconstruct the batch ranking too.
    if nevermind_obs::trace::enabled() {
        let encoder = data.encoder(Default::default());
        let base = encoder.encode(&split.test_days);
        let assembled = predictor.assemble(&base);
        let names = predictor.assembled_feature_names();
        for (i, (key, prob, _)) in ranking.top_rows(top).into_iter().enumerate() {
            if let Some(row_idx) = base.rows.iter().position(|r| *r == key) {
                nevermind::provenance::emit_scored_line(
                    &predictor,
                    &names,
                    assembled.x.row(row_idx),
                    (key.line.0, key.day),
                    (i + 1, prob, i < budget),
                );
            }
        }
    }

    if explain > 0 {
        let encoder = data.encoder(Default::default());
        let base = encoder.encode(&split.test_days);
        let assembled = predictor.assemble(&base);
        // Map row keys back to assembled row indices.
        println!("\n--- why the top {explain} picks ---");
        for (key, prob, _) in ranking.top_rows(explain) {
            // A malformed or mismatched dataset (e.g. edited by hand, or a
            // model trained against a different plant) can rank a row the
            // re-encoding does not contain; report it instead of panicking.
            let row_idx = base.rows.iter().position(|r| *r == key).ok_or_else(|| {
                format!(
                    "ranked line {} (day {}) is missing from the dataset's encoding — \
                     was the dataset modified, or the model trained on different data?",
                    key.line, key.day
                )
            })?;
            let contributions = predictor.explain(assembled.x.row(row_idx));
            println!("\n{} @ day {} (P = {prob:.3}):", key.line, key.day);
            for c in contributions.iter().take(5) {
                println!("  {:<40} value {:>12.3}  margin {:+.3}", c.name, c.value, c.contribution);
            }
        }
    }
    Ok(())
}
