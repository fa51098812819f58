//! `nevermind rank` — spend the ATDS budget on a saved dataset with a
//! saved model, optionally explaining each pick.

use super::{load_dataset, CliResult};
use crate::args::Args;
use nevermind::pipeline::SplitSpec;
use nevermind::predictor::TicketPredictor;
use nevermind_ml::rank::top_k;
use std::io::Write;

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
    // One encoding, under the model's own encoder config, serves the
    // ranking and every traced or explained row.
    let base = data.encoder(predictor.encoder_config().clone()).encode(&split.test_days);
    let ranking = predictor.rank_encoded(&base);

    let mut out = std::io::stdout().lock();
    writeln!(out, "{:<12} {:>5} {:>22} {:>8}", "line", "day", "P(ticket in 4 wks)", "outcome")?;
    for (key, prob, label) in ranking.top_rows(top) {
        writeln!(
            out,
            "{:<12} {:>5} {:>22.3} {:>8}",
            key.line.to_string(),
            key.day,
            prob,
            if label { "ticket" } else { "-" }
        )?;
    }
    let budget = ((ranking.len() as f64) * 0.01).ceil() as usize;
    writeln!(
        out,
        "\nprecision@{budget} (1% budget) = {:.1}%",
        100.0 * ranking.precision_at(budget)
    )?;

    // With `--trace`, emit the provenance chain for every printed row so
    // `nevermind explain` can reconstruct the batch ranking too. Ranked row
    // `i` is row `i` of the encoding, so its assembled features are too.
    let tracing = nevermind_obs::trace::enabled();
    if !tracing && explain == 0 {
        return Ok(());
    }
    let assembled = predictor.assemble(&base);
    let (rows, probs) = (&ranking.rows, &ranking.probabilities);
    if tracing {
        let names = predictor.assembled_feature_names();
        for (rank, i) in top_k(probs, top).into_iter().enumerate() {
            nevermind::provenance::emit_scored_line(
                &predictor,
                &names,
                assembled.x.row(i),
                (rows[i].line.0, rows[i].day),
                (rank + 1, probs[i], rank < budget),
            );
        }
    }

    if explain > 0 {
        writeln!(out, "\n--- why the top {explain} picks ---")?;
        for i in top_k(probs, explain) {
            let contributions = predictor.explain(assembled.x.row(i));
            writeln!(out, "\n{} @ day {} (P = {:.3}):", rows[i].line, rows[i].day, probs[i])?;
            for c in contributions.iter().take(5) {
                writeln!(
                    out,
                    "  {:<40} value {:>12.3}  margin {:+.3}",
                    c.name, c.value, c.contribution
                )?;
            }
        }
    }
    Ok(())
}
