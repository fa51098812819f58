//! `nevermind simulate` — generate a dataset and write it to disk.

use super::{sim_config_from, CliResult, ObsPlane};
use crate::args::Args;
use nevermind::pipeline::ExperimentData;
use nevermind_dslsim::export::export_csv_dir;
use nevermind_dslsim::summary::OutputSummary;
use std::io::Write;

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "out",
        "scenario",
        "lines",
        "days",
        "seed",
        "shards",
        "metrics",
        "trace",
        "trace-sample",
        "obs-listen",
        "profile",
        "rules",
        "history",
    ])?;
    let out_dir = std::path::PathBuf::from(args.require("out")?);
    let cfg = sim_config_from(args)?;
    let shards = super::shards(args, 1)?;
    super::setup_history(args, None)?;
    let plane = ObsPlane::start(args)?;

    eprintln!(
        "simulating {} lines over {} days (seed {}, {}) ...",
        cfg.n_lines,
        cfg.days,
        cfg.seed,
        super::shards_note(shards)
    );
    let span = nevermind_obs::span!("cli/simulate");
    let data = ExperimentData::simulate_sharded(cfg.clone(), shards);
    eprintln!("simulation finished in {:.1}s", span.elapsed().as_secs_f64());
    drop(span);

    let summary = OutputSummary::compute(&data.output, cfg.n_lines);
    let mut out = std::io::stdout().lock();
    writeln!(out, "{summary}")?;

    std::fs::create_dir_all(&out_dir)?;
    export_csv_dir(&out_dir, &data.output)?;

    let dataset_path = out_dir.join("dataset.json");
    let file = std::io::BufWriter::new(std::fs::File::create(&dataset_path)?);
    serde_json::to_writer(file, &data)?;
    writeln!(
        out,
        "\nwrote {} (self-contained; feed it to 'nevermind train') plus CSV tables in {}/",
        dataset_path.display(),
        out_dir.display()
    )?;
    plane.finish()
}
