//! `nevermind lint` — run the workspace static analysis (see the
//! `nevermind-lint` crate) from the main CLI.

use super::CliResult;
use crate::args::Args;
use std::io::Write;
use std::path::Path;

/// Runs the subcommand.
pub(crate) fn run(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "root",
        "format",
        "out",
        "rules",
        "list-rules",
        "metrics",
        "trace",
        "trace-sample",
    ])?;
    let _span = nevermind_obs::span!("cli/lint");
    let mut out = std::io::stdout().lock();
    if args.get_parsed_or("list-rules", false)? {
        for r in nevermind_lint::RULES {
            writeln!(out, "{:<26} {}", r.id, r.summary)?;
        }
        return Ok(());
    }
    let root = args.get_or("root", ".");
    let format = args.get_or("format", "text");
    if format != "text" && format != "json" {
        return Err(format!("--format must be 'text' or 'json', got '{format}'").into());
    }
    let opts = match args.get("rules") {
        Some(csv) => nevermind_lint::LintOptions::with_rules(csv)?,
        None => nevermind_lint::LintOptions::default(),
    };

    let report = nevermind_lint::lint_workspace_with(Path::new(&root), &opts)?;
    let rendered = if format == "json" { report.render_json() } else { report.render_text() };
    match args.get("out") {
        Some(path) => nevermind_lint::engine::write_report(path, &rendered)?,
        None => write!(out, "{rendered}")?,
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} lint diagnostic(s); fix them or acknowledge with \
             `// lint:allow(<rule>) -- <reason>`",
            report.diagnostics.len()
        )
        .into())
    }
}
