//! `nevermind` — command-line interface to the NEVERMIND reproduction.
//!
//! ```text
//! nevermind simulate --out DIR [--scenario S] [--lines N] [--days D] [--seed S] [--shards N]
//! nevermind train    --data DIR/dataset.json --model FILE [--iterations N] [--budget-fraction F]
//!                    [--n-base N] [--n-quadratic N] [--n-product N] [--selection-row-cap N]
//! nevermind rank     --data DIR/dataset.json --model FILE [--top N] [--explain N]
//! nevermind locate   --data DIR/dataset.json [--top N] [--dispatches N] [--iterations N]
//! nevermind lint     [--root PATH] [--format text|json] [--out FILE] [--rules a,b]
//! nevermind trial    [--scenario S] [--lines N] [--days D] [--warmup-weeks W] [--shards N]
//! nevermind explain  --trace FILE --line ID
//! nevermind report   METRICS_OR_TRACE
//! nevermind scenarios
//! ```
//!
//! `simulate` writes a self-contained `dataset.json` (plus CSV tables);
//! `train` fits the Sec.-4 pipeline and writes a portable model JSON;
//! `rank` spends the ATDS budget and can explain each pick; `locate` fits
//! the Sec.-6 trouble locator and prints ranked dispositions for dispatches;
//! `trial` runs the proactive-vs-reactive twin-world comparison; `report`
//! renders a `--metrics` dump (spans, series, model-health telemetry) or
//! summarizes a `--trace` export; `explain` renders one line's decision
//! provenance (stump contributions, calibration, rank, dispatch, truck-roll
//! outcome) from a trace file; `lint` runs the workspace static analysis
//! (determinism and robustness rules — see the `nevermind-lint` crate).

mod args;
mod commands;

use args::Args;
use std::io::{ErrorKind, Write};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Only `report` takes a positional operand (the dump file to render);
    // every other subcommand is flags-only.
    let max_positional = usize::from(command == "report");
    if parsed.positional().len() > max_positional {
        eprintln!(
            "error: unexpected argument '{}' (every option is a --flag)\n\n{USAGE}",
            parsed.positional()[max_positional]
        );
        std::process::exit(2);
    }

    // The CLI always records metrics (span/counter overhead is negligible at
    // command granularity); `--metrics PATH` additionally dumps the registry
    // as one JSON document on successful exit.
    nevermind_obs::set_enabled(true);
    let metrics_path = parsed.get("metrics").map(str::to_string);

    // `--trace PATH` turns on decision-provenance tracing and exports the
    // event buffer as nevermind-trace/v1 JSONL on successful exit. For
    // `explain` the flag names the *input* trace, so it must not re-enable
    // tracing (or the export would clobber the file being explained).
    let trace_path =
        (command != "explain").then(|| parsed.get("trace").map(str::to_string)).flatten();
    if trace_path.is_some() {
        nevermind_obs::trace::set_enabled(true);
        match parsed.get("trace-sample").map(str::parse::<usize>) {
            None => {}
            Some(Ok(k)) => nevermind_obs::trace::global()
                .set_policy(nevermind_obs::trace::TracePolicy { reservoir_per_week: k }),
            Some(Err(_)) => {
                eprintln!("error: --trace-sample must be a non-negative integer\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let result = match command.as_str() {
        _ if parsed.help => writeln!(std::io::stdout(), "{USAGE}").map_err(Into::into),
        "simulate" => commands::simulate::run(&parsed),
        "train" => commands::train::run(&parsed),
        "rank" => commands::rank::run(&parsed),
        "locate" => commands::locate::run(&parsed),
        "lint" => commands::lint::run(&parsed),
        "trial" => commands::trial::run(&parsed),
        "report" => commands::report::run(&parsed, parsed.positional().first().map(String::as_str)),
        "explain" => commands::explain::run(&parsed),
        "scenarios" => commands::scenarios(&parsed),
        "help" | "--help" | "-h" => writeln!(std::io::stdout(), "{USAGE}").map_err(Into::into),
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    // A reader that closed the pipe early (`nevermind report m.json | head`)
    // wants no more output: the command stops writing and the run ends as
    // a success.
    let result = result.or_else(|e| match e.downcast_ref::<std::io::Error>() {
        Some(io) if io.kind() == ErrorKind::BrokenPipe => Ok(()),
        _ => Err(e),
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if let Some(path) = metrics_path {
        if let Err(e) = commands::write_metrics(&path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_path {
        if let Err(e) = commands::write_trace(&path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

const USAGE: &str = "\
nevermind — proactive DSL troubleshooting (CoNEXT 2010 reproduction)

USAGE:
  nevermind simulate --out DIR [--scenario NAME] [--lines N] [--days D] [--seed S] [--shards N]
  nevermind train    --data FILE --model FILE [--iterations N] [--budget-fraction F]
                     [--n-base N] [--n-quadratic N] [--n-product N] [--selection-row-cap N]
  nevermind rank     --data FILE --model FILE [--top N] [--explain N]
  nevermind locate   --data FILE [--top N] [--dispatches N] [--iterations N]
  nevermind trial    [--scenario NAME] [--lines N] [--days D] [--seed S] [--warmup-weeks W]
                     [--shards N] [--train-scenario NAME] [--obs-listen ADDR] [--profile PATH]
                     [--history on|off] [--rules PATH]
  nevermind explain  --trace FILE --line ID
  nevermind report   METRICS_JSON_OR_TRACE_JSONL | --profile COLLAPSED_STACKS
  nevermind lint     [--root PATH] [--format text|json] [--out FILE] [--rules a,b]
                     [--list-rules true]
  nevermind scenarios

'--help' (or '-h') after any subcommand prints this usage and exits 0.
Every subcommand also accepts '--metrics PATH' to dump per-phase span
timings, counters, per-week series and model-health telemetry as one
JSON document on exit (see the README's Observability section for the
schema); 'nevermind report' renders such a dump as a terminal report.
Every subcommand likewise accepts '--trace PATH' to record decision
provenance (per-line stump contributions, calibration, rank, dispatch
cutoff, technician disposition) as nevermind-trace/v1 JSONL, with
'--trace-sample N' extra non-dispatched lines traced per week;
'nevermind explain --trace FILE --line ID' then renders one line's full
causal chain, and 'nevermind report FILE' summarizes a trace file.
'trial --train-scenario NAME' trains the model in a separate world to
inject drift that the telemetry must detect. '--shards N' (simulate,
trial) steps the plant N DSLAM-subtree shards in parallel and runs the
weekly scoring stages N-way, N at most 256; '--shards 0' (trial's
default) means one shard per available core, and simulate defaults to 1.
'--lines N' (at most 10000000) and '--days D' (60 to 3650) bound the
simulated plant (simulate, trial).
'train --n-base N', '--n-quadratic N' and '--n-product N' (defaults 40,
25 and 25) set how many base, quadratic and product features selection
keeps. 'train --selection-row-cap N' (at least 1, default 12000) caps the
rows of each feature-selection window. Training always
uses every core. Outputs are bit-identical for every N; only wall time
changes. 'nevermind lint' walks the
workspace sources and enforces the determinism/robustness rules — token
bans plus call-graph passes for lock order, effects under locks, schema
drift and hash-iteration nondeterminism ('--rules a,b' runs a subset,
'--list-rules true' enumerates them; suppress a finding inline with
'// lint:allow(<rule>) -- <reason>').
'--obs-listen ADDR' (simulate, trial) serves the live observability
plane over HTTP while the run is in flight: /metrics (JSON, or
?format=prom for Prometheus), /health, /history?series=NAME&r=day|week,
/alerts, /trace/tail?n=N, /explain?line=ID and /profile — bind
127.0.0.1:0 for an ephemeral port (printed on stderr). '--profile PATH'
samples every thread's open span stack continuously and writes a
flamegraph-compatible collapsed-stack dump on exit. '--history on'
(simulate, trial) retains windowed metric aggregates in a fixed-capacity
ring clocked on simulated days; '--rules PATH' loads recording rules,
for-duration alert rules and SLO burn-rate objectives evaluated on that
history (implies --history on), and the '--metrics' dump grows a
nevermind-history/v1 section that 'nevermind report' renders as
sparklines plus an alert timeline. 'trial' has the layer on by default
and judges its model-health series (feature and score PSI, matured ECE)
with six built-in scorecard alert rules, the ones examples/history.rules
lists; '--rules PATH' replaces that set and '--history off' drops it. A
firing critical alert turns /health to 503, and trial prints the
end-of-run verdict (/health's status and the firing alerts) on stderr.
None of these flags change outcomes: runs are byte-identical with the
plane, history and rules on or off.

Run 'nevermind scenarios' to list the named scenarios.";
