//! CLI subcommand implementations.

pub(crate) mod explain;
pub(crate) mod lint;
pub(crate) mod locate;
pub(crate) mod rank;
pub(crate) mod report;
pub(crate) mod simulate;
pub(crate) mod train;
pub(crate) mod trial;

use nevermind_dslsim::scenario::Scenario;
use std::io::Write;

/// Shared error type: user-facing message strings, or the `io::Error` of
/// a failed write to stdout.
pub(crate) type CliResult = Result<(), Box<dyn std::error::Error>>;

/// A typed "recognized family, unsupported version" failure for
/// `nevermind-*` schema strings — a named error, never a panic, so a
/// dump from a newer build degrades into an actionable message.
#[derive(Debug)]
pub(crate) struct SchemaError {
    /// The schema string found in the file.
    pub(crate) found: String,
    /// Schemas this build understands.
    pub(crate) supported: &'static [&'static str],
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schema error: unsupported schema '{}'; this build reads {}",
            self.found,
            self.supported.join(", ")
        )
    }
}

impl std::error::Error for SchemaError {}

/// The live observability plane behind `--obs-listen ADDR` and
/// `--profile PATH` on long-running subcommands (`trial`, `simulate`).
///
/// `--obs-listen` binds the [`nevermind_obs::ObsServer`] HTTP endpoint
/// (and turns the trace ring on so `/trace/tail` and `/explain` have
/// events to serve); either flag starts the continuous span profiler so
/// `/profile` answers live and `--profile PATH` gets a collapsed-stack
/// dump on exit. Neither perturbs outcomes: the server only reads
/// snapshots, the profiler only observes span stacks, and the extra
/// status line goes to stderr.
pub(crate) struct ObsPlane {
    server: Option<nevermind_obs::ObsServer>,
    profile_out: Option<String>,
    started_profiler: bool,
}

impl ObsPlane {
    /// Reads `--obs-listen` / `--profile` and brings the plane up.
    /// Returns an inert plane when neither flag is present.
    pub(crate) fn start(args: &crate::args::Args) -> Result<ObsPlane, Box<dyn std::error::Error>> {
        let profile_out = args.get("profile").map(str::to_owned);
        let server = match args.get("obs-listen") {
            None => None,
            Some(addr) => {
                nevermind_obs::trace::set_enabled(true);
                let server = nevermind_obs::ObsServer::start(addr)?;
                eprintln!(
                    "obs: live observability plane on http://{} \
                     (/metrics /health /history /alerts /trace/tail /explain /profile)",
                    server.local_addr()
                );
                Some(server)
            }
        };
        let started_profiler = server.is_some() || profile_out.is_some();
        if started_profiler {
            nevermind_obs::profile::global()
                .start(nevermind_obs::profile::Profiler::DEFAULT_INTERVAL)
                .map_err(|e| format!("cannot start span profiler: {e}"))?;
        }
        Ok(ObsPlane { server, profile_out, started_profiler })
    }

    /// Tears the plane down: stops the sampler, writes the `--profile`
    /// dump if requested, and shuts the HTTP listener down.
    pub(crate) fn finish(self) -> CliResult {
        if self.started_profiler {
            nevermind_obs::profile::global().stop();
        }
        if let Some(path) = &self.profile_out {
            let dump = nevermind_obs::profile::global().collapsed();
            std::fs::write(path, &dump)
                .map_err(|e| format!("cannot write profile '{path}': {e}"))?;
            eprintln!(
                "wrote {} collapsed stack{} to {path} (flamegraph.pl / inferno format)",
                dump.lines().count(),
                if dump.lines().count() == 1 { "" } else { "s" }
            );
        }
        if let Some(server) = self.server {
            server.stop();
        }
        Ok(())
    }
}

/// Brings up the deterministic metrics-history layer behind `--history
/// on|off` and `--rules PATH` (long-running subcommands: `trial`,
/// `simulate`).
///
/// `--rules PATH` parses a zero-dependency rule file (recording rules,
/// `for`-duration alert rules, SLO error-budget objectives — see the
/// README's "Metrics history & alerting" section for the grammar) and
/// installs it as the global rule engine, which implies `--history on`.
/// Without `--rules`, a subcommand's `builtin` rule text (`trial`'s
/// model-health set) is installed instead, and the layer defaults to on;
/// `--history off` turns both off. The history ring snapshots the registry
/// on *simulated* day ticks, so everything it retains — and every alert
/// transition the engine takes — is byte-reproducible across reruns and
/// shard counts, and outcomes are byte-identical with the layer on or off.
pub(crate) fn setup_history(args: &crate::args::Args, builtin: Option<&str>) -> CliResult {
    let history = match args.get("history") {
        None => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => {
            return Err(format!("--history takes 'on' or 'off', not '{other}'").into());
        }
    };
    let rules = match (args.get("rules"), builtin) {
        (Some(path), _) => {
            if history == Some(false) {
                return Err(format!(
                    "--rules '{path}' needs the history layer; drop '--history off'"
                )
                .into());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read rules '{path}': {e}"))?;
            let rules = nevermind_obs::rules::parse_rules(&text)
                .map_err(|e| format!("cannot parse rules '{path}': {e}"))?;
            Some((format!("rules from {path}"), rules))
        }
        (None, Some(text)) if history != Some(false) => {
            let rules = nevermind_obs::rules::parse_rules(text)
                .map_err(|e| format!("cannot parse the built-in rules: {e}"))?;
            Some(("the built-in rules".to_string(), rules))
        }
        (None, _) => None,
    };
    let history_on = history.unwrap_or(rules.is_some());
    if let Some((source, rules)) = rules {
        eprintln!(
            "obs: installed {source} ({} recording, {} alert, {} slo)",
            rules.records.len(),
            rules.alerts.len(),
            rules.slos.len()
        );
        nevermind_obs::rules::install(rules);
    }
    nevermind_obs::history::set_enabled(history_on);
    if history_on {
        eprintln!("obs: metrics history ring enabled (day + week resolutions, sim-time ticks)");
    }
    Ok(())
}

/// `nevermind scenarios` — list the named presets.
pub(crate) fn scenarios(args: &crate::args::Args) -> CliResult {
    args.reject_unknown(&["metrics", "trace", "trace-sample"])?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{:<18} description", "scenario")?;
    writeln!(out, "{:<18} -----------", "--------")?;
    for s in Scenario::ALL {
        writeln!(out, "{:<18} {}", s.name(), s.description())?;
    }
    Ok(())
}

/// Dumps the global metrics registry as one JSON document at `path`
/// (the `--metrics` flag every subcommand accepts).
pub(crate) fn write_metrics(path: &str) -> CliResult {
    // History-aware export: when the history layer ran, the dump grows a
    // `nevermind-history/v1` section (windowed aggregates + alert states);
    // when it didn't, the document is byte-identical to the plain form.
    let snap = nevermind_obs::global().snapshot();
    std::fs::write(path, nevermind_obs::json::snapshot_to_json_with_history(&snap))
        .map_err(|e| format!("cannot write metrics '{path}': {e}"))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// Dumps the global trace buffer as one `nevermind-trace/v1` JSONL
/// document at `path` (the `--trace` flag every subcommand accepts).
pub(crate) fn write_trace(path: &str) -> CliResult {
    std::fs::write(path, nevermind_obs::trace::global().to_jsonl())
        .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
    eprintln!("wrote trace to {path}");
    Ok(())
}

/// How a `--shards N` value reads in a progress line (`0` = every core).
pub(crate) fn shards_note(shards: usize) -> String {
    match shards {
        0 => "one shard per core".to_string(),
        1 => "1 shard".to_string(),
        n => format!("{n} shards"),
    }
}

/// Resolves a scenario flag into a simulator config.
pub(crate) fn sim_config_from(
    args: &crate::args::Args,
) -> Result<nevermind_dslsim::SimConfig, Box<dyn std::error::Error>> {
    let name = args.get_or("scenario", "baseline");
    let scenario = Scenario::parse(&name)
        .ok_or_else(|| format!("unknown scenario '{name}' (see 'nevermind scenarios')"))?;
    let lines = args.get_parsed_or("lines", 4_000usize)?;
    let days = args.get_parsed_or("days", 330u32)?;
    let seed = args.get_parsed_or("seed", 0x5EED_CA11u64)?;
    let cfg = scenario.config(seed, lines, days);
    cfg.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(cfg)
}

/// `--budget-fraction F`: the share of the ranked population the ATDS
/// budget covers (default 1%). Anything but a number in (0, 1] — `nan`,
/// `inf`, zero, a negative or a fraction above one — is an error naming
/// the flag.
pub(crate) fn budget_fraction(args: &crate::args::Args) -> Result<f64, crate::args::ArgError> {
    let fraction = args.get_parsed_or("budget-fraction", 0.01f64)?;
    if fraction > 0.0 && fraction <= 1.0 {
        Ok(fraction)
    } else {
        Err(crate::args::ArgError(format!(
            "--budget-fraction: '{}' is not in (0, 1]",
            args.get("budget-fraction").unwrap_or_default()
        )))
    }
}

/// Largest `--iterations` budget accepted (the paper's T is 800).
pub(crate) const MAX_ITERATIONS: usize = 100_000;

/// `--iterations T`: the boosting budget, `default` when absent. A budget
/// above [`MAX_ITERATIONS`] is an error naming the flag — a boosting fit
/// runs until its budget or until no stump lowers `Z`, so a mistyped
/// budget would look like a hang.
pub(crate) fn iterations(
    args: &crate::args::Args,
    default: usize,
) -> Result<usize, crate::args::ArgError> {
    count_in(args, "iterations", default, 0..=MAX_ITERATIONS)
}

/// Largest `--shards` count accepted.
pub(crate) const MAX_SHARDS: usize = 256;

/// `--shards N`: the part count of the simulator and the weekly stages,
/// `default` when absent (`0` = one per core). A count above
/// [`MAX_SHARDS`] is an error naming the flag: every part but one is a
/// thread, started anew for each simulated day and each weekly stage, so
/// a mistyped count would start that many threads hundreds of times.
pub(crate) fn shards(
    args: &crate::args::Args,
    default: usize,
) -> Result<usize, crate::args::ArgError> {
    count_in(args, "shards", default, 0..=MAX_SHARDS)
}

/// `--NAME N`: a count, `default` when absent, that must lie in `range`;
/// a count outside it is an error naming the flag and the bound it broke.
pub(crate) fn count_in(
    args: &crate::args::Args,
    name: &str,
    default: usize,
    range: std::ops::RangeInclusive<usize>,
) -> Result<usize, crate::args::ArgError> {
    let count = args.get_parsed_or(name, default)?;
    if range.contains(&count) {
        return Ok(count);
    }
    let given = args.get(name).unwrap_or_default();
    let broken = if count > *range.end() {
        format!("is above {}", range.end())
    } else {
        format!("is below {}", range.start())
    };
    Err(crate::args::ArgError(format!("--{name}: '{given}' {broken}")))
}

/// Loads a dataset written by `nevermind simulate` and checks its line ids
/// against its topology.
pub(crate) fn load_dataset(
    path: &str,
) -> Result<nevermind::pipeline::ExperimentData, Box<dyn std::error::Error>> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open dataset '{path}': {e}"))?;
    let reader = std::io::BufReader::new(file);
    let data: nevermind::pipeline::ExperimentData = serde_json::from_reader(reader)
        .map_err(|e| format!("cannot parse dataset '{path}': {e}"))?;
    data.validate()?;
    Ok(data)
}
