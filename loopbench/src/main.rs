//! `loopbench` — one benchmark for the NEVERMIND loop.
//!
//! ```text
//! loopbench --workload trial|rerank|locate --seed N --seconds S --trace 0|1
//!           [--repeat R]
//! ```
//!
//! A run prints a manifest line, a report line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A run with a failed
//! check still prints its result line (`"correct": false`, the failures
//! counted), then exits with code 1. `--repeat R` instead
//! runs the benchmark `R` times, each in a fresh process (so each peak-RSS
//! reading is isolated) with seeds `N, N+1, ...`, and prints the median
//! and interquartile range of every metric.

use loopbench::output::{self, field};
use loopbench::{stats, RunConfig, Scale, Workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: loopbench --workload trial|rerank|locate --seed N --seconds S \
                     --trace 0|1 [--repeat R]";

struct Args {
    workload: Workload,
    cfg: RunConfig,
    repeat: Option<usize>,
    raw: Vec<String>,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if map.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let take = |name: &str| map.get(name).cloned();
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace", "repeat"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let workload = take("workload")
        .and_then(|w| Workload::parse(&w))
        .ok_or("--workload must be trial, rerank or locate")?;
    let seed = take("seed").ok_or("--seed is required")?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad --seed '{seed}'"))?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace '{t}' (0 or 1)")),
    };
    let repeat = match take("repeat") {
        None => None,
        Some(r) => Some(r.parse::<usize>().ok().filter(|&r| r > 0).ok_or("bad --repeat")?),
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Args { workload, cfg: RunConfig { seed, seconds, trace, scale: Scale::Full, threads }, repeat, raw })
}

/// Runs the benchmark `repeat` times in fresh processes and prints each
/// metric's median and IQR.
fn repeat(args: &Args, repeat: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for i in 0..repeat {
        let mut child_args = Vec::new();
        let mut it = args.raw.iter();
        while let (Some(k), Some(v)) = (it.next(), it.next()) {
            match k.as_str() {
                "--repeat" => {}
                "--seed" => child_args.extend([k.clone(), (args.cfg.seed + i as u64).to_string()]),
                _ => child_args.extend([k.clone(), v.clone()]),
            }
        }
        let out = Command::new(&exe).args(&child_args).output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let v: serde_json::Value = serde_json::from_str(last)
            .map_err(|e| format!("run {i}: unreadable result ({e}): {last}"))?;
        attempted += field(&v, "attempted").and_then(|a| a.as_u64()).unwrap_or(0);
        failed += field(&v, "failed").and_then(|a| a.as_u64()).unwrap_or(1);
        let metrics = field(&v, "metrics").and_then(|m| m.as_object());
        for (name, m) in metrics.into_iter().flat_map(|m| m.iter()) {
            let unit = field(m, "unit").and_then(|u| u.as_str()).unwrap_or("").to_string();
            let value = field(m, "value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            values.entry(name.clone()).or_insert_with(|| (unit, Vec::new())).1.push(value);
        }
        eprintln!("run {}/{repeat} (seed {}) done", i + 1, args.cfg.seed + i as u64);
    }
    for (name, (unit, v)) in &values {
        let (q1, q3) = stats::quartiles(v);
        println!(
            "{{\"metric\": {}, \"unit\": {}, \"runs\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_share\": {}}}",
            output::quote(name),
            output::quote(unit),
            v.len(),
            output::number(stats::median(v)),
            output::number(q1),
            output::number(q3),
            output::number(stats::relative_iqr(v)),
        );
    }
    println!("{{\"runs\": {repeat}, \"attempted\": {attempted}, \"failed\": {failed}}}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(r) = args.repeat {
        return match repeat(&args, r) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("loopbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut outcome = loopbench::run(args.workload, &args.cfg);
    let complete =
        !outcome.metrics.is_empty() && outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome.checks.op(complete, || "the run produced no complete set of metrics".into());
    for f in &outcome.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", output::manifest_line(args.workload, &args.cfg, &outcome));
    println!("{}", output::report_line(&outcome));
    println!("{}", output::result_line(&outcome));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
