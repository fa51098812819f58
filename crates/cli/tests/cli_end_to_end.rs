//! End-to-end CLI test: simulate → train → rank → locate → trial on a tiny
//! world, driving the actual binary.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nevermind"))
}

fn work_dir() -> PathBuf {
    named_work_dir("flow")
}

/// Per-test scratch dirs: tests run concurrently in one process, so each
/// needs its own directory to create and remove.
fn named_work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nevermind-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = work_dir();
    let dataset = dir.join("dataset.json");
    let model = dir.join("model.json");

    // simulate
    let out = bin()
        .args([
            "simulate",
            "--out",
            dir.to_str().expect("utf8"),
            "--lines",
            "1200",
            "--days",
            "270",
            "--seed",
            "5",
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tickets:"), "summary printed: {stdout}");
    assert!(dataset.exists(), "dataset.json written");
    assert!(dir.join("measurements.csv").exists());

    // train
    let out = bin()
        .args([
            "train",
            "--data",
            dataset.to_str().expect("utf8"),
            "--model",
            model.to_str().expect("utf8"),
            "--iterations",
            "40",
            "--selection-row-cap",
            "4000",
            "--n-base",
            "15",
            "--n-quadratic",
            "5",
            "--n-product",
            "5",
        ])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected"), "selection report printed: {stdout}");
    assert!(stdout.contains("precision@"), "held-out check printed: {stdout}");
    assert!(model.exists(), "model.json written");

    // rank (+ explain)
    let out = bin()
        .args([
            "rank",
            "--data",
            dataset.to_str().expect("utf8"),
            "--model",
            model.to_str().expect("utf8"),
            "--top",
            "5",
            "--explain",
            "1",
        ])
        .output()
        .expect("run rank");
    assert!(out.status.success(), "rank failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P(ticket in 4 wks)"), "{stdout}");
    assert!(stdout.contains("why the top 1"), "{stdout}");

    // locate
    let out = bin()
        .args([
            "locate",
            "--data",
            dataset.to_str().expect("utf8"),
            "--iterations",
            "25",
            "--dispatches",
            "1",
        ])
        .output()
        .expect("run locate");
    assert!(out.status.success(), "locate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tests to locate 50%"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_workflow_trial_explain_report() {
    let dir = named_work_dir("trace");
    let trace = dir.join("trial.trace.jsonl");

    // A traced trial long enough for several policy Saturdays and for the
    // scheduled trucks to actually roll before the horizon.
    let out = bin()
        .args([
            "trial",
            "--lines",
            "300",
            "--days",
            "160",
            "--warmup-weeks",
            "14",
            "--trace",
            trace.to_str().expect("utf8"),
        ])
        .output()
        .expect("run trial");
    assert!(out.status.success(), "trial failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists(), "trace written");

    // The export leads with the schema header and carries dispatch events.
    let jsonl = std::fs::read_to_string(&trace).expect("read trace");
    let header = jsonl.lines().next().expect("header");
    assert!(header.contains("\"schema\":\"nevermind-trace/v1\""), "{header}");
    let dispatched_line = jsonl
        .lines()
        .find(|l| l.contains("\"kind\":\"dispatch\""))
        .and_then(|l| {
            let rest = l.split("\"line\":").nth(1)?;
            rest.split(|c: char| !c.is_ascii_digit()).next().map(str::to_string)
        })
        .expect("a dispatch event with a line id");

    // explain renders the dispatched line's full causal chain.
    let out = bin()
        .args(["explain", "--trace", trace.to_str().expect("utf8"), "--line", &dispatched_line])
        .output()
        .expect("run explain");
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in
        ["decision provenance", "DISPATCHED", "top contributions", "calibration", "truck roll"]
    {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }

    // explain on an untraced line fails with guidance, not a panic.
    let out = bin()
        .args(["explain", "--trace", trace.to_str().expect("utf8"), "--line", "999999"])
        .output()
        .expect("run explain");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no trace events for line 999999"));

    // report summarizes the same file: kinds and the dispatch confusion.
    let out = bin().args(["report", trace.to_str().expect("utf8")]).output().expect("run report");
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["events by kind", "dispatch_week", "proactive dispatch outcomes", "precision"] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_edge_cases_do_not_panic() {
    let dir = named_work_dir("report");

    // Empty metrics file: a clean parse error, not a panic.
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").expect("write");
    let out = bin().args(["report", empty.to_str().expect("utf8")]).output().expect("run");
    assert!(!out.status.success(), "empty file must be an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "clean error, got: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Metrics dump with no telemetry section: reported as absent, exit 0.
    let bare = dir.join("bare.json");
    std::fs::write(
        &bare,
        r#"{"schema":"nevermind-metrics/v1","counters":{},"gauges":{},"histograms":{},"spans":{},"series":{}}"#,
    )
    .expect("write");
    let out = bin().args(["report", bare.to_str().expect("utf8")]).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(no telemetry section"), "{stdout}");

    // Trace file with zero dispatched lines: precision renders as n/a,
    // no divide-by-zero, exit 0.
    let quiet = dir.join("quiet.trace.jsonl");
    std::fs::write(
        &quiet,
        concat!(
            "{\"schema\":\"nevermind-trace/v1\",\"events\":2,\"dropped\":0,\"reservoir_per_week\":5}\n",
            "{\"seq\":0,\"kind\":\"dispatch_week\",\"day\":104,\"fields\":{\"population\":300,\"budget\":3,\"dispatched\":0}}\n",
            "{\"seq\":1,\"kind\":\"visit\",\"line\":7,\"day\":12,\"fields\":{\"proactive\":0,\"found_fault\":1,\"disposition\":\"F1-STUB\",\"tests_performed\":9,\"minutes_spent\":120.0}}\n",
        ),
    )
    .expect("write");
    let out = bin().args(["report", quiet.to_str().expect("utf8")]).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dispatched lines visited: 0"), "{stdout}");
    assert!(stdout.contains("fault-found precision: n/a"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_lists_presets() {
    let out = bin().arg("scenarios").output().expect("run scenarios");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["baseline", "storm-season", "aging-plant", "overprovisioned", "quiet-network"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `nevermind scenarios | head -0`: the reader is gone before the first
    // line, so the first write fails with `EPIPE` (Rust ignores SIGPIPE).
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bin().arg("scenarios").stdout(writer).output().expect("run scenarios");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status.code());
    assert!(stderr.is_empty(), "{stderr}");

    // `nevermind report m.json | head -1`: the reader takes one line and
    // closes mid-report. The history section renders far more than a pipe
    // holds, so the report is still writing it when the reader goes.
    let dir = named_work_dir("closed-stdout");
    let dump = dir.join("history.json");
    let series: Vec<String> =
        (0..4000).map(|i| format!(r#""series/{i}":{{"week":[[0,1,3,4,2,2]]}}"#)).collect();
    std::fs::write(
        &dump,
        format!(
            r#"{{"schema":"nevermind-metrics/v1","counters":{{}},"gauges":{{}},"spans":{{}},"series":{{}},"history":{{"schema":"nevermind-history/v1","ticks":7,"series":{{{}}}}}}}"#,
            series.join(",")
        ),
    )
    .expect("write dump");
    let mut child = bin()
        .args(["report", dump.to_str().expect("utf8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run report");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("nevermind metrics report"), "{first}");
    let out = child.wait_with_output().expect("wait for report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status.code());
    assert!(stderr.is_empty(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subcommand_help_prints_the_usage() {
    for args in [&["trial", "--help"][..], &["train", "-h"], &["simulate", "--out", "d", "--help"]]
    {
        let out = bin().args(args).output().expect("run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("nevermind trial") && stdout.contains("--lines"), "{stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = bin().arg("simulate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // Unknown flag.
    let out = bin().args(["simulate", "--out", "/tmp/x", "--bogus", "1"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));

    // Unknown scenario.
    let out =
        bin().args(["simulate", "--out", "/tmp/x", "--scenario", "nope"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));

    // Stray positional.
    let out = bin().args(["rank", "stray"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

/// Simulates a small world and trains a model on it in a fresh work dir;
/// returns the dir, the dataset path and the saved model's JSON.
fn trained_model(tag: &str) -> (PathBuf, PathBuf, String) {
    let dir = named_work_dir(tag);
    let dataset = dir.join("dataset.json");
    let model = dir.join("model.json");
    let out = bin()
        .args(["simulate", "--out", dir.to_str().expect("utf8"), "--lines", "600"])
        .args(["--days", "270", "--seed", "9"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["train", "--data", dataset.to_str().expect("utf8")])
        .args(["--model", model.to_str().expect("utf8"), "--iterations", "20"])
        .args(["--selection-row-cap", "2000", "--n-base", "8"])
        .args(["--n-quadratic", "2", "--n-product", "2"])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&model).expect("read model");
    (dir, dataset, json)
}

/// Replaces the first number after `"key":` (past an opening `[`, if any)
/// with `value`.
fn tamper(json: &str, key: &str, value: &str) -> String {
    let at = json.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in model"));
    let start = at + json[at..].find(|c: char| c.is_ascii_digit()).expect("a number follows");
    let len = json[start..].find(|c: char| !c.is_ascii_digit()).expect("the number ends");
    format!("{}{value}{}", &json[..start], &json[start + len..])
}

/// Ranks with a tampered model and asserts a typed error: exit 1 (never a
/// panic's 101) with the named error on stderr.
fn assert_rank_rejects(
    dir: &std::path::Path,
    dataset: &std::path::Path,
    model: &str,
    needle: &str,
) {
    let path = dir.join("tampered.json");
    std::fs::write(&path, model).expect("write tampered model");
    let out = bin()
        .args(["rank", "--data", dataset.to_str().expect("utf8")])
        .args(["--model", path.to_str().expect("utf8")])
        .output()
        .expect("run rank");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "rank must fail cleanly: {stderr}");
    assert!(stderr.contains("error: invalid model"), "named error expected: {stderr}");
    assert!(stderr.contains(needle), "expected '{needle}' in: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn rank_rejects_out_of_range_stump_feature() {
    let (dir, dataset, json) = trained_model("tamper-stump");
    let tampered = tamper(&json, "feature", "1000000");
    assert_ne!(tampered, json);
    assert_rank_rejects(&dir, &dataset, &tampered, "reads feature 1000000");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rank_rejects_out_of_range_selected_base() {
    let (dir, dataset, json) = trained_model("tamper-base");
    let tampered = tamper(&json, "selected_base", "99999");
    assert_ne!(tampered, json);
    assert_rank_rejects(&dir, &dataset, &tampered, "selected column 99999");
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates a small world in a fresh work dir; returns the dir and the
/// `dataset.json` text.
fn simulated_dataset(tag: &str) -> (PathBuf, String) {
    let dir = named_work_dir(tag);
    let out = bin()
        .args(["simulate", "--out", dir.to_str().expect("utf8"), "--lines", "300"])
        .args(["--days", "120", "--seed", "3"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(dir.join("dataset.json")).expect("read dataset");
    (dir, json)
}

/// [`tamper`] applied to the first `key` inside the `section` array.
fn tamper_in(json: &str, section: &str, key: &str, value: &str) -> String {
    let at = json.find(&format!("\"{section}\":")).unwrap_or_else(|| panic!("no {section}"));
    format!("{}{}", &json[..at], tamper(&json[at..], key, value))
}

/// Runs `train`, `locate` and `rank` on a tampered dataset and asserts a
/// typed error from each: exit 1 (never a panic's 101) with the named
/// error on stderr.
fn assert_dataset_rejected(dir: &std::path::Path, dataset: &str, needle: &str) {
    let path = dir.join("tampered.json");
    std::fs::write(&path, dataset).expect("write tampered dataset");
    let data = path.to_str().expect("utf8");
    let model = dir.join("model.json");
    let model = model.to_str().expect("utf8");
    for args in [
        vec!["train", "--data", data, "--model", model],
        vec!["locate", "--data", data],
        vec!["rank", "--data", data, "--model", model],
    ] {
        let out = bin().args(&args).output().expect("run command");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{} must fail cleanly: {stderr}", args[0]);
        assert!(stderr.contains("error: invalid dataset"), "named error expected: {stderr}");
        assert!(stderr.contains(needle), "expected '{needle}' in: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn out_of_range_measurement_line_is_a_typed_error() {
    let (dir, json) = simulated_dataset("bad-measurement-line");
    let tampered = tamper_in(&json, "measurements", "line", "999999");
    assert_ne!(tampered, json);
    assert_dataset_rejected(&dir, &tampered, "measurement 0 names line 999999");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_line_id_off_its_position_is_a_typed_error() {
    let (dir, json) = simulated_dataset("bad-topology-id");
    // Line 5 of the topology (lines precede the DSLAMs, whose objects also
    // start with an id).
    let lines = json.find("\"lines\":[").expect("a topology lines array");
    let at = lines + json[lines..].find("{\"id\":5,").expect("line 5");
    let tampered = format!("{}{{\"id\":300,{}", &json[..at], &json[at + "{\"id\":5,".len()..]);
    assert_dataset_rejected(&dir, &tampered, "topology line 5 has id 300");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_fraction_outside_zero_to_one_is_a_typed_error() {
    let (dir, _) = simulated_dataset("budget-fraction");
    let data = dir.join("dataset.json");
    let model = dir.join("model.json");
    let train = vec!["train", "--data", data.to_str().expect("utf8")]
        .into_iter()
        .chain(["--model", model.to_str().expect("utf8"), "--iterations", "5"])
        .collect::<Vec<_>>();
    let trial = vec!["trial", "--lines", "300", "--days", "120", "--iterations", "5"];
    for command in [train, trial] {
        let run = |fraction: &str| {
            bin().args(&command).args(["--budget-fraction", fraction]).output().expect("run")
        };
        for bad in ["nan", "inf", "0", "-1", "1.5"] {
            let out = run(bad);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{} {bad}: {stderr}", command[0]);
            let needle = format!("error: --budget-fraction: '{bad}' is not in (0, 1]");
            assert!(stderr.contains(&needle), "{} {bad}: {stderr}", command[0]);
        }
        for good in ["1", "0.01"] {
            let out = run(good);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{} {good}: {stderr}", command[0]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn iterations_above_the_bound_are_a_typed_error() {
    let (dir, _) = simulated_dataset("iterations");
    let data = dir.join("dataset.json");
    let model = dir.join("model.json");
    let train = vec!["train", "--data", data.to_str().expect("utf8")]
        .into_iter()
        .chain(["--model", model.to_str().expect("utf8")])
        .collect::<Vec<_>>();
    let locate = vec!["locate", "--data", data.to_str().expect("utf8")];
    let trial = vec!["trial", "--lines", "300", "--days", "120"];
    for command in [train, locate, trial] {
        let run = |extra: &[&str]| bin().args(&command).args(extra).output().expect("run");
        for bad in ["100001", "18446744073709551615"] {
            let out = run(&["--iterations", bad]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{} {bad}: {stderr}", command[0]);
            let needle = format!("error: --iterations: '{bad}' is above 100000");
            assert!(stderr.contains(&needle), "{} {bad}: {stderr}", command[0]);
        }
        // `0` and the subcommand's default keep working.
        for good in [&["--iterations", "0"][..], &[]] {
            let out = run(good);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{} {good:?}: {stderr}", command[0]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_above_the_bound_are_a_typed_error() {
    let dir = named_work_dir("shards");
    let out_dir = dir.join("data");
    let simulate = vec!["simulate", "--out", out_dir.to_str().expect("utf8")]
        .into_iter()
        .chain(["--lines", "300", "--days", "120"])
        .collect::<Vec<_>>();
    let trial = vec!["trial", "--lines", "300", "--days", "120", "--iterations", "5"];
    for command in [simulate, trial] {
        let run = |extra: &[&str]| bin().args(&command).args(extra).output().expect("run");
        // Rejected while the arguments are read, before any part starts.
        for bad in ["257", "100000", "18446744073709551615"] {
            let out = run(&["--shards", bad]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{} {bad}: {stderr}", command[0]);
            let needle = format!("error: --shards: '{bad}' is above 256");
            assert!(stderr.contains(&needle), "{} {bad}: {stderr}", command[0]);
        }
        // `0` and the subcommand's default keep working.
        for good in [&["--shards", "0"][..], &[]] {
            let out = run(good);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{} {good:?}: {stderr}", command[0]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_plant_beyond_the_bounds_is_a_typed_error() {
    let dir = named_work_dir("plant-bounds");
    let out_dir = dir.join("data");
    let simulate = ["simulate", "--out", out_dir.to_str().expect("utf8")];
    // `--lines 4294967296` would wrap the `u32` line ids and `--days
    // 4294967295` would allocate gigabytes of calendar per region: both
    // fail validation before the plant is generated.
    for (flag, value, needle) in [
        ("--lines", "4294967296", "error: invalid configuration: n_lines must be at most 10000000"),
        ("--days", "4294967295", "error: invalid configuration: need at most 3650 simulated days"),
    ] {
        for command in [&simulate[..], &["trial"]] {
            let out = bin().args(command).args([flag, value]).output().expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{} {flag} {value}: {stderr}", command[0]);
            assert!(stderr.contains(needle), "{} {flag} {value}: {stderr}", command[0]);
        }
    }
    assert!(!out_dir.exists(), "a rejected simulate wrote its output directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_empty_selection_row_cap_is_a_typed_error() {
    let (dir, _) = simulated_dataset("selection-row-cap");
    let data = dir.join("dataset.json");
    let model = dir.join("model.json");
    let run = |cap: &str| {
        bin()
            .args(["train", "--data", data.to_str().expect("utf8")])
            .args(["--model", model.to_str().expect("utf8"), "--iterations", "5"])
            .args(["--selection-row-cap", cap])
            .output()
            .expect("run train")
    };
    let out = run("0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --selection-row-cap: '0' is below 1"), "{stderr}");
    assert!(!model.exists(), "no model written");
    let out = run("1");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_ticket_line_is_a_typed_error() {
    let (dir, json) = simulated_dataset("bad-ticket-line");
    let tampered = tamper_in(&json, "tickets", "line", "999999");
    assert_ne!(tampered, json);
    assert_dataset_rejected(&dir, &tampered, "ticket 0 names line 999999");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_disposition_code_is_a_typed_error() {
    let (dir, json) = simulated_dataset("bad-disposition");
    // The first note inside `locate`'s training window (days from 30) that
    // recorded a disposition — the one the locator used to index its
    // priors with. No-trouble-found notes hold null, and every note
    // carries exactly one day key, so the match count is the note's index.
    let notes = json.find("\"notes\":[").expect("a notes log");
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
    let (i, at, len) = json[notes..]
        .match_indices("\"day\":")
        .enumerate()
        .find_map(|(i, (at, key))| {
            let rest = &json[notes + at + key.len()..];
            let day: u32 = rest[..digits(rest)].parse().ok()?;
            let code = rest[digits(rest)..].strip_prefix(",\"disposition\":")?;
            (day >= 30 && digits(code) > 0).then(|| (i, json.len() - code.len(), digits(code)))
        })
        .expect("a note in the locator's window that found a fault");
    for code in ["52", "200"] {
        let tampered = format!("{}{code}{}", &json[..at], &json[at + len..]);
        let needle = format!("disposition note {i} records disposition {code}");
        assert_dataset_rejected(&dir, &tampered, &needle);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_rules_file_is_a_typed_error_not_a_stack_overflow() {
    let dir = named_work_dir("deep-rules");
    let path = dir.join("deep.rules");
    for expr in [
        format!("{}counter(x){}", "(".repeat(50_000), ")".repeat(50_000)),
        format!("{}counter(x){}", "rate(".repeat(20_000), ")".repeat(20_000)),
    ] {
        std::fs::write(&path, format!("alert a if {expr} > 1 for 1\n")).expect("write rules");
        let out = bin()
            .args(["trial", "--rules", path.to_str().expect("utf8")])
            .output()
            .expect("run trial");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "trial must fail cleanly: {stderr}");
        assert!(
            stderr.contains("line 1: expression nests deeper than 64 levels"),
            "named error expected: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_horizon_past_its_logs_is_a_typed_error() {
    let (dir, json) = simulated_dataset("bad-horizon");
    // The first `days` key is `config.days`; the logs still cover 120.
    let tampered = tamper(&json, "days", "4294967295");
    assert_ne!(tampered, json);
    assert_dataset_rejected(
        &dir,
        &tampered,
        "the logs cover 120 days, but config.days is 4294967295",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trial_stop_week_past_the_horizon_runs_the_whole_horizon() {
    let run = |extra: &[&str]| {
        let out = bin()
            .args(["trial", "--lines", "300", "--days", "160", "--warmup-weeks", "14"])
            .args(extra)
            .output()
            .expect("run trial");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "trial {extra:?} failed: {stderr}");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let full = run(&[]);
    assert!(full.contains("proactive dispatches:"), "{full}");
    // Both used to wrap `(week + 1) * 7` round to a day-0 stop.
    for week in ["4294967295", "613566756"] {
        assert_eq!(run(&["--stop-after-week", week]), full, "--stop-after-week {week}");
    }
}

/// `(line, day, probability)` of every `kind` event in a trace export, each
/// as printed.
fn traced_probabilities(jsonl: &str, kind: &str) -> Vec<[String; 3]> {
    let field = |event: &str, key: &str| {
        let rest = event.split(&format!("\"{key}\":")).nth(1).expect("the key is present");
        rest[..rest.find([',', '}']).expect("the value ends")].to_string()
    };
    jsonl
        .lines()
        .filter(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
        .map(|l| [field(l, "line"), field(l, "day"), field(l, "probability")])
        .collect()
}

#[test]
fn rank_traces_what_it_ranks_under_the_models_encoder_config() {
    let (dir, dataset, json) = trained_model("rank-encoder-config");
    // A non-default encoder config: the traced calibration chain must be
    // encoded the way the ranking was, not with the default config.
    let edited = json.replacen("\"history_weeks\":26", "\"history_weeks\":2", 1);
    assert_ne!(edited, json);
    let model = dir.join("hw2.model.json");
    std::fs::write(&model, edited).expect("write model");
    let trace = dir.join("rank.trace.jsonl");
    let out = bin()
        .args(["rank", "--data", dataset.to_str().expect("utf8")])
        .args(["--model", model.to_str().expect("utf8"), "--top", "3", "--explain", "1"])
        .args(["--trace", trace.to_str().expect("utf8")])
        .output()
        .expect("run rank");
    assert!(out.status.success(), "rank failed: {}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).expect("read trace");
    let ranked = traced_probabilities(&jsonl, "rank");
    assert_eq!(ranked.len(), 3, "{jsonl}");
    assert_eq!(traced_probabilities(&jsonl, "calibrate"), ranked);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_window_past_the_day_range_reaches_back_to_day_zero() {
    let (dir, dataset, json) = trained_model("rank-history-window");
    let rank_with = |history_weeks: &str| {
        let edited =
            json.replacen("\"history_weeks\":26", &format!("\"history_weeks\":{history_weeks}"), 1);
        assert_ne!(edited, json);
        let model = dir.join(format!("hw{history_weeks}.model.json"));
        std::fs::write(&model, edited).expect("write model");
        let out = bin()
            .args(["rank", "--data", dataset.to_str().expect("utf8")])
            .args(["--model", model.to_str().expect("utf8"), "--top", "3"])
            .output()
            .expect("run rank");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "rank with {history_weeks} weeks failed: {stderr}");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    // 613566757 weeks used to wrap `weeks * 7` round to a 3-day window.
    let whole = rank_with("4294967295");
    assert!(whole.contains("precision@"), "{whole}");
    assert_eq!(rank_with("613566757"), whole);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crafted_store_header_is_a_typed_error() {
    let dir = named_work_dir("crafted-store");
    // A 48-byte `nevermind-store/v1` header promising 2^32 - 1 lanes: the
    // lane directory alone would need 16 GiB the document does not hold.
    let mut bytes = b"NVMSTOR1".to_vec();
    for word in [1u32, u32::MAX] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.extend_from_slice(&300u64.to_le_bytes());
    for word in [1u32, 28, 26, 4, 21, 0] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    assert_eq!(bytes.len(), 48);
    let path = dir.join("crafted.nvm");
    std::fs::write(&path, &bytes).expect("write store");
    let out = bin()
        .args(["trial", "--lines", "300", "--days", "120"])
        .args(["--resume-from", path.to_str().expect("utf8")])
        .output()
        .expect("run trial");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot load store"), "named error expected: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
