//! Tiny-scale runs of every workload, traced and untraced: each must pass
//! every output check and report exactly the metrics `BENCHMARK.json`
//! lists. Plus the negative case: tampered outputs fail their checks and
//! are counted as failed.

use loopbench::output::{field, result_line};
use loopbench::{run, trial, Checks, Outcome, RunConfig, Scale, Workload};
use nevermind::pipeline::ProactiveOutcome;

/// Metric names of one `BENCHMARK.json` section, in file order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    field(&doc, section)
        .and_then(|s| s.as_array())
        .expect("section is a list")
        .iter()
        .map(|m| field(m, "name").and_then(|n| n.as_str()).expect("named metric").to_string())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let cfg = RunConfig { seed: 3, seconds: 0.0, trace, scale: Scale::Tiny, threads: 2 };
    run(workload, &cfg)
}

fn assert_clean(workload: Workload, trace: bool) {
    let outcome = tiny(workload, trace);
    let name = workload.name();
    assert!(outcome.checks.attempted > 0, "{name}: nothing was checked");
    assert_eq!(outcome.checks.failed, 0, "{name}: {:?}", outcome.checks.failures);
    let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, listed(section), "{name}: metrics differ from BENCHMARK.json");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
    }
    let line: serde_json::Value = serde_json::from_str(&result_line(&outcome)).expect("JSON");
    assert_eq!(field(&line, "correct"), Some(&serde_json::Value::Bool(true)));
}

/// Every workload, untraced then traced, in one test: the trial reads the
/// process-global metrics registry, which parallel tests would share.
#[test]
fn every_workload_passes_every_check() {
    for workload in [Workload::Trial, Workload::Rerank, Workload::Locate] {
        assert_clean(workload, false);
        assert_clean(workload, true);
    }
}

#[test]
fn tampered_outputs_fail_their_checks() {
    let genuine = ProactiveOutcome {
        policy_start_day: 210,
        reactive_tickets: 100,
        proactive_tickets: 80,
        proactive_dispatches: 30,
        proactive_hits: 20,
        reactive_churn: 5,
        proactive_churn: 4,
    };
    let mut checks = Checks::default();
    trial::check_replica(&mut checks, &genuine, &genuine.clone());
    assert_eq!((checks.attempted, checks.failed), (1, 0));

    let tampered = ProactiveOutcome { proactive_hits: 21, ..genuine.clone() };
    trial::check_replica(&mut checks, &tampered, &genuine);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    let outcome = Outcome { checks, ..Outcome::default() };
    let line: serde_json::Value = serde_json::from_str(&result_line(&outcome)).expect("JSON");
    assert_eq!(field(&line, "correct"), Some(&serde_json::Value::Bool(false)));
    assert_eq!(field(&line, "failed").and_then(|f| f.as_u64()), Some(1));

    // A ranking with a duplicated disposition is not a permutation.
    use nevermind::locator::DispositionScore;
    use nevermind_dslsim::disposition::DispositionId;
    let ranked: Vec<DispositionScore> = (0..52u8)
        .map(|i| DispositionScore { disposition: DispositionId(i), probability: 0.5 })
        .collect();
    assert!(loopbench::locate::valid_ranking(&ranked));
    let mut dup = ranked.clone();
    dup[1].disposition = DispositionId(0);
    assert!(!loopbench::locate::valid_ranking(&dup));
    let mut out_of_range = ranked;
    out_of_range[0].probability = 1.5;
    assert!(!loopbench::locate::valid_ranking(&out_of_range));

    // One flipped bit in a probability vector is a mismatch.
    let p = vec![0.25, 0.5];
    let q = vec![0.25, f64::from_bits(0.5f64.to_bits() + 1)];
    assert!(loopbench::replay::same_bits(&p, &p.clone()));
    assert!(!loopbench::replay::same_bits(&p, &q));
}
