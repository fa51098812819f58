//! One benchmark for the NEVERMIND loop.
//!
//! Three workloads drive the repository's crates through their public APIs
//! — [`trial`] (the whole proactive loop), [`rerank`] (52 Saturdays of
//! weekly population re-ranking) and [`locate`] (trouble-locator fitting
//! and per-dispatch queries). Each run prints its manifest, a report of
//! workload-specific figures and, as the last line, one JSON result with
//! the end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). See `README.md` next to this crate for the metric table.

pub mod locate;
pub mod output;
pub mod replay;
pub mod rerank;
pub mod stats;
pub mod trial;

use std::time::{Duration, Instant};

/// How big a world the workloads simulate. The command line always runs
/// [`Scale::Full`]; the benchmark's own tests set [`Scale::Tiny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The published workload sizes.
    Full,
    /// ≤2k-line worlds that exercise every code path and output check in
    /// seconds — for the benchmark's own tests.
    Tiny,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_proactive_trial_with`, run the way `nevermind trial` runs it.
    Trial,
    /// 52 consecutive Saturday re-ranks of a simulated plant.
    Rerank,
    /// Trouble-locator fit plus per-dispatch `rank_combined` queries.
    Locate,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "trial" => Some(Workload::Trial),
            "rerank" => Some(Workload::Rerank),
            "locate" => Some(Workload::Locate),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trial => "trial",
            Workload::Rerank => "rerank",
            Workload::Locate => "locate",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for every simulated world of the run.
    pub seed: u64,
    /// Measurement window: operations repeat until it has elapsed (each
    /// workload runs its operation at least once).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// World sizes.
    pub scale: Scale,
    /// Thread / shard count for every parallel stage (`nproc`).
    pub threads: usize,
}

impl RunConfig {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Whether a measurement loop that started at `start` and has run
    /// `ops` operations is done: the window has elapsed and at least
    /// `min_ops` operations ran. The floor fixes how many operations a run
    /// times, so the median never depends on whether a slow moment pushed
    /// one more (or one fewer) operation into the window — the first
    /// operation of a process is the slowest (cold allocator and page
    /// cache), and the median must not flip between it and the rest.
    pub fn measured_enough(&self, start: Instant, ops: usize, min_ops: usize) -> bool {
        ops >= min_ops && start.elapsed() >= self.window()
    }
}

/// How many times a workload repeats its set-up unless it says otherwise;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Output checks. Every measured or replayed operation whose output is
/// verified counts as attempted; a failed verification counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure descriptions (printed to stderr).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation; returns `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the report.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `MB`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// The metrics `BENCHMARK.json` lists: end-to-end (untraced) or
    /// per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures under their own names (not compared
    /// across workloads; printed in the report line).
    pub report: Vec<Metric>,
    /// Workload parameters, for the manifest.
    pub params: Vec<(&'static str, String)>,
    /// Number of timed samples behind the headline metric.
    pub samples: usize,
}

/// Runs one workload.
pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    match workload {
        Workload::Trial => trial::run(cfg),
        Workload::Rerank => rerank::run(cfg),
        Workload::Locate => locate::run(cfg),
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, returning its value and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// CPU seconds this process has used so far, summed over all of its
/// threads, live and exited (`CLOCK_PROCESS_CPUTIME_ID`). On a kernel with
/// paravirtual steal accounting this excludes time the hypervisor ran
/// other guests, and it never counts a thread idling at a join. `NaN`
/// where the clock is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // knows; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds this process has used so far (unavailable here: `NaN`).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// What one timed operation cost: wall seconds and process CPU seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process (every thread).
    pub cpu_s: f64,
}

impl std::ops::Sub for Cost {
    type Output = Cost;
    fn sub(self, other: Cost) -> Cost {
        Cost { wall_s: self.wall_s - other.wall_s, cpu_s: self.cpu_s - other.cpu_s }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// A started wall-plus-CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu_s: process_cpu_s() }
    }

    /// What has elapsed since the start.
    pub fn cost(&self) -> Cost {
        Cost { wall_s: secs(self.wall), cpu_s: process_cpu_s() - self.cpu_s }
    }
}

/// Runs `f`, returning its value and its [`Cost`].
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let clock = Stopwatch::start();
    let v = f();
    (v, clock.cost())
}

/// Runs a workload's set-up `reps` times (at least once), keeping the
/// last result; returns it with every repetition's cost. Earlier results
/// are dropped before the next repetition starts, so the memory
/// high-water mark reflects one set-up.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<Cost>) {
    let mut costs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (v, c) = costed(&mut setup);
        costs.push(c);
        last = Some(v);
    }
    // lint:allow(no-panic-in-lib) -- the loop runs at least once
    (last.expect("at least one set-up"), costs)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics shared by every workload, in `BENCHMARK.json`
/// order: the median set-up CPU time, peak memory and the median CPU time
/// of one batch job. Both times are process CPU seconds over every thread
/// ([`process_cpu_s`]): on a shared virtual machine the wall time of the
/// same job swings by up to 2.5× with the hypervisor's steal, CPU time
/// does not. The wall times go to the report line ([`wall_report`]).
///
/// Per-step latencies (a Saturday re-rank, a dispatch query) go to the
/// report line too: their cost follows the structure of the model the
/// seed's world trains (how many lanes and stumps it reads), so they swing
/// by a quarter between seeds, far beyond any bound a regression check can
/// use.
pub fn end_to_end(setup: &[Cost], job: &[Cost]) -> Vec<Metric> {
    let cpu = |c: &[Cost]| stats::median(&c.iter().map(|c| c.cpu_s).collect::<Vec<_>>());
    vec![
        Metric::new("setup_s", cpu(setup), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        Metric::new("job_cpu_s", cpu(job), "s"),
    ]
}

/// Report figures: the median wall time of a set-up (`setup_wall_s`) and
/// of a job (under the workload's own name, such as `trial_s`).
pub fn wall_report(setup: &[Cost], job: &[Cost], job_name: &str) -> Vec<Metric> {
    let wall = |c: &[Cost]| stats::median(&c.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    vec![Metric::new("setup_wall_s", wall(setup), "s"), Metric::new(job_name, wall(job), "s")]
}

/// Report figures for per-step latency samples: median, the highest
/// percentile with at least ten of `per_pass` samples beyond it, and mean.
pub fn step_report(
    prefix: &str,
    unit: &'static str,
    scale: f64,
    steps: &[f64],
    per_pass: usize,
) -> Vec<Metric> {
    let q = stats::tail_percentile(per_pass, 10);
    vec![
        Metric::new(format!("{prefix}_p50"), scale * stats::median(steps), unit),
        Metric::new(format!("{prefix}_p{q}"), scale * stats::percentile(steps, f64::from(q)), unit),
        Metric::new(format!("{prefix}_mean"), scale * stats::mean(steps), unit),
        Metric::new(format!("{prefix}_samples"), steps.len() as f64, "count"),
    ]
}

/// Time accounting of a traced run, shared by the three workloads.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Seconds inside `World::step_day`.
    pub step_day_s: f64,
    /// Simulated days stepped.
    pub days_stepped: u64,
    /// Line-days stepped (days × plant lines).
    pub line_days: f64,
    /// Seconds inside the composite model fit (predictor or locator).
    pub fit_s: f64,
    /// Seconds of the replayed batch feature encodes.
    pub encode_windows_s: f64,
    /// Milliseconds of each replayed `BStump::fit`.
    pub boost_fit_ms: Vec<f64>,
    /// Training rows summed over the replayed fits.
    pub boost_rows: u64,
    /// Boosting rounds (stumps) summed over the replayed fits.
    pub boost_rounds: u64,
    /// Milliseconds of each replayed ensemble evaluation (one week's
    /// population, or one dispatch).
    pub score_ms: Vec<f64>,
    /// Wall time of the traced composite, replays excluded.
    pub traced_wall_s: f64,
    /// Seconds of the traced composite spent inside timed layer calls.
    pub covered_s: f64,
    /// Wall time of the untraced composite it is compared against.
    pub untraced_wall_s: f64,
}

impl Layers {
    /// Records one timed `step_day` over a plant of `lines` lines.
    pub fn stepped(&mut self, seconds: f64, lines: usize) {
        self.step_day_s += seconds;
        self.days_stepped += 1;
        self.line_days += lines as f64;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let boost_s: f64 = self.boost_fit_ms.iter().sum::<f64>() / 1e3;
        vec![
            Metric::new("dslsim.step_day_s", self.step_day_s, "s"),
            Metric::new("dslsim.days_stepped", self.days_stepped as f64, "count"),
            Metric::new("dslsim.line_days_per_s", self.line_days / self.step_day_s, "1/s"),
            Metric::new("core.fit_s", self.fit_s, "s"),
            Metric::new("features.encode_windows_s", self.encode_windows_s, "s"),
            Metric::new("ml.boost_fit_s", boost_s, "s"),
            Metric::new("ml.boost_fits", self.boost_fit_ms.len() as f64, "count"),
            Metric::new("ml.boost_rows", self.boost_rows as f64, "count"),
            Metric::new("ml.boost_rounds", self.boost_rounds as f64, "count"),
            Metric::new("ml.boost_fit_ms_p50", stats::median(&self.boost_fit_ms), "ms"),
            Metric::new("core.fit_other_s", self.fit_s - self.encode_windows_s - boost_s, "s"),
            Metric::new("ml.score_ms_p50", stats::median(&self.score_ms), "ms"),
            Metric::new("bench.self_s", self.traced_wall_s - self.covered_s, "s"),
            Metric::new(
                "trace_overhead_pct",
                100.0 * (self.traced_wall_s / self.untraced_wall_s - 1.0),
                "%",
            ),
        ]
    }
}
