//! Simulation configuration.
//!
//! Every knob has a default calibrated so that a year-long run produces
//! paper-shaped operational data: weekly ticket volume around 0.2–0.3% of
//! lines, a Monday peak / weekend trough, measurement degradation that
//! precedes tickets, occasional DSLAM outages with IVR suppression, and a
//! population of customers who are sometimes away from home.

use serde::{Deserialize, Serialize};

/// Most lines [`SimConfig::validate`] accepts: ten times the largest plant
/// run end to end (a 1M-line trial), and far inside the `u32` line ids the
/// topology numbers lines with.
pub(crate) const MAX_LINES: usize = 10_000_000;

/// Most days [`SimConfig::validate`] accepts: ten years (the paper's logs
/// cover one). The exogenous calendar holds one flag per region and per
/// DSLAM for every day, and day arithmetic is `u32`.
pub(crate) const MAX_DAYS: u32 = 3_650;

/// Top-level simulator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every subsystem derives its own ChaCha8 stream from it.
    pub seed: u64,
    /// Number of subscriber lines.
    pub n_lines: usize,
    /// Lines terminated per DSLAM (the paper: "several tens").
    pub lines_per_dslam: usize,
    /// Crossboxes per DSLAM serving disjoint line groups.
    pub crossboxes_per_dslam: usize,
    /// DSLAMs aggregated per BRAS.
    pub dslams_per_bras: usize,
    /// Number of geographic regions (weather/construction scope).
    pub n_regions: usize,
    /// Number of simulated days (paper: a full year; default adds margin
    /// so the last prediction window still has 4 weeks of label horizon).
    pub days: u32,
    /// Expected component-fault onsets per line per year (before weather
    /// and loop-length modifiers).
    pub faults_per_line_year: f64,
    /// Expected outages per DSLAM per year.
    pub outages_per_dslam_year: f64,
    /// Days of DSLAM-wide measurement degradation preceding an outage
    /// (a failing card degrades many lines before it dies — this is what
    /// makes outages predictable from Saturday tests and produces the
    /// Table-5 correlation).
    pub outage_precursor_days: f64,
    /// Fraction of lines whose modem is habitually off outside active use.
    pub off_when_idle_fraction: f64,
    /// Probability that a customer is on vacation in any given week.
    pub vacation_week_prob: f64,
    /// Number of BRAS servers whose lines get daily traffic counters
    /// (the paper collects bytes under two BRAS servers).
    pub traffic_bras_sample: usize,
    /// Base probability per day that a customer who has noticed a problem
    /// places the call (before day-of-week and severity weighting).
    pub report_base_prob: f64,
    /// Rate of non-technical (billing etc.) tickets per line per year;
    /// these carry a non-customer-edge category label.
    pub non_technical_tickets_per_line_year: f64,
    /// Added to the probability that a line is sold a fast profile
    /// regardless of its loop length (0 = realistic provisioning checks;
    /// higher values model aggressive sales and feed `DS-SPEED-DOWN`).
    pub overprovision_bias: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_CA11,
            n_lines: 20_000,
            lines_per_dslam: 48,
            crossboxes_per_dslam: 4,
            dslams_per_bras: 40,
            n_regions: 4,
            days: 420,
            faults_per_line_year: 0.55,
            outages_per_dslam_year: 1.2,
            outage_precursor_days: 14.0,
            off_when_idle_fraction: 0.25,
            vacation_week_prob: 0.045,
            traffic_bras_sample: 2,
            report_base_prob: 0.22,
            non_technical_tickets_per_line_year: 0.05,
            overprovision_bias: 0.0,
        }
    }
}

impl SimConfig {
    /// A small configuration for unit/integration tests: ~2k lines, one
    /// simulated half-year, same behavioural knobs.
    pub fn small(seed: u64) -> Self {
        Self { seed, n_lines: 2_000, days: 240, ..Self::default() }
    }

    /// Number of DSLAMs implied by the line count.
    pub fn n_dslams(&self) -> usize {
        self.n_lines.div_ceil(self.lines_per_dslam)
    }

    /// Number of BRAS servers implied by the DSLAM count.
    pub fn n_bras(&self) -> usize {
        self.n_dslams().div_ceil(self.dslams_per_bras)
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_lines == 0 {
            return Err("n_lines must be positive".into());
        }
        if self.n_lines > MAX_LINES {
            return Err(format!("n_lines must be at most {MAX_LINES}"));
        }
        if self.lines_per_dslam == 0 || self.crossboxes_per_dslam == 0 {
            return Err("lines_per_dslam and crossboxes_per_dslam must be positive".into());
        }
        if self.dslams_per_bras == 0 || self.n_regions == 0 {
            return Err("dslams_per_bras and n_regions must be positive".into());
        }
        if self.days < 60 {
            return Err("need at least 60 simulated days".into());
        }
        if self.days > MAX_DAYS {
            return Err(format!("need at most {MAX_DAYS} simulated days"));
        }
        if !(0.0..=1.0).contains(&self.off_when_idle_fraction) {
            return Err("off_when_idle_fraction must be a probability".into());
        }
        if !(0.0..=1.0).contains(&self.vacation_week_prob) {
            return Err("vacation_week_prob must be a probability".into());
        }
        if !(0.0..=1.0).contains(&self.report_base_prob) {
            return Err("report_base_prob must be a probability".into());
        }
        if self.faults_per_line_year < 0.0 || self.outages_per_dslam_year < 0.0 {
            return Err("rates must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.overprovision_bias) {
            return Err("overprovision_bias must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Day-of-week helper: the simulation starts on a Sunday, so
/// `day % 7` yields 0=Sun, 1=Mon, …, 6=Sat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DayOfWeek {
    /// Sunday.
    Sunday,
    /// Monday.
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday — line-test day.
    Saturday,
}

impl DayOfWeek {
    /// Day-of-week of a simulation day index.
    pub fn of(day: u32) -> Self {
        match day % 7 {
            0 => DayOfWeek::Sunday,
            1 => DayOfWeek::Monday,
            2 => DayOfWeek::Tuesday,
            3 => DayOfWeek::Wednesday,
            4 => DayOfWeek::Thursday,
            5 => DayOfWeek::Friday,
            _ => DayOfWeek::Saturday,
        }
    }

    /// Whether line tests run on this day.
    pub fn is_test_day(self) -> bool {
        self == DayOfWeek::Saturday
    }

    /// Relative propensity to *place a call* on this day, normalized so the
    /// mean over the week is ≈ 1. Reproduces the paper's observation that
    /// tickets peak on Monday and bottom out over the weekend.
    pub fn call_weight(self) -> f64 {
        match self {
            DayOfWeek::Sunday => 0.55,
            DayOfWeek::Monday => 1.65,
            DayOfWeek::Tuesday => 1.30,
            DayOfWeek::Wednesday => 1.15,
            DayOfWeek::Thursday => 1.05,
            DayOfWeek::Friday => 0.90,
            DayOfWeek::Saturday => 0.40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::small(1).validate().is_ok());
    }

    #[test]
    fn derived_counts() {
        let cfg = SimConfig {
            n_lines: 1000,
            lines_per_dslam: 48,
            dslams_per_bras: 10,
            ..SimConfig::default()
        };
        assert_eq!(cfg.n_dslams(), 21);
        assert_eq!(cfg.n_bras(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = SimConfig { n_lines: 0, ..SimConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = SimConfig { days: 10, ..SimConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = SimConfig { report_base_prob: 1.5, ..SimConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn the_plant_is_bounded() {
        let largest = SimConfig { n_lines: MAX_LINES, days: MAX_DAYS, ..SimConfig::default() };
        assert_eq!(largest.validate(), Ok(()));
        for n_lines in [MAX_LINES + 1, usize::MAX] {
            let err = SimConfig { n_lines, ..SimConfig::default() }.validate();
            assert_eq!(err, Err("n_lines must be at most 10000000".into()), "{n_lines} lines");
        }
        for days in [MAX_DAYS + 1, u32::MAX] {
            let err = SimConfig { days, ..SimConfig::default() }.validate();
            assert_eq!(err, Err("need at most 3650 simulated days".into()), "{days} days");
        }
    }

    #[test]
    fn week_starts_sunday_tests_saturday() {
        assert_eq!(DayOfWeek::of(0), DayOfWeek::Sunday);
        assert_eq!(DayOfWeek::of(1), DayOfWeek::Monday);
        assert_eq!(DayOfWeek::of(6), DayOfWeek::Saturday);
        assert_eq!(DayOfWeek::of(13), DayOfWeek::Saturday);
        assert!(DayOfWeek::of(6).is_test_day());
        assert!(!DayOfWeek::of(5).is_test_day());
    }

    #[test]
    fn monday_peaks_weekend_troughs() {
        let monday = DayOfWeek::Monday.call_weight();
        for d in 0..7 {
            let w = DayOfWeek::of(d).call_weight();
            assert!(w <= monday, "day {d} outweighs Monday");
        }
        assert!(DayOfWeek::Saturday.call_weight() < DayOfWeek::Wednesday.call_weight());
        assert!(DayOfWeek::Sunday.call_weight() < DayOfWeek::Wednesday.call_weight());
        // Mean weight ≈ 1 so the weekly volume knob stays interpretable.
        let mean: f64 = (0..7).map(|d| DayOfWeek::of(d).call_weight()).sum::<f64>() / 7.0;
        assert!((mean - 1.0).abs() < 0.01, "mean weight {mean}");
    }
}
