//! Fleet-level aggregation: per-device records rolled up into
//! percentile distributions and per-policy cohort comparisons (the
//! paper's Table 5 energy/delay trade-off, reproduced at fleet scale).
//!
//! Everything here is a pure function of the device records, which are
//! themselves a pure function of the spec — so the serialized report is
//! byte-identical at any `--jobs` count. Deliberately absent: the
//! process-global [`detect::cache`] hit counters. Those accumulate
//! across every fleet run sharing the process (tests, benches), so
//! embedding them would break golden byte-equality; they belong in
//! `BENCH_fleet.json` and CLI diagnostics instead.

use std::fmt;

use simcore::impl_to_json;
use simcore::json::{Json, ToJson};

/// Distribution of one metric over the fleet: mean, extremes, and the
/// percentiles the capacity-planning plots need.
///
/// Percentiles come from a bounded deterministic
/// [`simcore::stats::QuantileSketch`]: exact whenever the observation
/// count stayed within the sketch capacity (`rank_error == 0`), and
/// within `rank_error × count` ranks of exact beyond that.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Finite observations summarized.
    pub count: u64,
    /// Worst-case percentile rank error as a fraction of `count`;
    /// `0.0` means the percentiles are exact.
    pub rank_error: f64,
}

impl_to_json!(MetricSummary {
    mean,
    min,
    max,
    p10,
    p50,
    p90,
    p99,
    count,
    rank_error,
});

/// Per-invariant assertion-violation counts for one monitored device —
/// the constant-size slice of its `SimReport` assertion verdict that
/// the fleet rollup folds (field order matches
/// [`trace::AssertionReport::INVARIANTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceAssertions {
    /// Eq. 5 delay-constraint violations.
    pub delay: u64,
    /// V/f oscillation-rate violations.
    pub oscillation: u64,
    /// Buffer-occupancy watchdog violations.
    pub occupancy: u64,
    /// Voltage-monotonicity violations.
    pub energy_monotone: u64,
}

impl_to_json!(DeviceAssertions {
    delay,
    oscillation,
    occupancy,
    energy_monotone,
});

impl DeviceAssertions {
    /// Extracts the violation counts from a monitor's verdict.
    #[must_use]
    pub fn from_report(report: &trace::AssertionReport) -> DeviceAssertions {
        let [delay, oscillation, occupancy, energy_monotone] = report.violation_counts();
        DeviceAssertions {
            delay,
            oscillation,
            occupancy,
            energy_monotone,
        }
    }

    /// Total violations across all invariants.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delay + self.oscillation + self.occupancy + self.energy_monotone
    }
}

/// SLO rollup of assertion monitoring over a set of devices (one
/// cohort, or the whole fleet): how many devices were monitored, how
/// many violated anything, and the per-invariant violation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloSummary {
    /// Surviving devices that ran with a monitor attached.
    pub monitored: u64,
    /// Monitored devices with at least one violation.
    pub violating: u64,
    /// Total Eq. 5 delay-constraint violations.
    pub delay: u64,
    /// Total V/f oscillation-rate violations.
    pub oscillation: u64,
    /// Total buffer-occupancy watchdog violations.
    pub occupancy: u64,
    /// Total voltage-monotonicity violations.
    pub energy_monotone: u64,
}

impl_to_json!(SloSummary {
    monitored,
    violating,
    delay,
    oscillation,
    occupancy,
    energy_monotone,
});

impl SloSummary {
    /// Folds one monitored device's counts into the rollup.
    pub fn fold(&mut self, device: &DeviceAssertions) {
        self.monitored += 1;
        if device.total() > 0 {
            self.violating += 1;
        }
        self.delay += device.delay;
        self.oscillation += device.oscillation;
        self.occupancy += device.occupancy;
        self.energy_monotone += device.energy_monotone;
    }

    /// Total violations across all invariants.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.delay + self.oscillation + self.occupancy + self.energy_monotone
    }

    /// Merges another rollup (cohort → fleet aggregation).
    pub fn merge(&mut self, other: &SloSummary) {
        self.monitored += other.monitored;
        self.violating += other.violating;
        self.delay += other.delay;
        self.oscillation += other.oscillation;
        self.occupancy += other.occupancy;
        self.energy_monotone += other.energy_monotone;
    }
}

/// The successful outcome of one device's run, in fleet-report form.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRecord {
    /// Device index within the fleet.
    pub device: u64,
    /// The RNG seed of the attempt that produced this record (the
    /// device seed for attempt 1, a retry fork afterwards).
    pub seed: u64,
    /// Workload label (`mp3:…` / `mpeg:…` / `session`).
    pub workload: String,
    /// Index into the spec's policy list (the cohort key).
    pub policy: u64,
    /// Governor label.
    pub governor: String,
    /// DPM policy label.
    pub dpm: String,
    /// Fault-preset name (`flaky:<pct>` keeps its parameter).
    pub faults: String,
    /// Attempts consumed, 1 for a first-try success.
    pub attempts: u64,
    /// Total energy, kJ.
    pub energy_kj: f64,
    /// Mean total frame delay, seconds.
    pub mean_delay_s: f64,
    /// Dropped fraction of offered frames (arrivals + decoded drops).
    pub drop_rate: f64,
    /// Frames the probe needed to detect a 10 → 60 frames/s rate step;
    /// `None` for governors that do no online detection.
    pub detection_latency_frames: Option<f64>,
    /// Frames decoded to completion.
    pub frames_completed: u64,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Fraction of frame deadlines missed.
    pub deadline_miss_ratio: f64,
    /// Per-invariant assertion-violation counts; `None` when the run
    /// was not monitored (the key is then omitted from the JSON form,
    /// keeping unmonitored reports byte-identical to earlier versions).
    pub assertions: Option<DeviceAssertions>,
}

// Hand-written (not `impl_to_json!`) so `assertions: None` omits the
// key entirely instead of emitting `null` — unmonitored fleet reports
// must stay byte-identical to the pre-assertion golden files.
impl ToJson for DeviceRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("device".to_string(), self.device.to_json()),
            ("seed".to_string(), self.seed.to_json()),
            ("workload".to_string(), self.workload.to_json()),
            ("policy".to_string(), self.policy.to_json()),
            ("governor".to_string(), self.governor.to_json()),
            ("dpm".to_string(), self.dpm.to_json()),
            ("faults".to_string(), self.faults.to_json()),
            ("attempts".to_string(), self.attempts.to_json()),
            ("energy_kj".to_string(), self.energy_kj.to_json()),
            ("mean_delay_s".to_string(), self.mean_delay_s.to_json()),
            ("drop_rate".to_string(), self.drop_rate.to_json()),
            (
                "detection_latency_frames".to_string(),
                self.detection_latency_frames.to_json(),
            ),
            (
                "frames_completed".to_string(),
                self.frames_completed.to_json(),
            ),
            ("duration_secs".to_string(), self.duration_secs.to_json()),
            (
                "deadline_miss_ratio".to_string(),
                self.deadline_miss_ratio.to_json(),
            ),
        ];
        if let Some(a) = &self.assertions {
            fields.push(("assertions".to_string(), a.to_json()));
        }
        Json::obj(fields)
    }
}

/// The failed outcome of one device's run: every attempt the failure
/// policy allowed ended in a typed error or a caught panic.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFailure {
    /// Device index within the fleet.
    pub device: u64,
    /// The seed of the *last* attempt.
    pub seed: u64,
    /// Workload label.
    pub workload: String,
    /// Index into the spec's policy list (the cohort key).
    pub policy: u64,
    /// Governor label.
    pub governor: String,
    /// DPM policy label.
    pub dpm: String,
    /// Fault-preset name.
    pub faults: String,
    /// Attempts consumed before the device was given up on.
    pub attempts: u64,
    /// The last attempt's error message (`panic: …` for caught panics).
    pub error: String,
}

impl_to_json!(DeviceFailure {
    device,
    seed,
    workload,
    policy,
    governor,
    dpm,
    faults,
    attempts,
    error,
});

/// What one device's supervised run ultimately produced.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceOutcome {
    /// The device completed (possibly after retries).
    Completed(DeviceRecord),
    /// The device failed every attempt its policy allowed.
    Failed(DeviceFailure),
}

impl DeviceOutcome {
    /// The device index this outcome belongs to.
    #[must_use]
    pub fn device(&self) -> u64 {
        match self {
            DeviceOutcome::Completed(r) => r.device,
            DeviceOutcome::Failed(f) => f.device,
        }
    }

    /// Attempts the device consumed.
    #[must_use]
    pub fn attempts(&self) -> u64 {
        match self {
            DeviceOutcome::Completed(r) => r.attempts,
            DeviceOutcome::Failed(f) => f.attempts,
        }
    }

    /// The policy slot (cohort key) of the device.
    #[must_use]
    pub fn policy(&self) -> u64 {
        match self {
            DeviceOutcome::Completed(r) => r.policy,
            DeviceOutcome::Failed(f) => f.policy,
        }
    }
}

/// One failure, sampled into the report so a partial fleet names what
/// went wrong without carrying every failed device's full story.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSample {
    /// Device index.
    pub device: u64,
    /// Attempts consumed.
    pub attempts: u64,
    /// The last attempt's error message.
    pub error: String,
}

impl_to_json!(FailureSample {
    device,
    attempts,
    error,
});

/// Failure statistics for the devices sharing one policy slot.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortHealth {
    /// Index into the spec's policy list.
    pub policy: u64,
    /// Devices assigned to the slot.
    pub devices: u64,
    /// Devices whose final outcome was failure.
    pub failed: u64,
    /// `failed / devices`.
    pub failure_rate: f64,
}

impl_to_json!(CohortHealth {
    policy,
    devices,
    failed,
    failure_rate,
});

/// Fleet-wide failure accounting: how many devices failed, retried,
/// recovered, or were quarantined, per cohort and overall. Derived
/// purely from the ordered outcomes, so it is byte-identical at any
/// `--jobs` count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// The spec's failure policy, in its parseable form.
    pub on_error: String,
    /// Devices the fleet was asked to run.
    pub devices: u64,
    /// Devices that completed (possibly after retries).
    pub completed: u64,
    /// Devices whose final outcome was failure.
    pub failed: u64,
    /// Devices that needed more than one attempt, whatever the outcome.
    pub retried: u64,
    /// Devices that completed only after at least one retry.
    pub recovered: u64,
    /// Devices that burned every attempt the policy allowed and still
    /// failed — they are excluded from every survivor statistic.
    pub quarantined: u64,
    /// Extra attempts consumed beyond each device's first.
    pub retry_attempts: u64,
    /// `failed / devices`.
    pub failure_rate: f64,
    /// Per-policy failure rates, in slot order (only slots with at
    /// least one assigned device appear).
    pub cohorts: Vec<CohortHealth>,
    /// The first few failures in device order (at most
    /// [`FleetHealth::MAX_ERROR_SAMPLES`]).
    pub first_errors: Vec<FailureSample>,
}

impl_to_json!(FleetHealth {
    on_error,
    devices,
    completed,
    failed,
    retried,
    recovered,
    quarantined,
    retry_attempts,
    failure_rate,
    cohorts,
    first_errors,
});

impl FleetHealth {
    /// Cap on [`FleetHealth::first_errors`]: enough to diagnose, small
    /// enough that a million-device meltdown stays readable.
    pub const MAX_ERROR_SAMPLES: usize = 5;
}

/// Aggregate outcome of every device sharing one policy slot — the
/// fleet-scale analogue of one row of the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSummary {
    /// Index into the spec's policy list.
    pub policy: u64,
    /// Governor label.
    pub governor: String,
    /// DPM policy label.
    pub dpm: String,
    /// Surviving devices in the cohort (failed devices are counted in
    /// [`FleetHealth::cohorts`], not here).
    pub devices: u64,
    /// Mean energy over the cohort, kJ.
    pub mean_energy_kj: f64,
    /// Mean frame delay over the cohort, seconds.
    pub mean_delay_s: f64,
    /// Mean drop rate over the cohort.
    pub mean_drop_rate: f64,
    /// Energy factor versus the `max`/`none` baseline cohort
    /// (baseline energy ÷ cohort energy, Table 5's "×" column);
    /// `None` when the fleet has no baseline cohort.
    pub savings_vs_baseline: Option<f64>,
    /// Assertion SLO rollup over the cohort's survivors; `None` (and
    /// omitted from JSON) when no device in the cohort was monitored.
    pub slo: Option<SloSummary>,
}

// Hand-written so `slo: None` omits the key — see `DeviceRecord`.
impl ToJson for CohortSummary {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("policy".to_string(), self.policy.to_json()),
            ("governor".to_string(), self.governor.to_json()),
            ("dpm".to_string(), self.dpm.to_json()),
            ("devices".to_string(), self.devices.to_json()),
            ("mean_energy_kj".to_string(), self.mean_energy_kj.to_json()),
            ("mean_delay_s".to_string(), self.mean_delay_s.to_json()),
            ("mean_drop_rate".to_string(), self.mean_drop_rate.to_json()),
            (
                "savings_vs_baseline".to_string(),
                self.savings_vs_baseline.to_json(),
            ),
        ];
        if let Some(slo) = &self.slo {
            fields.push(("slo".to_string(), slo.to_json()));
        }
        Json::obj(fields)
    }
}

/// The aggregate report for one fleet run.
///
/// A report with `partial: true` summarizes *survivors only*: every
/// percentile, cohort mean, and record belongs to a device that
/// completed; the failures are accounted for in [`FleetHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet name from the spec.
    pub name: String,
    /// Number of devices the spec asked for (completed + failed).
    pub devices: u64,
    /// Base seed from the spec.
    pub base_seed: u64,
    /// `true` when at least one device failed: the summaries below
    /// cover the surviving subset, not the whole fleet.
    pub partial: bool,
    /// Energy distribution over the surviving fleet, kJ; `None` when no
    /// device survived.
    pub energy_kj: Option<MetricSummary>,
    /// Mean-frame-delay distribution, seconds; `None` when no device
    /// survived.
    pub mean_delay_s: Option<MetricSummary>,
    /// Drop-rate distribution; `None` when no device survived.
    pub drop_rate: Option<MetricSummary>,
    /// Detection-latency distribution in frames, over the surviving
    /// devices whose governor does online detection; `None` when none
    /// does.
    pub detection_latency_frames: Option<MetricSummary>,
    /// Per-policy cohorts over survivors, in spec order.
    pub cohorts: Vec<CohortSummary>,
    /// Failure accounting for the whole fleet.
    pub health: FleetHealth,
    /// Surviving device records in device order — all of them for
    /// fleets up to [`crate::accum::RECORD_SAMPLE_CAP`], a leading
    /// sample beyond that (the summaries above always cover the whole
    /// fleet).
    pub records: Vec<DeviceRecord>,
    /// Surviving records dropped beyond the sample cap; `0` means
    /// `records` is complete.
    pub records_truncated: u64,
    /// Fleet-wide assertion SLO rollup (the per-cohort rollups merged);
    /// `None` (and omitted from JSON) when no device was monitored.
    pub slo: Option<SloSummary>,
}

// Hand-written so `slo: None` omits the key — see `DeviceRecord`.
impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), self.name.to_json()),
            ("devices".to_string(), self.devices.to_json()),
            ("base_seed".to_string(), self.base_seed.to_json()),
            ("partial".to_string(), self.partial.to_json()),
            ("energy_kj".to_string(), self.energy_kj.to_json()),
            ("mean_delay_s".to_string(), self.mean_delay_s.to_json()),
            ("drop_rate".to_string(), self.drop_rate.to_json()),
            (
                "detection_latency_frames".to_string(),
                self.detection_latency_frames.to_json(),
            ),
        ];
        if let Some(slo) = &self.slo {
            fields.push(("slo".to_string(), slo.to_json()));
        }
        fields.push(("cohorts".to_string(), self.cohorts.to_json()));
        fields.push(("health".to_string(), self.health.to_json()));
        fields.push(("records".to_string(), self.records.to_json()));
        fields.push((
            "records_truncated".to_string(),
            self.records_truncated.to_json(),
        ));
        Json::obj(fields)
    }
}

impl FleetReport {
    /// Pretty-printed JSON document, the canonical on-disk form.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.to_json().pretty()
    }

    /// Parses a report back from its JSON form (used by `--check`-style
    /// tooling and the determinism tests; only the scalar headline
    /// fields are needed, so unknown fields are ignored).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn headline_from_json(text: &str) -> Result<(String, u64, f64), String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing `name`")?
            .to_string();
        let devices = json
            .get("devices")
            .and_then(Json::as_u64)
            .ok_or("missing `devices`")?;
        let mean_energy = json
            .get("energy_kj")
            .and_then(|m| m.get("mean"))
            .and_then(Json::as_f64)
            .ok_or("missing `energy_kj.mean`")?;
        Ok((name, devices, mean_energy))
    }
}

impl fmt::Display for FleetReport {
    /// Human-readable summary for the CLI: fleet-wide distributions
    /// followed by one Table-5-style row per cohort, plus a health
    /// section whenever anything failed or retried.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet `{}`: {} devices, base seed {}{}",
            self.name,
            self.devices,
            self.base_seed,
            if self.partial {
                " [PARTIAL: survivors only]"
            } else {
                ""
            }
        )?;
        let row = |f: &mut fmt::Formatter<'_>, label: &str, m: Option<&MetricSummary>| {
            match m {
            Some(m) => writeln!(
                f,
                "  {label:<18} mean {:>9.4}  p10 {:>9.4}  p50 {:>9.4}  p90 {:>9.4}  p99 {:>9.4}  max {:>9.4}",
                m.mean, m.p10, m.p50, m.p90, m.p99, m.max
            ),
            None => writeln!(f, "  {label:<18} n/a (no surviving device)"),
        }
        };
        row(f, "energy (kJ)", self.energy_kj.as_ref())?;
        row(f, "mean delay (s)", self.mean_delay_s.as_ref())?;
        row(f, "drop rate", self.drop_rate.as_ref())?;
        match &self.detection_latency_frames {
            Some(m) => row(f, "detection (frames)", Some(m))?,
            None => writeln!(f, "  detection (frames) n/a (no detecting governor)")?,
        }
        if let Some(slo) = &self.slo {
            writeln!(
                f,
                "  assertions         {} monitored, {} violating, {} violation(s) \
                 [delay {}, oscillation {}, occupancy {}, energy {}]",
                slo.monitored,
                slo.violating,
                slo.total_violations(),
                slo.delay,
                slo.oscillation,
                slo.occupancy,
                slo.energy_monotone
            )?;
        }
        let h = &self.health;
        if h.failed > 0 || h.retried > 0 {
            writeln!(
                f,
                "  health ({}): {} completed, {} failed ({:.1}%), {} retried, {} recovered, {} quarantined",
                h.on_error,
                h.completed,
                h.failed,
                h.failure_rate * 100.0,
                h.retried,
                h.recovered,
                h.quarantined
            )?;
            for s in &h.first_errors {
                writeln!(
                    f,
                    "    device {} failed after {} attempt(s): {}",
                    s.device, s.attempts, s.error
                )?;
            }
        }
        writeln!(f, "  cohorts:")?;
        for c in &self.cohorts {
            write!(
                f,
                "    [{}] {:<13} + {:<16} {:>5} devices  {:>9.4} kJ  {:>7.4} s  drop {:>6.4}",
                c.policy,
                c.governor,
                c.dpm,
                c.devices,
                c.mean_energy_kj,
                c.mean_delay_s,
                c.mean_drop_rate
            )?;
            if let Some(x) = c.savings_vs_baseline {
                write!(f, "  {x:>5.2}x vs max/none")?;
            }
            if let Some(slo) = &c.slo {
                write!(
                    f,
                    "  slo {}/{} violating ({} viol)",
                    slo.violating,
                    slo.monitored,
                    slo.total_violations()
                )?;
            }
            writeln!(f)?;
        }
        if self.records_truncated > 0 {
            writeln!(
                f,
                "  records: leading sample of {} ({} more folded into the summaries)",
                self.records.len(),
                self.records_truncated
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetAccumulator;

    fn record(device: u64, policy: u64, energy_kj: f64, detect: Option<f64>) -> DeviceRecord {
        DeviceRecord {
            device,
            seed: device * 1000 + 1,
            workload: "session".into(),
            policy,
            governor: if policy == 0 { "change-point" } else { "max" }.into(),
            dpm: if policy == 0 { "break-even" } else { "none" }.into(),
            faults: "off".into(),
            attempts: 1,
            energy_kj,
            mean_delay_s: 0.05 * (device + 1) as f64,
            drop_rate: 0.0,
            detection_latency_frames: detect,
            frames_completed: 100,
            duration_secs: 60.0,
            deadline_miss_ratio: 0.0,
            assertions: None,
        }
    }

    fn failure(device: u64, policy: u64, attempts: u64) -> DeviceFailure {
        DeviceFailure {
            device,
            seed: device * 1000 + 7,
            workload: "session".into(),
            policy,
            governor: "change-point".into(),
            dpm: "break-even".into(),
            faults: "poison".into(),
            attempts,
            error: format!("device {device} went sideways"),
        }
    }

    fn ok(r: DeviceRecord) -> DeviceOutcome {
        DeviceOutcome::Completed(r)
    }

    /// Streams `outcomes` through the engine's accumulator.
    fn build(
        name: &str,
        policies: usize,
        on_error: &str,
        max_attempts: u64,
        outcomes: Vec<DeviceOutcome>,
    ) -> FleetReport {
        let mut acc = FleetAccumulator::new(policies, max_attempts);
        for o in outcomes {
            acc.push(o);
        }
        acc.finish(name, 42, on_error)
    }

    fn build_clean(name: &str, policies: usize, records: Vec<DeviceRecord>) -> FleetReport {
        build(
            name,
            policies,
            "fail_fast",
            1,
            records.into_iter().map(ok).collect(),
        )
    }

    #[test]
    fn summary_percentiles_and_baseline_savings() {
        let records = vec![
            record(0, 0, 1.0, Some(30.0)),
            record(1, 1, 4.0, None),
            record(2, 0, 2.0, Some(50.0)),
            record(3, 1, 4.0, None),
        ];
        let report = build_clean("t", 2, records);
        assert_eq!(report.devices, 4);
        assert!(!report.partial);
        let energy = report.energy_kj.as_ref().expect("survivors");
        assert!((energy.mean - 2.75).abs() < 1e-12);
        assert_eq!(energy.min, 1.0);
        assert_eq!(energy.max, 4.0);
        // Detection distribution covers only the detecting devices.
        let det = report.detection_latency_frames.as_ref().expect("probe ran");
        assert_eq!(det.min, 30.0);
        assert_eq!(det.max, 50.0);
        // Cohorts in slot order; savings measured against max/none.
        assert_eq!(report.cohorts.len(), 2);
        assert_eq!(report.cohorts[0].devices, 2);
        assert!((report.cohorts[0].mean_energy_kj - 1.5).abs() < 1e-12);
        let savings = report.cohorts[0]
            .savings_vs_baseline
            .expect("baseline present");
        assert!((savings - 4.0 / 1.5).abs() < 1e-12);
        assert!((report.cohorts[1].savings_vs_baseline.unwrap() - 1.0).abs() < 1e-12);
        // A clean fleet has a quiet health section.
        assert_eq!(report.health.failed, 0);
        assert_eq!(report.health.completed, 4);
        assert!(report.health.first_errors.is_empty());
    }

    #[test]
    fn no_baseline_cohort_means_no_savings_column() {
        let report = build_clean("t", 1, vec![record(0, 0, 1.0, None)]);
        assert_eq!(report.cohorts[0].savings_vs_baseline, None);
        assert_eq!(report.detection_latency_frames, None);
    }

    #[test]
    fn json_round_trips_headline_fields() {
        let report = build_clean("pilot", 1, vec![record(0, 0, 2.5, None)]);
        let text = report.to_json_pretty();
        let (name, devices, mean_energy) =
            FleetReport::headline_from_json(&text).expect("own output parses");
        assert_eq!(name, "pilot");
        assert_eq!(devices, 1);
        assert!((mean_energy - 2.5).abs() < 1e-12);
        // Null detection latency serializes as JSON null, not NaN.
        assert!(text.contains("\"detection_latency_frames\": null"));
    }

    #[test]
    fn partial_report_summarizes_survivors_and_counts_failures() {
        let mut rec = record(1, 0, 2.0, Some(40.0));
        rec.attempts = 3; // recovered after two retries
        let outcomes = vec![
            ok(record(0, 0, 1.0, Some(30.0))),
            ok(rec),
            DeviceOutcome::Failed(failure(2, 1, 3)),
            DeviceOutcome::Failed(failure(3, 1, 2)),
            ok(record(4, 1, 4.0, None)),
        ];
        let report = build("chaos", 2, "retry:2", 3, outcomes);
        assert!(report.partial);
        assert_eq!(report.devices, 5);
        assert_eq!(report.records.len(), 3, "failed devices carry no record");
        // Survivor-only percentiles: the failed cohort-1 devices do not
        // drag the energy summary.
        let energy = report.energy_kj.as_ref().expect("survivors");
        assert_eq!(energy.max, 4.0);
        assert!((energy.mean - (1.0 + 2.0 + 4.0) / 3.0).abs() < 1e-12);
        // Health: counts + cohort rates + ordered samples.
        let h = &report.health;
        assert_eq!(h.on_error, "retry:2");
        assert_eq!((h.completed, h.failed), (3, 2));
        assert_eq!(h.retried, 3, "recovered device + both failures");
        assert_eq!(h.recovered, 1);
        assert_eq!(h.quarantined, 1, "only the 3-attempt failure exhausted");
        assert_eq!(h.retry_attempts, 2 + 2 + 1);
        assert!((h.failure_rate - 0.4).abs() < 1e-12);
        assert_eq!(h.cohorts.len(), 2);
        assert_eq!(h.cohorts[0].failed, 0);
        assert_eq!(h.cohorts[1].devices, 3);
        assert_eq!(h.cohorts[1].failed, 2);
        assert!((h.cohorts[1].failure_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.first_errors.len(), 2);
        assert_eq!(h.first_errors[0].device, 2);
        // Display carries the partial marker and the health line.
        let text = report.to_string();
        assert!(text.contains("PARTIAL"), "{text}");
        assert!(text.contains("2 failed"), "{text}");
        assert!(text.contains("went sideways"), "{text}");
    }

    #[test]
    fn all_failed_fleet_has_no_summaries_but_full_health() {
        let outcomes = vec![
            DeviceOutcome::Failed(failure(0, 0, 1)),
            DeviceOutcome::Failed(failure(1, 0, 1)),
        ];
        let report = build("doom", 1, "continue", 1, outcomes);
        assert!(report.partial);
        assert_eq!(report.energy_kj, None);
        assert_eq!(report.mean_delay_s, None);
        assert_eq!(report.drop_rate, None);
        assert!(report.cohorts.is_empty());
        assert_eq!(report.health.failed, 2);
        assert_eq!(report.health.quarantined, 2);
        let text = report.to_string();
        assert!(text.contains("no surviving device"), "{text}");
        // The JSON form survives the absence of every summary.
        assert!(report.to_json_pretty().contains("\"energy_kj\": null"));
    }

    #[test]
    fn error_samples_are_capped() {
        let outcomes: Vec<DeviceOutcome> = (0..20)
            .map(|i| DeviceOutcome::Failed(failure(i, 0, 1)))
            .collect();
        let health = build("meltdown", 1, "continue", 1, outcomes).health;
        assert_eq!(health.first_errors.len(), FleetHealth::MAX_ERROR_SAMPLES);
        assert_eq!(health.first_errors[0].device, 0);
        assert_eq!(health.failed, 20);
    }

    #[test]
    fn slo_rollup_appears_only_for_monitored_fleets() {
        // Unmonitored fleet: neither the records nor the summaries grow
        // any assertion keys — byte-compatible with older reports.
        let clean = build_clean("t", 1, vec![record(0, 0, 1.0, None)]);
        assert_eq!(clean.slo, None);
        let text = clean.to_json_pretty();
        assert!(!text.contains("\"slo\""), "{text}");
        assert!(!text.contains("\"assertions\""), "{text}");
        // Monitored fleet: device counts fold into cohort + fleet SLO.
        let mut noisy = record(0, 0, 1.0, None);
        noisy.assertions = Some(DeviceAssertions {
            delay: 2,
            oscillation: 0,
            occupancy: 1,
            energy_monotone: 0,
        });
        let mut quiet = record(1, 0, 2.0, None);
        quiet.assertions = Some(DeviceAssertions::default());
        let report = build_clean("t", 1, vec![noisy, quiet]);
        let slo = report.slo.as_ref().expect("fleet rollup");
        assert_eq!((slo.monitored, slo.violating), (2, 1));
        assert_eq!((slo.delay, slo.occupancy), (2, 1));
        assert_eq!(slo.total_violations(), 3);
        assert_eq!(report.cohorts[0].slo.as_ref(), Some(slo));
        let text = report.to_json_pretty();
        assert!(text.contains("\"slo\""), "{text}");
        assert!(text.contains("\"assertions\""), "{text}");
        let shown = report.to_string();
        assert!(shown.contains("2 monitored, 1 violating"), "{shown}");
        assert!(shown.contains("slo 1/2 violating (3 viol)"), "{shown}");
    }
}
