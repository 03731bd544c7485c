//! Streaming fleet aggregation at bounded memory.
//!
//! The engine pushes each [`DeviceOutcome`] into a [`FleetAccumulator`]
//! as the in-order fold delivers it; the accumulator folds it into
//! O(1)-sized state (streaming moments plus a fixed-capacity
//! [`QuantileSketch`] per metric, per-cohort sums, capped samples), and
//! the record itself is dropped. Peak RSS does not grow with fleet
//! size; the 1M-device `bench_fleet` gate holds it under a fixed
//! ceiling.
//!
//! Determinism: every piece of state is updated in device-index order
//! (the batched fold already merges per-batch results on the calling
//! thread in ascending index order), and the sketch's compaction is a
//! pure function of its insertion sequence — no RNG, no addresses, no
//! time. Two runs of the same spec therefore serialize byte-identically
//! at any `--jobs` count, and a checkpointed accumulator resumes into
//! the exact same future.

use simcore::stats::{OnlineStats, QuantileSketch};

use crate::report::{
    CohortHealth, CohortSummary, DeviceOutcome, DeviceRecord, FailureSample, FleetHealth,
    FleetReport, MetricSummary, SloSummary,
};

/// Quantile-sketch capacity per metric. 2048 keeps every fleet up to
/// 2048 survivors *exact* (bit-identical to a full sort) and bounds the
/// worst-case rank error near 0.1% of n beyond that — far below the
/// spread the report's two-decimal percentiles can express.
pub const SKETCH_CAPACITY: usize = 2048;

/// Cap on the per-device records embedded in the report. Small fleets
/// (every test and golden) keep all their records; fleet-scale runs
/// keep the first window as a sample and count the rest in
/// [`FleetReport::records_truncated`].
pub const RECORD_SAMPLE_CAP: usize = 4096;

/// Streaming distribution of one fleet metric: exact moments and
/// extremes from [`OnlineStats`], percentiles from a bounded
/// [`QuantileSketch`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAcc {
    pub(crate) stats: OnlineStats,
    pub(crate) sketch: QuantileSketch,
}

impl MetricAcc {
    /// An empty accumulator whose sketch holds `capacity` items before
    /// its first lossy compaction.
    #[must_use]
    pub fn new(capacity: usize) -> MetricAcc {
        MetricAcc {
            stats: OnlineStats::new(),
            sketch: QuantileSketch::new(capacity),
        }
    }

    /// Folds in one observation; non-finite values are ignored.
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            self.stats.push(v);
            self.sketch.push(v);
        }
    }

    /// Merges another accumulator into this one (self first — merge
    /// order is part of the deterministic contract).
    pub fn merge(&mut self, other: &MetricAcc) {
        self.stats.merge(&other.stats);
        self.sketch.merge(&other.sketch);
    }

    /// The summary this accumulator has converged to; `None` when no
    /// finite value was ever pushed.
    #[must_use]
    pub fn summary(&self) -> Option<MetricSummary> {
        let count = self.stats.count();
        if count == 0 {
            return None;
        }
        Some(MetricSummary {
            mean: self.stats.sum() / count as f64,
            min: self.stats.min(),
            max: self.stats.max(),
            p10: self.sketch.quantile(0.10),
            p50: self.sketch.quantile(0.50),
            p90: self.sketch.quantile(0.90),
            p99: self.sketch.quantile(0.99),
            count,
            rank_error: self.sketch.rank_error_bound() as f64 / count as f64,
        })
    }
}

/// Per-policy-slot streaming state: failure accounting over every
/// assigned device, survivor means for the Table-5-style cohort row.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortAcc {
    /// Devices assigned to the slot (completed + failed).
    pub(crate) devices: u64,
    /// Devices whose final outcome was failure.
    pub(crate) failed: u64,
    /// Devices that completed.
    pub(crate) survivors: u64,
    /// Governor label of the first surviving member (cohort row label).
    pub(crate) governor: String,
    /// DPM label of the first surviving member.
    pub(crate) dpm: String,
    pub(crate) sum_energy_kj: f64,
    pub(crate) sum_delay_s: f64,
    pub(crate) sum_drop_rate: f64,
    /// Constant-size assertion SLO tallies over the cohort's survivors;
    /// all-zero (and absent from the report) when no member carried a
    /// monitor verdict.
    pub(crate) slo: SloSummary,
}

impl CohortAcc {
    fn new() -> CohortAcc {
        CohortAcc {
            devices: 0,
            failed: 0,
            survivors: 0,
            governor: String::new(),
            dpm: String::new(),
            sum_energy_kj: 0.0,
            sum_delay_s: 0.0,
            sum_drop_rate: 0.0,
            slo: SloSummary::default(),
        }
    }
}

/// The fleet report's builder: the engine pushes outcomes in device
/// order, the accumulator keeps bounded state, and
/// [`FleetAccumulator::finish`] emits the [`FleetReport`] (with exact
/// percentiles for any fleet small enough that the sketches never
/// compact).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAccumulator {
    /// Maximum attempts the failure policy allows (quarantine bound).
    pub(crate) max_attempts: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) retried: u64,
    pub(crate) recovered: u64,
    pub(crate) quarantined: u64,
    pub(crate) retry_attempts: u64,
    /// First few failures in device order, capped at
    /// [`FleetHealth::MAX_ERROR_SAMPLES`].
    pub(crate) first_errors: Vec<FailureSample>,
    /// One slot per spec policy, in slot order.
    pub(crate) cohorts: Vec<CohortAcc>,
    pub(crate) energy_kj: MetricAcc,
    pub(crate) mean_delay_s: MetricAcc,
    pub(crate) drop_rate: MetricAcc,
    pub(crate) detection_latency_frames: MetricAcc,
    /// Leading sample of surviving records (device order), capped at
    /// [`RECORD_SAMPLE_CAP`].
    pub(crate) records: Vec<DeviceRecord>,
    /// Surviving records dropped beyond the sample cap.
    pub(crate) records_truncated: u64,
}

impl FleetAccumulator {
    /// An empty accumulator for a fleet with `policies` policy slots
    /// run under a failure policy allowing `max_attempts` attempts.
    #[must_use]
    pub fn new(policies: usize, max_attempts: u64) -> FleetAccumulator {
        FleetAccumulator {
            max_attempts,
            completed: 0,
            failed: 0,
            retried: 0,
            recovered: 0,
            quarantined: 0,
            retry_attempts: 0,
            first_errors: Vec::new(),
            cohorts: (0..policies).map(|_| CohortAcc::new()).collect(),
            energy_kj: MetricAcc::new(SKETCH_CAPACITY),
            mean_delay_s: MetricAcc::new(SKETCH_CAPACITY),
            drop_rate: MetricAcc::new(SKETCH_CAPACITY),
            detection_latency_frames: MetricAcc::new(SKETCH_CAPACITY),
            records: Vec::new(),
            records_truncated: 0,
        }
    }

    /// Devices folded in so far (completed + failed). This is the
    /// resume cursor: outcomes are pushed in device order, so the count
    /// *is* the index of the next device to run.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.completed + self.failed
    }

    /// Folds one device's outcome into the bounded state and drops it.
    ///
    /// Outcomes must arrive in ascending device order — the batched
    /// fold guarantees this, and determinism (and the resume cursor)
    /// depends on it.
    ///
    /// # Panics
    ///
    /// Panics if the outcome's policy slot is out of range for the
    /// accumulator (the spec validator makes this unreachable).
    pub fn push(&mut self, outcome: DeviceOutcome) {
        let attempts = outcome.attempts();
        self.retry_attempts += attempts.saturating_sub(1);
        if attempts > 1 {
            self.retried += 1;
        }
        let slot = usize::try_from(outcome.policy()).expect("policy slot fits in usize");
        let cohort = &mut self.cohorts[slot];
        cohort.devices += 1;
        match outcome {
            DeviceOutcome::Completed(r) => {
                self.completed += 1;
                if r.attempts > 1 {
                    self.recovered += 1;
                }
                if cohort.survivors == 0 {
                    cohort.governor = r.governor.clone();
                    cohort.dpm = r.dpm.clone();
                }
                cohort.survivors += 1;
                cohort.sum_energy_kj += r.energy_kj;
                cohort.sum_delay_s += r.mean_delay_s;
                cohort.sum_drop_rate += r.drop_rate;
                if let Some(a) = &r.assertions {
                    cohort.slo.fold(a);
                }
                self.energy_kj.push(r.energy_kj);
                self.mean_delay_s.push(r.mean_delay_s);
                self.drop_rate.push(r.drop_rate);
                if let Some(frames) = r.detection_latency_frames {
                    self.detection_latency_frames.push(frames);
                }
                if self.records.len() < RECORD_SAMPLE_CAP {
                    self.records.push(r);
                } else {
                    self.records_truncated += 1;
                }
            }
            DeviceOutcome::Failed(f) => {
                self.failed += 1;
                cohort.failed += 1;
                if f.attempts >= self.max_attempts {
                    self.quarantined += 1;
                }
                if self.first_errors.len() < FleetHealth::MAX_ERROR_SAMPLES {
                    self.first_errors.push(FailureSample {
                        device: f.device,
                        attempts: f.attempts,
                        error: f.error,
                    });
                }
            }
        }
    }

    /// Assembles the final report.
    ///
    /// # Panics
    ///
    /// Panics if no outcome was ever pushed (the spec validator rejects
    /// zero-device fleets before any outcome exists).
    #[must_use]
    pub fn finish(self, name: &str, base_seed: u64, on_error: &str) -> FleetReport {
        let devices = self.devices();
        assert!(devices > 0, "a fleet report needs at least one device");

        let mut health_cohorts = Vec::new();
        let mut cohorts = Vec::new();
        for (slot, c) in self.cohorts.iter().enumerate() {
            let slot = slot as u64;
            if c.devices > 0 {
                health_cohorts.push(CohortHealth {
                    policy: slot,
                    devices: c.devices,
                    failed: c.failed,
                    failure_rate: c.failed as f64 / c.devices as f64,
                });
            }
            if c.survivors > 0 {
                cohorts.push(CohortSummary {
                    policy: slot,
                    governor: c.governor.clone(),
                    dpm: c.dpm.clone(),
                    devices: c.survivors,
                    mean_energy_kj: c.sum_energy_kj / c.survivors as f64,
                    mean_delay_s: c.sum_delay_s / c.survivors as f64,
                    mean_drop_rate: c.sum_drop_rate / c.survivors as f64,
                    savings_vs_baseline: None,
                    slo: (c.slo.monitored > 0).then_some(c.slo),
                });
            }
        }
        let mut fleet_slo = SloSummary::default();
        for c in &self.cohorts {
            fleet_slo.merge(&c.slo);
        }
        let baseline = cohorts
            .iter()
            .find(|c| c.governor == "max" && c.dpm == "none")
            .map(|c| c.mean_energy_kj);
        if let Some(base) = baseline {
            for c in &mut cohorts {
                c.savings_vs_baseline = (c.mean_energy_kj > 0.0).then(|| base / c.mean_energy_kj);
            }
        }

        let health = FleetHealth {
            on_error: on_error.to_string(),
            devices,
            completed: self.completed,
            failed: self.failed,
            retried: self.retried,
            recovered: self.recovered,
            quarantined: self.quarantined,
            retry_attempts: self.retry_attempts,
            failure_rate: self.failed as f64 / devices as f64,
            cohorts: health_cohorts,
            first_errors: self.first_errors,
        };

        FleetReport {
            name: name.to_string(),
            devices,
            base_seed,
            partial: self.failed > 0,
            energy_kj: self.energy_kj.summary(),
            mean_delay_s: self.mean_delay_s.summary(),
            drop_rate: self.drop_rate.summary(),
            detection_latency_frames: self.detection_latency_frames.summary(),
            cohorts,
            health,
            records: self.records,
            records_truncated: self.records_truncated,
            slo: (fleet_slo.monitored > 0).then_some(fleet_slo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeviceFailure;

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

    #[test]
    fn devices_counts_the_resume_cursor() {
        let mut acc = FleetAccumulator::new(1, 1);
        assert_eq!(acc.devices(), 0);
        acc.push(DeviceOutcome::Completed(record(0, 0, 1.0, None)));
        acc.push(DeviceOutcome::Failed(failure(1, 0, 1)));
        assert_eq!(acc.devices(), 2);
    }

    #[test]
    fn record_sample_is_capped_and_counted() {
        let n = RECORD_SAMPLE_CAP as u64 + 100;
        let mut acc = FleetAccumulator::new(1, 1);
        for d in 0..n {
            acc.push(DeviceOutcome::Completed(record(d, 0, d as f64, None)));
        }
        assert_eq!(acc.records.len(), RECORD_SAMPLE_CAP);
        assert_eq!(acc.records_truncated, 100);
        let report = acc.finish("big", 1, "continue");
        assert_eq!(report.records.len(), RECORD_SAMPLE_CAP);
        assert_eq!(report.records_truncated, 100);
        // Summaries still cover the whole fleet, not just the sample.
        let energy = report.energy_kj.as_ref().expect("survivors");
        assert_eq!(energy.count, n);
        assert_eq!(energy.max, (n - 1) as f64);
        assert!((energy.mean - (n - 1) as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn metric_acc_ignores_non_finite_like_from_values() {
        let mut acc = MetricAcc::new(16);
        for v in [3.0, f64::NAN, 1.0, f64::INFINITY, 2.0] {
            acc.push(v);
        }
        let m = acc.summary().expect("finite data");
        assert_eq!(m.count, 3);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 3.0);
        assert!((m.p50 - 2.0).abs() < 1e-12);
        assert_eq!(m.rank_error, 0.0, "under capacity the sketch is exact");
        assert_eq!(MetricAcc::new(16).summary(), None);
        let mut non_finite = MetricAcc::new(16);
        non_finite.push(f64::NAN);
        non_finite.push(f64::INFINITY);
        assert_eq!(non_finite.summary(), None);
    }
}
