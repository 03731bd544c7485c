//! Governors: a detection strategy for each of the two rate streams.
//!
//! A governor owns two rate estimators — one for frame **arrivals**, one
//! for frame **decode times** (normalized to the maximum frequency) — and
//! reports when either has materially changed, which is the trigger for
//! re-running the DVS frequency selection. The four governors are the
//! four algorithm columns of the paper's Tables 3 and 4.

use crate::config::GovernorKind;
use crate::PmError;
use detect::changepoint::ChangePointDetector;
use detect::ema::EmaEstimator;
use detect::estimator::{DetectionStat, RateEstimator};
use detect::oracle::OracleEstimator;

/// Details of the most recent rate change a governor signalled, for
/// tracing and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateDetection {
    /// `true` if the arrival stream changed, `false` for service.
    pub arrival: bool,
    /// The stream's new rate estimate after the change, events/second.
    pub new_rate: f64,
    /// The change-point test statistic behind the detection, when the
    /// stream's estimator computes one (oracle/EMA streams do not).
    pub stat: Option<DetectionStat>,
}

/// Number of warm-up samples per stream: the governor estimates the
/// initial rate by maximum likelihood over these before the configured
/// estimator takes over, so every strategy starts from the same
/// data-driven baseline (no oracle leakage).
pub const WARMUP_SAMPLES: usize = 20;

enum StreamImpl {
    /// Ground-truth mirror: consumes truths, ignores samples.
    Oracle(OracleEstimator),
    /// A sample-driven estimator behind the common trait.
    Estimated(Box<dyn RateEstimator>),
}

impl std::fmt::Debug for StreamImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamImpl::Oracle(o) => f.debug_tuple("Oracle").field(o).finish(),
            StreamImpl::Estimated(e) => f
                .debug_struct("Estimated")
                .field("name", &e.name())
                .field("rate", &e.current_rate())
                .finish(),
        }
    }
}

#[derive(Debug)]
struct Stream {
    inner: StreamImpl,
    warmup_count: usize,
    warmup_sum: f64,
    rejected: u64,
}

impl Stream {
    fn new(inner: StreamImpl) -> Self {
        Stream {
            inner,
            warmup_count: 0,
            warmup_sum: 0.0,
            rejected: 0,
        }
    }

    /// Feeds a sample; returns `true` when the rate estimate materially
    /// changed. Degenerate samples (zero, negative, NaN, infinite) are
    /// rejected and counted, never propagated to the estimator.
    fn observe(&mut self, sample: f64) -> bool {
        let StreamImpl::Estimated(estimator) = &mut self.inner else {
            return false;
        };
        if !(sample.is_finite() && sample > 0.0) {
            self.rejected += 1;
            return false;
        }
        if self.warmup_count < WARMUP_SAMPLES {
            self.warmup_count += 1;
            self.warmup_sum += sample;
            if self.warmup_count == WARMUP_SAMPLES {
                estimator.reset(self.warmup_count as f64 / self.warmup_sum);
                return true;
            }
            return false;
        }
        estimator.observe(sample).is_some()
    }

    /// Oracle streams bypass warm-up: they know the truth from frame 0.
    fn observe_truth(&mut self, truth: f64) -> bool {
        match &mut self.inner {
            StreamImpl::Oracle(oracle) => oracle.observe_truth(truth).is_some(),
            StreamImpl::Estimated(_) => false,
        }
    }

    fn rate(&self) -> f64 {
        match &self.inner {
            StreamImpl::Oracle(oracle) => oracle.current_rate(),
            StreamImpl::Estimated(estimator) => {
                if self.warmup_count > 0 && self.warmup_count < WARMUP_SAMPLES {
                    // Running MLE during warm-up.
                    self.warmup_count as f64 / self.warmup_sum
                } else {
                    estimator.current_rate()
                }
            }
        }
    }

    fn last_stat(&self) -> Option<DetectionStat> {
        match &self.inner {
            StreamImpl::Oracle(_) => None,
            StreamImpl::Estimated(estimator) => estimator.last_detection_stat(),
        }
    }
}

/// The power manager's view of the workload rates.
#[derive(Debug)]
pub struct Governor {
    kind_label: &'static str,
    ideal: bool,
    max_perf: bool,
    arrival: Stream,
    service: Stream,
    rate_changes: u64,
    last_detection: Option<RateDetection>,
}

impl Governor {
    /// Builds a governor.
    ///
    /// `initial_arrival` / `initial_service` seed the estimators before
    /// warm-up completes (frames/second).
    ///
    /// A change-point governor resolves its threshold table through the
    /// process-wide cache (one lookup per governor) when `table` is
    /// `None`. Batch harnesses that construct many identically
    /// configured governors — the fleet engine's cohort stepping —
    /// resolve the table once per cohort via
    /// [`detect::ChangePointConfig::resolve_table`] and pass it here,
    /// skipping the cache entirely. Passing `Some` table that was
    /// resolved from the same config is behaviorally identical to
    /// `None`: the cache returns the same `Arc` either way.
    ///
    /// Non-change-point governors ignore `table`.
    ///
    /// # Errors
    ///
    /// Returns an error if a rate or a strategy parameter is invalid.
    pub fn build_with_table(
        kind: &GovernorKind,
        initial_arrival: f64,
        initial_service: f64,
        table: Option<&std::sync::Arc<detect::calibrate::ThresholdTable>>,
    ) -> Result<Self, PmError> {
        for (name, v) in [
            ("initial_arrival", initial_arrival),
            ("initial_service", initial_service),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(PmError::InvalidParameter { name, value: v });
            }
        }
        let (arrival, service): (StreamImpl, StreamImpl) = match kind {
            GovernorKind::Ideal | GovernorKind::MaxPerformance => (
                StreamImpl::Oracle(OracleEstimator::new(initial_arrival)?),
                StreamImpl::Oracle(OracleEstimator::new(initial_service)?),
            ),
            GovernorKind::ChangePoint(config) => {
                // Calibrate once (through the process-wide threshold
                // cache, unless the caller pre-resolved the table),
                // share the table between the two streams.
                let first = match table {
                    Some(table) => ChangePointDetector::with_shared_table(
                        initial_arrival,
                        std::sync::Arc::clone(table),
                        config.check_interval,
                    )?,
                    None => ChangePointDetector::new(initial_arrival, config.clone())?,
                };
                let second = ChangePointDetector::with_shared_table(
                    initial_service,
                    first.shared_table(),
                    config.check_interval,
                )?;
                (
                    StreamImpl::Estimated(Box::new(first)),
                    StreamImpl::Estimated(Box::new(second)),
                )
            }
            GovernorKind::ExpAverage { gain } => (
                StreamImpl::Estimated(Box::new(EmaEstimator::new(initial_arrival, *gain)?)),
                StreamImpl::Estimated(Box::new(EmaEstimator::new(initial_service, *gain)?)),
            ),
        };
        Ok(Governor {
            kind_label: kind.label(),
            ideal: matches!(kind, GovernorKind::Ideal),
            max_perf: matches!(kind, GovernorKind::MaxPerformance),
            arrival: Stream::new(arrival),
            service: Stream::new(service),
            rate_changes: 0,
            last_detection: None,
        })
    }

    /// Feeds a frame arrival. `gap` is the interarrival time (`None` for
    /// the first frame after an idle period — the paper excludes idle
    /// gaps from the streaming model); `truth` is the generator's true
    /// arrival rate, consumed only by the ideal governor.
    ///
    /// Returns `true` if the governor's view changed and the operating
    /// point should be re-selected.
    pub fn on_arrival(&mut self, gap: Option<f64>, truth: f64) -> bool {
        let changed = if self.ideal {
            self.arrival.observe_truth(truth)
        } else if self.max_perf {
            false
        } else {
            gap.is_some_and(|g| self.arrival.observe(g))
        };
        if changed {
            self.rate_changes += 1;
            self.last_detection = Some(RateDetection {
                arrival: true,
                new_rate: self.arrival.rate(),
                stat: self.arrival.last_stat(),
            });
        }
        changed
    }

    /// Feeds a completed decode. `work_at_max` is the frame's decode time
    /// normalized to the maximum frequency; `truth` is the generator's
    /// true decode rate.
    ///
    /// Returns `true` if the operating point should be re-selected.
    pub fn on_decode(&mut self, work_at_max: f64, truth: f64) -> bool {
        let changed = if self.ideal {
            self.service.observe_truth(truth)
        } else if self.max_perf {
            false
        } else {
            self.service.observe(work_at_max)
        };
        if changed {
            self.rate_changes += 1;
            self.last_detection = Some(RateDetection {
                arrival: false,
                new_rate: self.service.rate(),
                stat: self.service.last_stat(),
            });
        }
        changed
    }

    /// Current arrival-rate estimate, frames/second.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.arrival.rate()
    }

    /// Current decode-rate estimate at maximum frequency, frames/second.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service.rate()
    }

    /// `true` for the no-DVS governor that always runs flat out.
    #[must_use]
    pub fn wants_max(&self) -> bool {
        self.max_perf
    }

    /// The experiment-table label of the strategy.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.kind_label
    }

    /// How many rate changes the governor has signalled.
    #[must_use]
    pub fn rate_changes(&self) -> u64 {
        self.rate_changes
    }

    /// Details of the most recent change signalled (which stream, its
    /// new rate, and the detection statistic if the estimator has one).
    #[must_use]
    pub fn last_detection(&self) -> Option<RateDetection> {
        self.last_detection
    }

    /// How many degenerate samples (zero/negative/NaN/infinite) the two
    /// streams rejected instead of propagating to their estimators.
    #[must_use]
    pub fn rejected_samples(&self) -> u64 {
        self.arrival.rejected + self.service.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorKind;

    #[test]
    fn ideal_tracks_truth_immediately() {
        let mut g = Governor::build_with_table(&GovernorKind::Ideal, 20.0, 100.0, None).unwrap();
        assert_eq!(g.last_detection(), None);
        assert!(!g.on_arrival(Some(0.05), 20.0));
        assert!(g.on_arrival(Some(0.02), 44.0));
        assert_eq!(g.arrival_rate(), 44.0);
        let d = g.last_detection().expect("change recorded");
        assert!(d.arrival);
        assert_eq!(d.new_rate, 44.0);
        assert_eq!(d.stat, None, "oracle has no test statistic");
        assert!(g.on_decode(0.01, 80.0));
        assert_eq!(g.service_rate(), 80.0);
        assert_eq!(g.rate_changes(), 2);
        let d = g.last_detection().unwrap();
        assert!(!d.arrival, "latest change was on the service stream");
        assert_eq!(d.new_rate, 80.0);
    }

    #[test]
    fn max_performance_never_changes() {
        let mut g =
            Governor::build_with_table(&GovernorKind::MaxPerformance, 20.0, 100.0, None).unwrap();
        assert!(g.wants_max());
        assert!(!g.on_arrival(Some(0.01), 90.0));
        assert!(!g.on_decode(0.001, 500.0));
        assert_eq!(g.rate_changes(), 0);
    }

    #[test]
    fn warmup_sets_data_driven_rate() {
        let mut g = Governor::build_with_table(&GovernorKind::quick_change_point(), 5.0, 5.0, None)
            .unwrap();
        // 20 gaps of 25 ms → warm-up MLE of 40 fr/s despite the bad seed.
        let mut changed = false;
        for _ in 0..WARMUP_SAMPLES {
            changed |= g.on_arrival(Some(0.025), 40.0);
        }
        assert!(changed, "warm-up completion reports a change");
        assert!(
            (g.arrival_rate() - 40.0).abs() < 1.0,
            "{}",
            g.arrival_rate()
        );
    }

    #[test]
    fn warmup_rate_is_running_mle() {
        let mut g = Governor::build_with_table(&GovernorKind::quick_change_point(), 5.0, 5.0, None)
            .unwrap();
        g.on_arrival(Some(0.1), 10.0);
        g.on_arrival(Some(0.1), 10.0);
        assert!((g.arrival_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn change_point_governor_detects_service_change() {
        let mut g =
            Governor::build_with_table(&GovernorKind::quick_change_point(), 20.0, 80.0, None)
                .unwrap();
        let mut rng = simcore::rng::SimRng::seed_from(1);
        let slow = simcore::dist::Exponential::new(80.0).unwrap();
        let fast = simcore::dist::Exponential::new(200.0).unwrap();
        use simcore::dist::Sample;
        for _ in 0..300 {
            g.on_decode(slow.sample(&mut rng), 80.0);
        }
        let mut changed = false;
        for _ in 0..150 {
            changed |= g.on_decode(fast.sample(&mut rng), 200.0);
        }
        assert!(changed);
        assert!(
            (g.service_rate() - 200.0).abs() / 200.0 < 0.35,
            "{}",
            g.service_rate()
        );
        let d = g.last_detection().expect("detection recorded");
        assert!(!d.arrival);
        if let Some(stat) = d.stat {
            assert!(stat.ln_p_max > stat.threshold);
        }
    }

    #[test]
    fn ema_governor_reports_every_sample_after_warmup() {
        let mut g =
            Governor::build_with_table(&GovernorKind::ExpAverage { gain: 0.3 }, 20.0, 80.0, None)
                .unwrap();
        for _ in 0..WARMUP_SAMPLES {
            g.on_arrival(Some(0.05), 20.0);
        }
        assert!(g.on_arrival(Some(0.05), 20.0));
        assert!(g.on_arrival(Some(0.04), 20.0));
    }

    #[test]
    fn idle_gaps_are_excluded() {
        let mut g =
            Governor::build_with_table(&GovernorKind::quick_change_point(), 20.0, 80.0, None)
                .unwrap();
        assert!(!g.on_arrival(None, 20.0));
        assert_eq!(g.arrival_rate(), 20.0, "no sample consumed");
    }

    #[test]
    fn build_validates() {
        assert!(Governor::build_with_table(&GovernorKind::Ideal, 0.0, 10.0, None).is_err());
        assert!(Governor::build_with_table(
            &GovernorKind::ExpAverage { gain: 2.0 },
            10.0,
            10.0,
            None
        )
        .is_err());
    }

    #[test]
    fn degenerate_samples_are_rejected_and_counted() {
        let mut g =
            Governor::build_with_table(&GovernorKind::ExpAverage { gain: 0.3 }, 20.0, 80.0, None)
                .unwrap();
        for _ in 0..WARMUP_SAMPLES {
            g.on_arrival(Some(0.05), 20.0);
        }
        let rate = g.arrival_rate();
        assert!(!g.on_arrival(Some(0.0), 20.0));
        assert!(!g.on_arrival(Some(f64::NAN), 20.0));
        assert!(!g.on_arrival(Some(f64::INFINITY), 20.0));
        assert!(!g.on_arrival(Some(-0.1), 20.0));
        assert!(!g.on_decode(f64::NAN, 80.0));
        assert_eq!(g.rejected_samples(), 5);
        assert_eq!(g.arrival_rate(), rate, "estimate untouched by garbage");
        assert!(g.arrival_rate().is_finite());
    }

    #[test]
    fn oracle_streams_never_count_rejections() {
        let mut g = Governor::build_with_table(&GovernorKind::Ideal, 20.0, 80.0, None).unwrap();
        g.on_arrival(Some(f64::NAN), 20.0);
        assert_eq!(g.rejected_samples(), 0, "oracle never consumes samples");
    }
}
