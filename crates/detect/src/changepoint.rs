//! The online change-point detector (the paper's detection algorithm).
//!
//! [`ChangePointDetector`] keeps a sliding window of the last `m` samples
//! and, every `check_interval` samples, evaluates the maximum-likelihood
//! ratio statistic (Eq. 4) for each candidate rate `λn = r · λo`, `r ∈ Λ`.
//! If any candidate's statistic exceeds its calibrated 99.5 % threshold,
//! the detector declares a rate change, re-estimates the rate from the
//! post-change tail of the window (maximum likelihood), and restarts with
//! those samples.

use crate::calibrate::{default_ratios, CalibrationConfig, ThresholdTable};
use crate::estimator::{DetectionStat, RateChange, RateEstimator};
use crate::likelihood::{maximize_kernel, RatioKernel};
use crate::window::SampleWindow;
use crate::DetectError;
use std::sync::Arc;

/// Configuration of the online change-point detector.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangePointConfig {
    /// Sliding-window length `m`. The paper found m = 100 "large enough";
    /// larger windows cost computation, much shorter ones are
    /// statistically unstable.
    pub window: usize,
    /// Run the test every this many new samples (the paper's "checked
    /// every k points" trade-off between latency and computation).
    pub check_interval: usize,
    /// Grid step for the change index inside the window.
    pub k_step: usize,
    /// Candidate rate ratios `λn/λo`.
    pub ratios: Vec<f64>,
    /// Detection confidence for threshold calibration (paper: 0.995).
    pub confidence: f64,
    /// Monte-Carlo trials per ratio during calibration.
    pub calibration_trials: usize,
    /// Seed for the calibration random stream, so identically configured
    /// detectors behave identically.
    pub calibration_seed: u64,
}

impl Default for ChangePointConfig {
    fn default() -> Self {
        ChangePointConfig {
            window: 100,
            check_interval: 10,
            k_step: 10,
            ratios: default_ratios(),
            confidence: 0.995,
            calibration_trials: 2000,
            calibration_seed: 0x5EED,
        }
    }
}

impl ChangePointConfig {
    /// Resolves this configuration's calibrated threshold table through
    /// the process-wide [`crate::cache`] — exactly the lookup
    /// [`ChangePointDetector::new`] performs, exposed so batch harnesses
    /// (the fleet engine's cohort stepping) can resolve once per cohort
    /// and construct every detector via
    /// [`ChangePointDetector::with_shared_table`] with zero cache
    /// traffic. The returned table is bit-identical to the one `new`
    /// would use.
    ///
    /// # Errors
    ///
    /// Propagates any calibration error.
    pub fn resolve_table(&self) -> Result<Arc<ThresholdTable>, DetectError> {
        let calibration = CalibrationConfig {
            window: self.window,
            k_step: self.k_step,
            confidence: self.confidence,
            trials: self.calibration_trials,
        };
        crate::cache::cached_table(
            &self.ratios,
            calibration,
            self.calibration_seed,
            simcore::par::Jobs::Auto,
        )
    }
}

/// Online rate-change detector driven by the maximum-likelihood ratio
/// test with offline-calibrated thresholds.
///
/// See the crate-level docs for a complete usage example.
#[derive(Debug, Clone)]
pub struct ChangePointDetector {
    rate: f64,
    window: SampleWindow,
    table: Arc<ThresholdTable>,
    check_interval: usize,
    k_step: usize,
    since_check: usize,
    last_stat: Option<DetectionStat>,
    /// `(threshold, kernel)` per candidate ratio, with the kernel's
    /// `ln()` precomputed for the current baseline rate. Rebuilt only
    /// when `rate` changes (detection or reset) — the per-sample test
    /// then runs without a single `ln()` call.
    kernels: Vec<(f64, RatioKernel)>,
}

/// Precomputes per-candidate kernels for a baseline rate. The candidate
/// rate is formed as `rate * ratio` and divided back by `rate` inside
/// [`RatioKernel::new`] — the exact float expressions the unhoisted
/// per-test evaluation used, so detection sequences are bit-identical.
fn build_kernels(rate: f64, table: &ThresholdTable) -> Vec<(f64, RatioKernel)> {
    table
        .entries()
        .iter()
        .map(|&(ratio, threshold)| (threshold, RatioKernel::new(rate, rate * ratio)))
        .collect()
}

impl ChangePointDetector {
    /// Creates a detector with the given initial rate estimate.
    ///
    /// Threshold calibration goes through the process-wide
    /// [`crate::cache`]: the first detector with a given `(config.ratios,
    /// calibration parameters, calibration_seed)` runs the offline
    /// Monte-Carlo characterization (parallelized at the process-default
    /// job count), and every later identically configured detector shares
    /// that table.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial rate or any configuration value is
    /// invalid.
    pub fn new(initial_rate: f64, config: ChangePointConfig) -> Result<Self, DetectError> {
        let table = config.resolve_table()?;
        Self::with_shared_table(initial_rate, table, config.check_interval)
    }

    /// Creates a detector reusing an existing threshold table —
    /// calibration is the expensive part, so experiment harnesses
    /// calibrate once and clone. Prefer [`Self::with_shared_table`] to
    /// avoid copying the table.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial rate or `check_interval` is
    /// invalid.
    pub fn with_table(
        initial_rate: f64,
        table: ThresholdTable,
        check_interval: usize,
    ) -> Result<Self, DetectError> {
        Self::with_shared_table(initial_rate, Arc::new(table), check_interval)
    }

    /// Creates a detector sharing an [`Arc`]-held threshold table —
    /// zero-copy reuse across any number of detectors.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial rate or `check_interval` is
    /// invalid.
    pub fn with_shared_table(
        initial_rate: f64,
        table: Arc<ThresholdTable>,
        check_interval: usize,
    ) -> Result<Self, DetectError> {
        if !(initial_rate.is_finite() && initial_rate > 0.0) {
            return Err(DetectError::InvalidParameter {
                name: "initial_rate",
                value: initial_rate,
            });
        }
        if check_interval == 0 {
            return Err(DetectError::InvalidParameter {
                name: "check_interval",
                value: 0.0,
            });
        }
        let window = SampleWindow::new(table.config().window);
        let kernels = build_kernels(initial_rate, &table);
        Ok(ChangePointDetector {
            rate: initial_rate,
            k_step: table.config().k_step,
            table,
            check_interval,
            since_check: 0,
            window,
            last_stat: None,
            kernels,
        })
    }

    /// The calibrated threshold table in use.
    #[must_use]
    pub fn table(&self) -> &ThresholdTable {
        &self.table
    }

    /// A shared handle to the threshold table, for constructing further
    /// detectors via [`Self::with_shared_table`] without recalibrating
    /// or copying.
    #[must_use]
    pub fn shared_table(&self) -> Arc<ThresholdTable> {
        Arc::clone(&self.table)
    }

    /// Number of samples currently buffered in the window.
    #[must_use]
    pub fn window_fill(&self) -> usize {
        self.window.len()
    }

    fn run_test(&mut self) -> Option<RateChange> {
        // (margin, tail_len, statistic of the winning candidate)
        let mut best: Option<(f64, usize, DetectionStat)> = None;
        for &(threshold, ref kernel) in &self.kernels {
            let candidate = maximize_kernel(&self.window, kernel, self.k_step);
            let margin = candidate.ln_p_max - threshold;
            if margin > 0.0 && best.is_none_or(|(m, _, _)| margin > m) {
                best = Some((
                    margin,
                    candidate.tail_len,
                    DetectionStat {
                        ln_p_max: candidate.ln_p_max,
                        threshold,
                    },
                ));
            }
        }
        let (_, tail_len, stat) = best?;
        // Maximum-likelihood re-estimate from the post-change samples; the
        // candidate grid located the change, the tail MLE refines the rate.
        let new_rate = self.window.suffix_rate(tail_len);
        self.window.retain_last(tail_len);
        self.rate = new_rate;
        self.kernels = build_kernels(new_rate, &self.table);
        self.last_stat = Some(stat);
        Some(RateChange {
            new_rate,
            samples_since_change: tail_len,
        })
    }
}

impl RateEstimator for ChangePointDetector {
    fn observe(&mut self, sample: f64) -> Option<RateChange> {
        if !(sample.is_finite() && sample > 0.0) {
            return None; // zero-length gaps carry no rate information
        }
        self.window.push(sample);
        self.since_check += 1;
        if self.window.is_full() && self.since_check >= self.check_interval {
            self.since_check = 0;
            return self.run_test();
        }
        None
    }

    fn current_rate(&self) -> f64 {
        self.rate
    }

    fn reset(&mut self, initial_rate: f64) {
        assert!(
            initial_rate.is_finite() && initial_rate > 0.0,
            "initial rate must be positive"
        );
        self.rate = initial_rate;
        self.kernels = build_kernels(initial_rate, &self.table);
        self.window.clear();
        self.since_check = 0;
        self.last_stat = None;
    }

    fn name(&self) -> &'static str {
        "change-point"
    }

    fn last_detection_stat(&self) -> Option<DetectionStat> {
        self.last_stat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Exponential, Sample};
    use simcore::rng::SimRng;

    fn quick_config() -> ChangePointConfig {
        ChangePointConfig {
            window: 60,
            check_interval: 5,
            k_step: 6,
            calibration_trials: 500,
            ..ChangePointConfig::default()
        }
    }

    fn feed_exponential(
        det: &mut ChangePointDetector,
        rate: f64,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<(usize, RateChange)> {
        let dist = Exponential::new(rate).unwrap();
        let mut changes = Vec::new();
        for i in 0..n {
            if let Some(c) = det.observe(dist.sample(rng)) {
                changes.push((i, c));
            }
        }
        changes
    }

    #[test]
    fn stable_rate_rarely_fires() {
        let mut det = ChangePointDetector::new(30.0, quick_config()).unwrap();
        let mut rng = SimRng::seed_from(1);
        let changes = feed_exponential(&mut det, 30.0, 2000, &mut rng);
        // 99.5% confidence per candidate ratio, ~10 candidates, checked
        // every 5 samples over overlapping windows → a small number of
        // false alarms is expected; runaway firing is not.
        assert!(changes.len() <= 15, "{} false alarms", changes.len());
        assert!((det.current_rate() - 30.0).abs() / 30.0 < 0.35);
    }

    #[test]
    fn detects_step_up_quickly_and_accurately() {
        let mut det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        let mut rng = SimRng::seed_from(9);
        feed_exponential(&mut det, 10.0, 300, &mut rng);
        let changes = feed_exponential(&mut det, 60.0, 120, &mut rng);
        assert!(!changes.is_empty(), "step 10→60 must be detected");
        let (when, _) = changes[0];
        // Paper Fig. 10: detects "within 10 frames of the ideal detection".
        assert!(when <= 40, "detected after {when} samples");
        assert!(
            (det.current_rate() - 60.0).abs() / 60.0 < 0.3,
            "final rate {}",
            det.current_rate()
        );
    }

    #[test]
    fn detection_statistic_is_exposed_after_a_change() {
        let mut det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        assert_eq!(det.last_detection_stat(), None, "no detection yet");
        let mut rng = SimRng::seed_from(9);
        feed_exponential(&mut det, 10.0, 300, &mut rng);
        let changes = feed_exponential(&mut det, 60.0, 120, &mut rng);
        assert!(!changes.is_empty());
        let stat = det.last_detection_stat().expect("detection leaves a stat");
        assert!(
            stat.ln_p_max > stat.threshold,
            "winning candidate cleared its threshold: {stat:?}"
        );
        assert!(stat.threshold > 0.0);
        det.reset(10.0);
        assert_eq!(det.last_detection_stat(), None, "reset clears the stat");
    }

    #[test]
    fn detects_step_down() {
        let mut det = ChangePointDetector::new(60.0, quick_config()).unwrap();
        let mut rng = SimRng::seed_from(3);
        feed_exponential(&mut det, 60.0, 300, &mut rng);
        let changes = feed_exponential(&mut det, 10.0, 200, &mut rng);
        assert!(!changes.is_empty());
        assert!((det.current_rate() - 10.0).abs() / 10.0 < 0.3);
    }

    #[test]
    fn tracks_multiple_steps() {
        let mut det = ChangePointDetector::new(20.0, quick_config()).unwrap();
        let mut rng = SimRng::seed_from(4);
        for &rate in &[20.0, 40.0, 15.0, 30.0] {
            feed_exponential(&mut det, rate, 400, &mut rng);
            assert!(
                (det.current_rate() - rate).abs() / rate < 0.35,
                "after {rate}: estimate {}",
                det.current_rate()
            );
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        let mut rng = SimRng::seed_from(5);
        feed_exponential(&mut det, 50.0, 500, &mut rng);
        det.reset(25.0);
        assert_eq!(det.current_rate(), 25.0);
        assert_eq!(det.window_fill(), 0);
    }

    #[test]
    fn non_positive_samples_are_ignored() {
        let mut det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        assert_eq!(det.observe(0.0), None);
        assert_eq!(det.observe(f64::NAN), None);
        assert_eq!(det.window_fill(), 0);
    }

    #[test]
    fn constructor_validates() {
        assert!(ChangePointDetector::new(0.0, quick_config()).is_err());
        let bad = ChangePointConfig {
            check_interval: 0,
            ..quick_config()
        };
        assert!(ChangePointDetector::new(10.0, bad).is_err());
        let bad = ChangePointConfig {
            ratios: vec![],
            ..quick_config()
        };
        assert!(ChangePointDetector::new(10.0, bad).is_err());
    }

    #[test]
    fn shared_table_reuse() {
        let det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        let table = det.table().clone();
        let det2 = ChangePointDetector::with_table(20.0, table, 5).unwrap();
        assert_eq!(det2.current_rate(), 20.0);
        // Zero-copy sharing through the Arc handle.
        let det3 = ChangePointDetector::with_shared_table(30.0, det.shared_table(), 5).unwrap();
        assert!(std::ptr::eq(det.table(), det3.table()));
    }

    #[test]
    fn name_is_stable() {
        let det = ChangePointDetector::new(10.0, quick_config()).unwrap();
        assert_eq!(det.name(), "change-point");
    }
}
