//! The DVS frequency/voltage selection policy (paper Section 3.1).
//!
//! Given the current frame arrival rate `λ_U` and the application's
//! decode capability at the maximum frequency, the policy:
//!
//! 1. computes the decode rate `λ_D = λ_U + 1/W` that holds the mean
//!    M/M/1 total frame delay at the target `W` (inverting paper Eq. 5),
//! 2. maps `λ_D` to a continuous CPU frequency through the application's
//!    piecewise-linear performance curve (paper Figures 4/5),
//! 3. quantizes **up** to the next discrete SA-1100 operating point —
//!    never violating the performance constraint — which fixes the
//!    voltage through the frequency/voltage table (paper Figure 3).

use crate::PmError;
use hardware::cpu::{CpuModel, OperatingPoint};
use hardware::perf::PerformanceCurve;
use workload::MediaKind;

/// Which analytical queue model inverts the delay constraint into a
/// required decode rate.
///
/// The paper uses M/M/1 (Eq. 5) and notes that "when general
/// distributions are used, M/M/1 queue model is not applicable, so
/// another method of frequency and voltage adjustment is needed"; the
/// M/G/1 variant is that other method, used by the `ablation_queue_model`
/// bench.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum QueueModel {
    /// Exponential service assumption (paper Eq. 5).
    #[default]
    Mm1,
    /// Pollaczek–Khinchine with the given squared coefficient of
    /// variation of the service time.
    Mg1 {
        /// Squared coefficient of variation `c²` of per-frame decode
        /// times (1.0 reduces to M/M/1).
        scv: f64,
    },
}

/// Per-media DVS inputs: the performance curve and the target delay.
#[derive(Debug, Clone)]
struct MediaPolicy {
    curve: PerformanceCurve,
    target_delay_s: f64,
}

/// The frequency/voltage selection policy.
///
/// # Example
///
/// ```
/// use powermgr::dvs::DvsPolicy;
/// use workload::MediaKind;
///
/// # fn main() -> Result<(), powermgr::PmError> {
/// let policy = DvsPolicy::smartbadge();
/// // Slow arrivals and a fast decoder: a low operating point suffices.
/// let op = policy.select(MediaKind::Mp3Audio, 14.0, 215.0)?;
/// assert!(op.freq_mhz < 120.0);
/// // Fast arrivals with a slow decoder: the policy runs flat out.
/// let op = policy.select(MediaKind::MpegVideo, 32.0, 40.0)?;
/// assert!((op.freq_mhz - 221.2).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DvsPolicy {
    cpu: CpuModel,
    mp3: MediaPolicy,
    mpeg: MediaPolicy,
    queue_model: QueueModel,
}

/// Target mean total frame delay for MP3 audio, seconds (≈ 6 extra
/// buffered frames at typical audio rates).
const MP3_TARGET_DELAY_S: f64 = 0.2;

/// Target mean total frame delay for MPEG video, seconds (the paper's
/// 0.1 s ≈ 2 extra buffered frames).
const MPEG_TARGET_DELAY_S: f64 = 0.1;

impl DvsPolicy {
    /// Builds the policy for the SmartBadge: MP3 uses the memory-bound
    /// SRAM curve with a 0.2 s target mean total frame delay, MPEG the
    /// near-linear SDRAM curve with the paper's 0.1 s.
    #[must_use]
    pub fn smartbadge() -> Self {
        let cpu = CpuModel::sa1100();
        DvsPolicy {
            mp3: MediaPolicy {
                curve: PerformanceCurve::mp3_on_sram(&cpu),
                target_delay_s: MP3_TARGET_DELAY_S,
            },
            mpeg: MediaPolicy {
                curve: PerformanceCurve::mpeg_on_sdram(&cpu),
                target_delay_s: MPEG_TARGET_DELAY_S,
            },
            cpu,
            queue_model: QueueModel::Mm1,
        }
    }

    /// Replaces the queue model used to invert the delay constraint.
    ///
    /// # Errors
    ///
    /// Returns an error if an M/G/1 `scv` is negative or non-finite.
    pub fn with_queue_model(mut self, model: QueueModel) -> Result<Self, PmError> {
        if let QueueModel::Mg1 { scv } = model {
            if !(scv.is_finite() && scv >= 0.0) {
                return Err(PmError::InvalidParameter {
                    name: "scv",
                    value: scv,
                });
            }
        }
        self.queue_model = model;
        Ok(self)
    }

    /// The CPU model the policy quantizes onto.
    #[must_use]
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// The target delay for a media kind, seconds.
    #[must_use]
    pub fn target_delay_s(&self, kind: MediaKind) -> f64 {
        self.media(kind).target_delay_s
    }

    /// The performance curve for a media kind.
    #[must_use]
    pub fn curve(&self, kind: MediaKind) -> &PerformanceCurve {
        &self.media(kind).curve
    }

    fn media(&self, kind: MediaKind) -> &MediaPolicy {
        match kind {
            MediaKind::Mp3Audio => &self.mp3,
            MediaKind::MpegVideo => &self.mpeg,
        }
    }

    /// Selects the operating point for the current conditions:
    /// `arrival_rate` frames/s and a decoder capable of
    /// `decode_rate_at_max` frames/s at the top frequency.
    ///
    /// If even the top frequency cannot meet the M/M/1 delay target
    /// (required rate exceeds capability), the policy runs flat out —
    /// it degrades gracefully rather than failing.
    ///
    /// # Errors
    ///
    /// Returns an error if a rate is non-positive or non-finite.
    pub fn select(
        &self,
        kind: MediaKind,
        arrival_rate: f64,
        decode_rate_at_max: f64,
    ) -> Result<OperatingPoint, PmError> {
        for (name, v) in [
            ("arrival_rate", arrival_rate),
            ("decode_rate_at_max", decode_rate_at_max),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(PmError::InvalidParameter { name, value: v });
            }
        }
        let media = self.media(kind);
        let required = match self.queue_model {
            QueueModel::Mm1 => {
                framequeue::mm1::service_rate_for_delay(arrival_rate, media.target_delay_s)?
            }
            QueueModel::Mg1 { scv } => {
                framequeue::mg1::service_rate_for_delay(arrival_rate, media.target_delay_s, scv)?
            }
        };
        if required >= decode_rate_at_max {
            return Ok(self.cpu.max_operating_point());
        }
        let freq = media.curve.frequency_for_rate(required, decode_rate_at_max);
        Ok(self.cpu.lowest_point_at_least(freq))
    }

    /// The decode rate (frames/s) this application achieves at `op`.
    ///
    /// # Panics
    ///
    /// Panics if `decode_rate_at_max` is not positive and finite.
    #[must_use]
    pub fn achieved_rate(
        &self,
        kind: MediaKind,
        op: OperatingPoint,
        decode_rate_at_max: f64,
    ) -> f64 {
        self.media(kind)
            .curve
            .decode_rate(op.freq_mhz, decode_rate_at_max)
    }

    /// The factor by which a frame's decode time stretches at `op`
    /// relative to the maximum frequency: `1 / perf(f)`.
    #[must_use]
    pub fn stretch(&self, kind: MediaKind, op: OperatingPoint) -> f64 {
        1.0 / self.media(kind).curve.performance_at(op.freq_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DvsPolicy {
        DvsPolicy::smartbadge()
    }

    #[test]
    fn selection_meets_delay_target() {
        let p = policy();
        for (arr, cap) in [(14.0, 215.0), (27.8, 130.0), (38.3, 80.0), (20.0, 60.0)] {
            let op = p.select(MediaKind::Mp3Audio, arr, cap).unwrap();
            let achieved = p.achieved_rate(MediaKind::Mp3Audio, op, cap);
            let required = framequeue::mm1::service_rate_for_delay(arr, 0.2).unwrap();
            if required < cap {
                assert!(
                    achieved >= required - 1e-6,
                    "arr {arr}, cap {cap}: achieved {achieved} < required {required}"
                );
            }
        }
    }

    #[test]
    fn slower_arrivals_allow_lower_frequency() {
        let p = policy();
        let slow = p.select(MediaKind::MpegVideo, 10.0, 90.0).unwrap();
        let fast = p.select(MediaKind::MpegVideo, 30.0, 90.0).unwrap();
        assert!(slow.freq_mhz <= fast.freq_mhz);
    }

    #[test]
    fn overload_runs_at_max() {
        let p = policy();
        let op = p.select(MediaKind::MpegVideo, 32.0, 30.0).unwrap();
        assert!((op.freq_mhz - 221.2).abs() < 1e-9);
    }

    #[test]
    fn voltage_follows_frequency() {
        let p = policy();
        let lo = p.select(MediaKind::Mp3Audio, 14.0, 215.0).unwrap();
        let hi = p.select(MediaKind::Mp3Audio, 38.0, 80.0).unwrap();
        assert!(lo.voltage_v < hi.voltage_v);
    }

    #[test]
    fn memory_bound_app_needs_higher_frequency_for_same_rate() {
        // For the same required rate fraction, the saturating MP3 curve
        // needs a relatively higher clock than the linear MPEG curve at
        // the low end — but at mid-performance the memory-bound curve
        // retains more performance per MHz. Just verify both are
        // internally consistent.
        let p = policy();
        let op_mp3 = p.select(MediaKind::Mp3Audio, 20.0, 100.0).unwrap();
        let op_mpeg = p.select(MediaKind::MpegVideo, 20.0, 100.0).unwrap();
        let req_mp3 = framequeue::mm1::service_rate_for_delay(20.0, 0.2).unwrap();
        let req_mpeg = framequeue::mm1::service_rate_for_delay(20.0, 0.1).unwrap();
        assert!(p.achieved_rate(MediaKind::Mp3Audio, op_mp3, 100.0) >= req_mp3 - 1e-6);
        assert!(p.achieved_rate(MediaKind::MpegVideo, op_mpeg, 100.0) >= req_mpeg - 1e-6);
    }

    #[test]
    fn stretch_is_inverse_performance() {
        let p = policy();
        let min = p.cpu().min_operating_point();
        assert!(p.stretch(MediaKind::MpegVideo, min) > 3.0); // near-linear curve
        assert!(p.stretch(MediaKind::Mp3Audio, min) < 3.0); // memory-bound saturates
        let max = p.cpu().max_operating_point();
        assert!((p.stretch(MediaKind::Mp3Audio, max) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        let p = policy();
        assert!(p.select(MediaKind::Mp3Audio, 0.0, 100.0).is_err());
        assert!(p.select(MediaKind::Mp3Audio, 10.0, -1.0).is_err());
    }

    #[test]
    fn target_delay_accessor() {
        let p = policy();
        assert_eq!(p.target_delay_s(MediaKind::Mp3Audio), 0.2);
        assert_eq!(p.target_delay_s(MediaKind::MpegVideo), 0.1);
    }

    #[test]
    fn mg1_with_unit_scv_matches_mm1() {
        let mm1 = policy();
        let mg1 = policy()
            .with_queue_model(QueueModel::Mg1 { scv: 1.0 })
            .unwrap();
        for (arr, cap) in [(14.0, 215.0), (24.0, 90.0)] {
            let a = mm1.select(MediaKind::MpegVideo, arr, cap).unwrap();
            let b = mg1.select(MediaKind::MpegVideo, arr, cap).unwrap();
            assert_eq!(a.freq_mhz, b.freq_mhz);
        }
    }

    #[test]
    fn low_variance_service_allows_lower_frequency() {
        let mm1 = policy();
        let mg1 = policy()
            .with_queue_model(QueueModel::Mg1 { scv: 0.1 })
            .unwrap();
        // Near-deterministic decode times need less headroom.
        let a = mm1.select(MediaKind::MpegVideo, 24.0, 90.0).unwrap();
        let b = mg1.select(MediaKind::MpegVideo, 24.0, 90.0).unwrap();
        assert!(b.freq_mhz <= a.freq_mhz);
    }

    #[test]
    fn queue_model_validates_scv() {
        assert!(policy()
            .with_queue_model(QueueModel::Mg1 { scv: -1.0 })
            .is_err());
        assert!(policy()
            .with_queue_model(QueueModel::Mg1 { scv: f64::NAN })
            .is_err());
    }
}
