//! MPEG2 video clips (paper Table 4 workloads).
//!
//! In contrast to MP3 audio, MPEG video decode times vary strongly
//! frame-to-frame: the paper cites a factor of three in cycles between
//! frames (refs [15, 16]) driven by the I/P/B group-of-pictures structure
//! and scene content, and arrival rates that vary between 9 and 32
//! frames/second over the wireless link.
//!
//! A synthetic [`MpegClip`] therefore carries two piecewise-constant
//! schedules — the arrival rate (network/scene changes) and the mean
//! decode rate (scene complexity) — plus a 12-frame `IBBPBBPBBPBB` GOP
//! pattern whose per-type work multipliers span the ≈3× range.
//!
//! The two evaluation clips are `football` (875 s, fast cuts, frequent
//! rate changes) and `terminator2` (1200 s, longer scenes), matching the
//! clip names and lengths of the paper's Table 4.

use crate::arrivals;
use crate::frame::{FrameRecord, MediaKind};
use crate::schedule::RateSchedule;
use crate::trace::Trace;
use simcore::rng::SimRng;
use simcore::time::SimTime;

/// The 12-frame group-of-pictures pattern `IBBPBBPBBPBB`, as relative
/// decode-work multipliers **before normalization**: I frames are the most
/// expensive, B frames the cheapest.
pub const GOP_MULTIPLIERS: [f64; 12] = [
    1.6, 0.65, 0.65, 1.0, 0.65, 0.65, 1.0, 0.65, 0.65, 1.0, 0.65, 0.65,
];

/// Relative half-width of the per-frame uniform work jitter (±15 %).
pub const FRAME_JITTER: f64 = 0.15;

/// One synthetic MPEG2 video clip.
#[derive(Debug, Clone, PartialEq)]
pub struct MpegClip {
    name: String,
    arrival_schedule: RateSchedule,
    service_schedule: RateSchedule,
}

impl MpegClip {
    /// Builds a clip from explicit schedules.
    ///
    /// # Panics
    ///
    /// Panics if the two schedules differ in total duration by more than
    /// one millisecond — arrivals and content complexity must cover the
    /// same timeline.
    #[must_use]
    pub fn new(name: &str, arrival_schedule: RateSchedule, service_schedule: RateSchedule) -> Self {
        assert!(
            (arrival_schedule.total_duration() - service_schedule.total_duration()).abs() < 1e-3,
            "arrival and service schedules must span the same duration"
        );
        MpegClip {
            name: name.to_owned(),
            arrival_schedule,
            service_schedule,
        }
    }

    /// The 875-second football clip: fast cuts, arrival rate swinging
    /// across 9–32 fr/s, scene complexity changing every 30–90 s.
    #[must_use]
    pub fn football() -> Self {
        Self::synthesize("football", 875.0, 0xF00B)
    }

    /// The 1200-second Terminator 2 clip: longer scenes, same rate ranges.
    #[must_use]
    pub fn terminator2() -> Self {
        Self::synthesize("terminator2", 1200.0, 0x7E42)
    }

    /// Procedurally generates a clip: scene lengths 30–90 s, arrival rates
    /// uniform in 9–32 fr/s, decode rates (at maximum frequency) uniform
    /// in 45–90 fr/s. The construction is deterministic in `seed`.
    #[must_use]
    pub fn synthesize(name: &str, duration_secs: f64, seed: u64) -> Self {
        assert!(
            duration_secs.is_finite() && duration_secs > 0.0,
            "duration must be positive"
        );
        let mut rng = SimRng::seed_from(seed).fork("mpeg-scenes");
        let mut arrival = Vec::new();
        let mut service = Vec::new();
        let mut remaining = duration_secs;
        while remaining > 0.0 {
            let scene = f64::min(30.0 + 60.0 * rng.next_f64(), remaining);
            arrival.push((scene, 9.0 + 23.0 * rng.next_f64()));
            service.push((scene, 45.0 + 45.0 * rng.next_f64()));
            remaining -= scene;
        }
        MpegClip::new(
            name,
            RateSchedule::new(arrival).expect("synthesized segments are valid"),
            RateSchedule::new(service).expect("synthesized segments are valid"),
        )
    }

    /// The clip name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clip length, seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.arrival_schedule.total_duration()
    }

    /// The ground-truth arrival-rate schedule.
    #[must_use]
    pub fn arrival_schedule(&self) -> &RateSchedule {
        &self.arrival_schedule
    }

    /// The ground-truth decode-rate schedule (at maximum frequency).
    #[must_use]
    pub fn service_schedule(&self) -> &RateSchedule {
        &self.service_schedule
    }

    /// Generates a frame trace for this clip.
    ///
    /// Per-frame decode work at maximum frequency is
    /// `1/rate · gop_multiplier · jitter`, with the GOP multipliers
    /// normalized so the mean decode rate matches the schedule.
    #[must_use]
    pub fn generate(&self, rng: &mut SimRng) -> Trace {
        let gop_mean: f64 = GOP_MULTIPLIERS.iter().sum::<f64>() / GOP_MULTIPLIERS.len() as f64;
        let arrivals = arrivals::generate(&self.arrival_schedule, rng);
        let mut frames = Vec::with_capacity(arrivals.len());
        // Arrivals are sorted, so one forward cursor per schedule answers
        // every frame's rate lookup.
        let mut service_rates = self.service_schedule.cursor();
        let mut arrival_rates = self.arrival_schedule.cursor();
        for (i, t) in arrivals.iter().enumerate() {
            let service_rate = service_rates.rate(*t);
            let gop = GOP_MULTIPLIERS[i % GOP_MULTIPLIERS.len()] / gop_mean;
            let jitter = 1.0 + FRAME_JITTER * (2.0 * rng.next_f64() - 1.0);
            frames.push(FrameRecord {
                index: i as u64,
                kind: MediaKind::MpegVideo,
                arrival: SimTime::from_secs_f64(*t),
                work: gop * jitter / service_rate,
                true_arrival_rate: arrival_rates.rate(*t),
                true_service_rate: service_rate,
            });
        }
        let end = SimTime::from_secs_f64(self.duration_secs());
        Trace::new(frames, end).expect("generated frames are sorted and valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_lengths_match_paper() {
        assert!((MpegClip::football().duration_secs() - 875.0).abs() < 1e-6);
        assert!((MpegClip::terminator2().duration_secs() - 1200.0).abs() < 1e-6);
    }

    #[test]
    fn arrival_rates_within_paper_range() {
        for clip in [MpegClip::football(), MpegClip::terminator2()] {
            for s in clip.arrival_schedule().segments() {
                assert!(
                    (9.0..=32.0).contains(&s.rate),
                    "{} rate {}",
                    clip.name(),
                    s.rate
                );
            }
        }
    }

    #[test]
    fn decode_work_spans_about_3x() {
        let clip = MpegClip::football();
        let trace = clip.generate(&mut SimRng::seed_from(1));
        // Compare frames within one scene (constant service rate): take
        // the normalized work w·rate.
        let normalized: Vec<f64> = trace
            .frames()
            .iter()
            .map(|f| f.work * f.true_service_rate)
            .collect();
        let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = normalized.iter().cloned().fold(0.0, f64::max);
        let span = max / min;
        assert!(
            (2.0..5.0).contains(&span),
            "frame-to-frame work span {span} should be ≈3x"
        );
    }

    #[test]
    fn gop_mean_is_normalized_out() {
        let clip = MpegClip::football();
        let trace = clip.generate(&mut SimRng::seed_from(2));
        // Mean decode time should track 1/service_rate per scene.
        let mean_norm: f64 = trace
            .frames()
            .iter()
            .map(|f| f.work * f.true_service_rate)
            .sum::<f64>()
            / trace.frames().len() as f64;
        assert!(
            (mean_norm - 1.0).abs() < 0.05,
            "mean normalized work {mean_norm}"
        );
    }

    #[test]
    fn schedules_are_ground_truth_for_frames() {
        let clip = MpegClip::terminator2();
        let trace = clip.generate(&mut SimRng::seed_from(3));
        for f in trace.frames().iter().step_by(97) {
            let t = f.arrival.as_secs_f64();
            assert_eq!(f.true_arrival_rate, clip.arrival_schedule().rate_at(t));
            assert_eq!(f.true_service_rate, clip.service_schedule().rate_at(t));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(MpegClip::football(), MpegClip::football());
        let a = MpegClip::football().generate(&mut SimRng::seed_from(4));
        let b = MpegClip::football().generate(&mut SimRng::seed_from(4));
        assert_eq!(a, b);
    }

    #[test]
    fn clips_have_multiple_scenes() {
        assert!(MpegClip::football().arrival_schedule().segments().len() > 8);
        assert!(!MpegClip::football()
            .service_schedule()
            .change_points()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "same duration")]
    fn mismatched_schedules_panic() {
        let a = RateSchedule::constant(20.0, 10.0).unwrap();
        let s = RateSchedule::constant(60.0, 20.0).unwrap();
        let _ = MpegClip::new("bad", a, s);
    }

    #[test]
    fn frame_kind_is_video() {
        let clip = MpegClip::football();
        let trace = clip.generate(&mut SimRng::seed_from(5));
        assert!(trace
            .frames()
            .iter()
            .all(|f| f.kind == MediaKind::MpegVideo));
    }
}
