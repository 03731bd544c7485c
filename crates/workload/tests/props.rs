//! Property-based tests for the workload generators.

use proptest::prelude::*;
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use workload::schedule::RateSchedule;
use workload::session::{ClipChoice, Session, SessionEntry};
use workload::{mp3, MediaKind, Mp3Clip, MpegClip, Trace};

/// `RateSchedule::rate_at`'s from-the-start segment walk, as it stood
/// before the schedule cursor took over.
fn scan_rate(schedule: &RateSchedule, t: f64) -> f64 {
    let mut elapsed = 0.0;
    for s in schedule.segments() {
        elapsed += s.duration;
        if t < elapsed {
            return s.rate;
        }
    }
    schedule.segments().last().expect("non-empty").rate
}

/// The arrival generator's from-the-start boundary walk
/// (`next_boundary`), which the schedule cursor replaced.
fn scan_boundary(schedule: &RateSchedule, t: f64) -> f64 {
    let mut elapsed = 0.0;
    for s in schedule.segments() {
        elapsed += s.duration;
        if t < elapsed {
            return elapsed;
        }
    }
    elapsed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any MP3 sequence over valid labels produces a well-formed trace:
    /// sorted, indexed, correct duration, correct per-clip ground truth.
    #[test]
    fn mp3_sequences_are_well_formed(
        picks in prop::collection::vec(0usize..6, 1..6),
        seed in 0u64..1_000,
    ) {
        let labels: String = picks.iter().map(|&i| (b'A' + i as u8) as char).collect();
        let mut rng = SimRng::seed_from(seed);
        let trace = mp3::sequence(&labels, &mut rng).expect("valid labels");
        let expected_duration: f64 = picks
            .iter()
            .map(|&i| Mp3Clip::table2()[i].duration_secs)
            .sum();
        prop_assert!((trace.duration_secs() - expected_duration).abs() < 1e-6);
        for (i, f) in trace.frames().iter().enumerate() {
            prop_assert_eq!(f.index, i as u64);
            prop_assert!(f.is_valid());
            prop_assert_eq!(f.kind, MediaKind::Mp3Audio);
        }
        prop_assert!(trace
            .frames()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// Synthesized MPEG clips cover their duration with valid scenes and
    /// stay inside the paper's rate ranges for any length and seed.
    #[test]
    fn synthesized_mpeg_clips_in_range(
        duration in 60.0f64..2_000.0,
        seed in 0u64..1_000,
    ) {
        let clip = MpegClip::synthesize("prop", duration, seed);
        prop_assert!((clip.duration_secs() - duration).abs() < 1e-6);
        for seg in clip.arrival_schedule().segments() {
            prop_assert!((9.0..=32.0).contains(&seg.rate));
        }
        for seg in clip.service_schedule().segments() {
            prop_assert!((45.0..=90.0).contains(&seg.rate));
        }
    }

    /// Trace sequencing preserves frame counts, ordering and total
    /// duration for any combination of clips and gaps.
    #[test]
    fn sequencing_conserves_frames(
        gaps in prop::collection::vec(0.0f64..100.0, 1..4),
        seed in 0u64..500,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let parts: Vec<Trace> = gaps
            .iter()
            .enumerate()
            .map(|(i, _)| Mp3Clip::table2()[i % 6].generate(&mut rng))
            .collect();
        let items: Vec<(SimDuration, Trace)> = gaps
            .iter()
            .zip(parts.iter())
            .map(|(&g, t)| (SimDuration::from_secs_f64(g), t.clone()))
            .collect();
        let combined = Trace::sequence_with_gaps(&items);
        let total_frames: usize = parts.iter().map(|t| t.frames().len()).sum();
        prop_assert_eq!(combined.frames().len(), total_frames);
        let expected_duration: f64 = gaps.iter().sum::<f64>()
            + parts.iter().map(Trace::duration_secs).sum::<f64>();
        prop_assert!((combined.duration_secs() - expected_duration).abs() < 1e-6);
        prop_assert!(combined
            .frames()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// Custom sessions generate traces whose duration equals clips plus
    /// gaps, for any gap choices.
    #[test]
    fn custom_sessions_account_for_gaps(
        gap_secs in prop::collection::vec(1.0f64..500.0, 1..4),
        seed in 0u64..200,
    ) {
        let entries: Vec<SessionEntry> = gap_secs
            .iter()
            .enumerate()
            .map(|(i, &g)| SessionEntry {
                idle_before: SimDuration::from_secs_f64(g),
                clip: ClipChoice::Mp3((b'A' + (i % 6) as u8) as char),
            })
            .collect();
        let session = Session::new(entries).expect("non-empty");
        let mut rng = SimRng::seed_from(seed);
        let trace = session.generate(&mut rng).expect("valid clips");
        let clips: f64 = (0..gap_secs.len())
            .map(|i| Mp3Clip::table2()[i % 6].duration_secs)
            .sum();
        let expected = clips + gap_secs.iter().sum::<f64>();
        prop_assert!((trace.duration_secs() - expected).abs() < 1e-6);
    }

    /// A forward cursor answers sorted queries bit for bit like the
    /// from-the-start scans, on every exact segment end, one ulp below
    /// it, and past the schedule's end.
    #[test]
    fn schedule_cursor_matches_the_from_the_start_scans(
        segs in prop::collection::vec((1e-6f64..50.0, 0.5f64..200.0), 1..41),
        fracs in prop::collection::vec(0.0f64..1.2, 0..60),
    ) {
        let schedule = RateSchedule::new(segs).expect("valid segments");
        let total = schedule.total_duration();
        let mut times: Vec<f64> = fracs.iter().map(|f| f * total).collect();
        let mut end = 0.0;
        for s in schedule.segments() {
            end += s.duration;
            times.extend([end, f64::from_bits(end.to_bits() - 1)]);
        }
        times.extend([0.0, 2.0 * total]);
        times.sort_by(f64::total_cmp);
        let mut cursor = schedule.cursor();
        for t in times {
            let rate = cursor.rate(t);
            prop_assert_eq!(rate.to_bits(), scan_rate(&schedule, t).to_bits(), "t = {}", t);
            prop_assert_eq!(rate.to_bits(), schedule.rate_at(t).to_bits(), "t = {}", t);
            prop_assert_eq!(
                cursor.segment_end(t).to_bits(),
                scan_boundary(&schedule, t).to_bits(),
                "t = {}",
                t
            );
        }
    }

    /// Schedule rate lookups always return one of the segment rates, and
    /// the mean rate is within the segment extremes.
    #[test]
    fn schedule_rates_within_bounds(
        segs in prop::collection::vec((1.0f64..50.0, 0.5f64..200.0), 1..6),
        t_frac in 0.0f64..1.5,
    ) {
        let schedule = RateSchedule::new(segs.clone()).expect("valid segments");
        let t = schedule.total_duration() * t_frac;
        let r = schedule.rate_at(t);
        prop_assert!(segs.iter().any(|&(_, rate)| (rate - r).abs() < 1e-12));
        let lo = segs.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let hi = segs.iter().map(|&(_, r)| r).fold(0.0, f64::max);
        prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&schedule.mean_rate()));
    }
}
