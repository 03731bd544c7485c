//! Property-based tests (proptest) over the workspace's core invariants.

use detect::changepoint::{ChangePointConfig, ChangePointDetector};
use detect::estimator::RateEstimator;
use framequeue::FrameBuffer;
use hardware::perf::PerformanceCurve;
use hardware::CpuModel;
use proptest::prelude::*;
use simcore::rng::SimRng;
use simcore::stats::OnlineStats;
use simcore::time::{SimDuration, SimTime};
use workload::schedule::RateSchedule;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated arrivals are sorted, in range, and roughly match the
    /// scheduled mean rate for any piecewise-constant schedule.
    #[test]
    fn arrivals_follow_any_schedule(
        seed in 0u64..1_000,
        segs in prop::collection::vec((10.0f64..60.0, 5.0f64..50.0), 1..5),
    ) {
        let schedule = RateSchedule::new(
            segs.iter().map(|&(d, r)| (d, r)).collect()
        ).expect("positive segments");
        let mut rng = SimRng::seed_from(seed);
        let arrivals = workload::arrivals::generate(&schedule, &mut rng);
        let total = schedule.total_duration();
        prop_assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(arrivals.iter().all(|&t| (0.0..total).contains(&t)));
        let expected = schedule.expected_events();
        // Poisson counts: allow 5 sigma.
        let sigma = expected.sqrt();
        prop_assert!(
            (arrivals.len() as f64 - expected).abs() < 5.0 * sigma + 5.0,
            "count {} vs expected {expected}", arrivals.len()
        );
    }

    /// M/M/1 inversion: the service rate computed for any target delay
    /// reproduces that delay.
    #[test]
    fn mm1_inversion_roundtrips(
        arrival in 0.1f64..500.0,
        delay in 0.001f64..10.0,
    ) {
        let service = framequeue::mm1::service_rate_for_delay(arrival, delay)
            .expect("valid inputs");
        let w = framequeue::mm1::mean_delay(arrival, service).expect("stable");
        prop_assert!((w - delay).abs() / delay < 1e-9);
    }

    /// M/G/1 delay is monotone in the service-time variance.
    #[test]
    fn mg1_delay_monotone_in_scv(
        arrival in 1.0f64..50.0,
        headroom in 1.05f64..5.0,
        scv_lo in 0.0f64..1.0,
        extra in 0.1f64..3.0,
    ) {
        let service = arrival * headroom;
        let lo = framequeue::mg1::mean_delay(arrival, service, scv_lo).expect("stable");
        let hi = framequeue::mg1::mean_delay(arrival, service, scv_lo + extra).expect("stable");
        prop_assert!(hi >= lo);
    }

    /// FrameBuffer preserves FIFO order and conservation for arbitrary
    /// push/pop interleavings.
    #[test]
    fn frame_buffer_fifo_and_conservation(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut buf: FrameBuffer<u64> = FrameBuffer::new();
        let mut t = SimTime::ZERO;
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for push in ops {
            t += SimDuration::from_micros(13);
            if push {
                buf.push(t, next_push);
                next_push += 1;
            } else if let Some((v, _)) = buf.pop(t) {
                prop_assert_eq!(v, next_pop);
                next_pop += 1;
            }
        }
        prop_assert_eq!(buf.total_pushed() - buf.total_popped(), buf.len() as u64);
        prop_assert_eq!(buf.total_pushed(), next_push);
    }

    /// Performance-curve inversion is exact for any stall fraction.
    #[test]
    fn perf_curve_inversion(mem_fraction in 0.0f64..0.9, target in 0.0f64..1.0) {
        let cpu = CpuModel::sa1100();
        let curve = PerformanceCurve::from_memory_model(&cpu, mem_fraction)
            .expect("valid fraction");
        let f = curve.frequency_for_performance(target);
        let p = curve.performance_at(f);
        // Either exact, or clamped at an endpoint of the feasible range.
        let p_min = curve.performance_at(59.0);
        let p_max = curve.performance_at(221.2);
        if target >= p_min && target <= p_max {
            prop_assert!((p - target).abs() < 1e-9, "target {target}, got {p}");
        } else {
            prop_assert!(p == p_min || p == p_max);
        }
    }

    /// OnlineStats merge is equivalent to sequential accumulation for any
    /// split point.
    #[test]
    fn online_stats_merge_any_split(
        data in prop::collection::vec(-1e6f64..1e6, 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        prop_assert!(
            (a.sample_variance() - all.sample_variance()).abs()
                <= 1e-5 * (1.0 + all.sample_variance())
        );
    }
}

proptest! {
    // Expensive cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The change-point detector never panics and keeps a positive rate
    /// on arbitrary positive sample streams (including adversarial
    /// magnitudes).
    #[test]
    fn detector_is_total_on_positive_streams(
        samples in prop::collection::vec(1e-6f64..1e3, 1..400),
    ) {
        let config = ChangePointConfig {
            window: 40,
            check_interval: 4,
            k_step: 4,
            calibration_trials: 200,
            ..ChangePointConfig::default()
        };
        let mut det = ChangePointDetector::new(1.0, config).expect("valid config");
        for x in samples {
            det.observe(x);
            prop_assert!(det.current_rate() > 0.0);
            prop_assert!(det.current_rate().is_finite());
        }
    }

    /// The full simulator conserves frames and time for random governor
    /// choices and seeds.
    #[test]
    fn simulator_conserves_frames_and_time(seed in 0u64..50, gov_pick in 0u8..3) {
        use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
        use powermgr::scenario::Attachments;
        let governor = match gov_pick {
            0 => GovernorKind::Ideal,
            1 => GovernorKind::ExpAverage { gain: 0.3 },
            _ => GovernorKind::MaxPerformance,
        };
        let config = SystemConfig {
            governor,
            dpm: DpmKind::BreakEven,
            ..SystemConfig::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let trace = workload::Mp3Clip::table2()[(seed % 6) as usize].generate(&mut rng);
        let n = trace.frames().len() as u64;
        let report = powermgr::scenario::run_trace(&trace, &config, seed, Attachments::default())
            .expect("runs");
        prop_assert_eq!(report.frames_completed, n);
        prop_assert!(report.total_energy_j() > 0.0);
        let mode_total: f64 = powermgr::metrics::ModeKey::ALL
            .iter()
            .map(|&m| report.mode_secs(m))
            .sum();
        prop_assert!((mode_total - report.duration_secs).abs() < 1.0);
    }
}
