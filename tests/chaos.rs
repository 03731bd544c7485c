//! Chaos harness: randomized fault-injection sweeps over the full
//! simulator stack.
//!
//! Every run must terminate without panicking, keep its books balanced
//! (every generated frame is completed or accounted as dropped; metered
//! mode time covers the run), keep failure ratios inside [0, 1], and be
//! byte-identical when replayed with the same seed.

use faults::{FaultSpec, FaultWindow, OverrunSpec};
use powermgr::config::{DpmKind, GovernorKind, SupervisorConfig, SystemConfig};
use powermgr::metrics::ModeKey;
use powermgr::scenario::{Attachments, Workload};
use powermgr::SimReport;
use simcore::json::ToJson;
use simcore::rng::SimRng;

/// Runs `workload` (the CLI's `--workload` form) with no attachments.
fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
    Workload::parse(workload)
        .expect("known workload")
        .run(config, seed, Attachments::default())
        .expect("runs")
}

/// A chaos configuration: randomized faults, bounded buffer, supervisor.
fn chaos_config(spec: FaultSpec) -> SystemConfig {
    SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::None,
        faults: Some(spec),
        supervisor: Some(SupervisorConfig::default()),
        buffer_capacity: Some(64),
        ..SystemConfig::default()
    }
}

/// Checks the invariants every chaos run must satisfy.
fn assert_books_balance(report: &SimReport, labels: &str, seed: u64) {
    let ctx = format!("seed {seed} / {labels}: {:?}", report.robustness);

    // Frame accounting: every generated frame either completed, was lost
    // on the (faulty) network, or was shed by the bounded buffer.
    let mut rng = SimRng::seed_from(seed).fork("mp3-sequence");
    let trace = workload::mp3::sequence(labels, &mut rng).expect("known labels");
    let generated = trace.frames().len() as u64;
    let r = &report.robustness;
    assert_eq!(
        report.frames_completed + r.arrivals_dropped + r.frames_dropped,
        generated,
        "frame books don't balance: {ctx}"
    );

    // Time accounting: metered mode residency covers the run.
    let total_mode_secs: f64 = ModeKey::ALL.iter().map(|&m| report.mode_secs(m)).sum();
    assert!(
        (total_mode_secs - report.duration_secs).abs() < 1.0,
        "mode time {total_mode_secs:.3} vs duration {:.3}: {ctx}",
        report.duration_secs
    );
    // Frequency residency is exactly the decode time.
    let freq_total: f64 = report.freq_residency.values().sum();
    assert!(
        (freq_total - report.mode_secs(ModeKey::Decoding)).abs() < 1e-6,
        "freq residency {freq_total:.6} vs decode {:.6}: {ctx}",
        report.mode_secs(ModeKey::Decoding)
    );

    // Energy is finite and non-negative under every fault plan.
    assert!(report.total_energy_j().is_finite(), "{ctx}");
    assert!(report.total_energy_j() >= 0.0, "{ctx}");

    // Ratios stay in [0, 1].
    let miss_ratio = r.deadline_miss_ratio();
    assert!(
        (0.0..=1.0).contains(&miss_ratio),
        "miss {miss_ratio}: {ctx}"
    );
    assert!(r.deadline_misses <= r.deadlines_total, "{ctx}");
    let drop_ratio = (r.arrivals_dropped + r.frames_dropped) as f64 / generated as f64;
    assert!(
        (0.0..=1.0).contains(&drop_ratio),
        "drop {drop_ratio}: {ctx}"
    );

    // Degraded time cannot exceed the run.
    assert!(r.degraded_secs >= 0.0, "{ctx}");
    assert!(r.degraded_secs <= report.duration_secs + 1.0, "{ctx}");
}

/// Randomized fault plans over a bank of seeds: no panic, termination,
/// balanced books.
#[test]
fn randomized_fault_sweep_holds_invariants() {
    for seed in 0..16 {
        let mut rng = SimRng::seed_from(seed).fork("chaos-spec");
        let spec = FaultSpec::randomized(&mut rng);
        let report = Workload::Mp3("ACE".into())
            .run(&chaos_config(spec.clone()), seed, Attachments::default())
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e} (spec {spec:?})"));
        assert_books_balance(&report, "ACE", seed);
    }
}

/// The same seed replays to a byte-identical report, faults included.
#[test]
fn chaos_runs_replay_byte_identical() {
    for seed in [3, 11, 42] {
        let mut rng = SimRng::seed_from(seed).fork("chaos-spec");
        let spec = FaultSpec::randomized(&mut rng);
        let a = run("mp3:ACE", &chaos_config(spec.clone()), seed);
        let b = run("mp3:ACE", &chaos_config(spec), seed);
        assert_eq!(
            a.to_json().dump(),
            b.to_json().dump(),
            "seed {seed} diverged"
        );
    }
}

/// A deterministic fault burst confined to a window: the supervisor must
/// enter degraded mode during the burst and leave once the backlog
/// drains — degraded residency is far below the post-burst remainder of
/// the run, which it would cover if the supervisor were stuck.
#[test]
fn supervisor_enters_and_exits_degraded_mode() {
    let spec = FaultSpec {
        overrun: Some(OverrunSpec {
            prob: 1.0,
            max_factor: 6.0,
        }),
        windows: vec![FaultWindow {
            start_s: 20.0,
            end_s: 60.0,
        }],
        ..FaultSpec::default()
    };
    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::None,
        faults: Some(spec),
        supervisor: Some(SupervisorConfig {
            miss_window: 10,
            miss_ratio_enter: 0.5,
            miss_ratio_exit: 0.1,
            occupancy_enter: 8,
            min_dwell_s: 1.0,
        }),
        ..SystemConfig::default()
    };
    // Three clips ≈ 300 s of audio; the burst covers [20 s, 60 s).
    let report = run("mp3:ACE", &config, 77);
    let r = &report.robustness;
    assert!(r.degraded_entries >= 1, "never degraded: {r:?}");
    assert!(r.degraded_secs > 0.0, "{r:?}");
    // If the supervisor never recovered it would stay degraded from
    // ~20 s to the end (≈ 280 s). Recovery bounds residency near the
    // burst plus drain time.
    assert!(
        r.degraded_secs < 100.0,
        "stuck degraded for {:.1} s of {:.1} s: {r:?}",
        r.degraded_secs,
        report.duration_secs
    );
    assert!(r.deadline_misses > 0, "{r:?}");
}

/// Pathological buffer: zero capacity sheds every frame, yet the run
/// terminates cleanly with the loss fully accounted.
#[test]
fn zero_capacity_buffer_sheds_everything_and_terminates() {
    let config = SystemConfig {
        governor: GovernorKind::MaxPerformance,
        dpm: DpmKind::None,
        buffer_capacity: Some(0),
        ..SystemConfig::default()
    };
    let report = run("mp3:A", &config, 5);
    let mut rng = SimRng::seed_from(5).fork("mp3-sequence");
    let trace = workload::mp3::sequence("A", &mut rng).expect("known labels");
    assert_eq!(report.frames_completed, 0);
    assert_eq!(
        report.robustness.frames_dropped,
        trace.frames().len() as u64
    );
}
