//! Differential suite for the assertion monitors: the *online* verdict
//! (an [`AssertionMonitor`] fed event-by-event while the simulator
//! runs) must agree **bit-for-bit** with the *offline* verdict
//! ([`AssertionMonitor::check`] replaying the recorded trace — the same
//! entry point `tracecat assert` uses), for every combination of seed,
//! governor, fault preset, and calibration worker count.
//!
//! Any divergence means the monitor's state machines depend on
//! something other than the event stream (allocation, ordering,
//! threading) — exactly the bug class this suite exists to catch.

use powermgr::config::{DpmKind, GovernorKind, SupervisorConfig, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use simcore::json::ToJson;
use trace::{
    AssertionConfig, AssertionMonitor, AssertionReport, DelayBound, OccupancyBound,
    OscillationBound, RingSink,
};

/// Enough capacity for every event of an `mp3:AB` run; the tests assert
/// nothing was dropped, so the offline replay sees the full stream.
const RING_CAPACITY: usize = 1 << 21;

fn config_for(governor: &GovernorKind, preset: faults::FaultPreset, seed: u64) -> SystemConfig {
    let faults = preset.spec(seed);
    let (supervisor, buffer_capacity) = if faults.is_some() {
        (Some(SupervisorConfig::default()), Some(64))
    } else {
        (None, None)
    };
    SystemConfig {
        governor: governor.clone(),
        dpm: DpmKind::parse("break-even").expect("known policy"),
        faults,
        supervisor,
        buffer_capacity,
        ..SystemConfig::default()
    }
}

/// A deliberately tight invariant set so violating traces are part of
/// the differential corpus, not just clean ones: a delay bound most
/// frames miss, a one-switch oscillation budget, a zero-occupancy
/// watchdog.
fn strict_config() -> AssertionConfig {
    AssertionConfig {
        delay: Some(DelayBound {
            bound_s: 1e-6,
            tolerance: 0.0,
        }),
        oscillation: Some(OscillationBound {
            max_switches: 1,
            window_s: 10.0,
        }),
        occupancy: Some(OccupancyBound { max_occupancy: 0 }),
        energy_monotone: true,
    }
}

/// Runs one case online (monitor attached to the live run) and offline
/// (check over the recorded trace) and requires bit-identical verdicts.
/// Returns the shared verdict for cross-case assertions.
fn one_case(
    workload: &Workload,
    governor: &GovernorKind,
    preset: faults::FaultPreset,
    seed: u64,
    assertions: &AssertionConfig,
) -> AssertionReport {
    let config = config_for(governor, preset, seed);
    let mut sink = RingSink::new(RING_CAPACITY);
    let mut monitor = AssertionMonitor::new(assertions).expect("valid config");
    let attach = Attachments {
        shared: None,
        sink: Some(&mut sink),
        monitor: Some(&mut monitor),
    };
    let report = workload
        .run(&config, seed, attach)
        .expect("monitored run succeeds");
    assert_eq!(sink.dropped(), 0, "ring too small for the full trace");

    let online = report.assertions.expect("monitor attached");
    let offline = AssertionMonitor::check(assertions, &sink.events())
        .expect("recorded trace is well-formed and time-ordered");
    assert_eq!(
        online.to_json().dump(),
        offline.to_json().dump(),
        "online/offline verdicts diverge: {workload} {} {preset:?} seed {seed}",
        governor.label(),
    );
    assert_eq!(online, offline);
    online
}

fn governors() -> Vec<GovernorKind> {
    vec![
        GovernorKind::quick_change_point(),
        GovernorKind::Ideal,
        GovernorKind::MaxPerformance,
    ]
}

#[test]
fn online_and_offline_verdicts_agree_across_the_matrix() {
    let workload = Workload::Mp3("AB".to_owned());
    let paper = AssertionConfig::paper();
    let strict = strict_config();
    let mut violating_cases = 0usize;
    for governor in &governors() {
        for preset in [faults::FaultPreset::Off, faults::FaultPreset::Wlan] {
            for seed in [1u64, 42] {
                let clean = one_case(&workload, governor, preset, seed, &paper);
                assert!(
                    clean.delay.expect("delay enabled").checked > 100,
                    "delay invariant saw too few frames"
                );
                let strict_verdict = one_case(&workload, governor, preset, seed, &strict);
                if !strict_verdict.is_clean() {
                    violating_cases += 1;
                }
            }
        }
    }
    // The strict config must actually produce violating traces, or the
    // differential corpus never exercises the violation bookkeeping.
    assert!(
        violating_cases > 0,
        "strict invariant set tripped on no case — corpus is all-clean"
    );
}

/// Worker-thread count must never leak into verdicts: threshold
/// calibration parallelism is bit-deterministic, and the monitor sees
/// the same stream regardless.
#[test]
fn verdicts_are_identical_at_jobs_1_2_8() {
    let workload = Workload::Mp3("AB".to_owned());
    let governor = GovernorKind::quick_change_point();
    let strict = strict_config();
    let mut reference: Option<String> = None;
    for jobs in [1usize, 2, 8] {
        simcore::par::set_default_jobs(jobs);
        let verdict = one_case(&workload, &governor, faults::FaultPreset::Wlan, 42, &strict);
        let bytes = verdict.to_json().dump();
        match &reference {
            None => reference = Some(bytes),
            Some(want) => assert_eq!(&bytes, want, "verdict changed at jobs {jobs}"),
        }
    }
}

/// Nightly many-seed sweep (`cargo test -- --include-ignored`): the
/// full matrix over 16 seeds per cell.
#[test]
#[ignore = "nightly: many-seed differential sweep"]
fn nightly_many_seed_differential_sweep() {
    let workload = Workload::Mp3("AB".to_owned());
    let paper = AssertionConfig::paper();
    let strict = strict_config();
    for governor in &governors() {
        for preset in [faults::FaultPreset::Off, faults::FaultPreset::Wlan] {
            for seed in 0u64..16 {
                one_case(&workload, governor, preset, seed, &paper);
                one_case(&workload, governor, preset, seed, &strict);
            }
        }
    }
}
