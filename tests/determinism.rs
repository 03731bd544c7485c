//! Reproducibility: everything in the workspace is a pure function of
//! its seed — workload generation, calibration, policy solving, and the
//! full-system simulation.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use powermgr::SimReport;
use simcore::rng::SimRng;
use workload::session::Session;
use workload::{mp3, MpegClip};

/// Runs `workload` (the CLI's `--workload` form) with no attachments.
fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
    Workload::parse(workload)
        .expect("known workload")
        .run(config, seed, Attachments::default())
        .expect("runs")
}

#[test]
fn workload_generation_is_seed_deterministic() {
    let a = mp3::sequence("ACEFBD", &mut SimRng::seed_from(1)).expect("valid labels");
    let b = mp3::sequence("ACEFBD", &mut SimRng::seed_from(1)).expect("valid labels");
    assert_eq!(a, b);
    let c = mp3::sequence("ACEFBD", &mut SimRng::seed_from(2)).expect("valid labels");
    assert_ne!(a, c, "different seeds give different traces");

    let v1 = MpegClip::football().generate(&mut SimRng::seed_from(3));
    let v2 = MpegClip::football().generate(&mut SimRng::seed_from(3));
    assert_eq!(v1, v2);
}

#[test]
fn session_generation_is_seed_deterministic() {
    let make = |seed| {
        let mut rng = SimRng::seed_from(seed);
        let s = Session::table5(&mut rng);
        (s.clone(), s.generate(&mut rng).expect("valid session"))
    };
    assert_eq!(make(10), make(10));
    assert_ne!(make(10).1, make(11).1);
}

#[test]
fn full_simulation_is_bit_reproducible() {
    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        ..SystemConfig::default()
    };
    let a = run("mp3:CEDAFB", &config, 77);
    let b = run("mp3:CEDAFB", &config, 77);
    assert_eq!(a.total_energy_j(), b.total_energy_j());
    assert_eq!(a.mean_frame_delay_s(), b.mean_frame_delay_s());
    assert_eq!(a.freq_switches, b.freq_switches);
    assert_eq!(a.rate_changes, b.rate_changes);
    assert_eq!(a.sleeps, b.sleeps);
}

#[test]
fn fault_injected_simulation_is_bit_reproducible() {
    use faults::{BurstLossSpec, FaultSpec, JitterSpec, OverrunSpec, SwitchFaultSpec};
    use powermgr::config::SupervisorConfig;
    use simcore::json::ToJson;
    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        faults: Some(FaultSpec {
            burst_loss: Some(BurstLossSpec {
                enter_prob: 0.05,
                exit_prob: 0.2,
                drop_prob: 0.7,
            }),
            jitter: Some(JitterSpec {
                prob: 0.1,
                max_secs: 0.1,
            }),
            overrun: Some(OverrunSpec {
                prob: 0.2,
                max_factor: 3.0,
            }),
            switch_fault: Some(SwitchFaultSpec {
                fail_prob: 0.3,
                max_retries: 2,
            }),
            ..FaultSpec::default()
        }),
        supervisor: Some(SupervisorConfig::default()),
        buffer_capacity: Some(64),
        ..SystemConfig::default()
    };
    let a = run("mp3:CEDAFB", &config, 78);
    let b = run("mp3:CEDAFB", &config, 78);
    // Byte-identical serialized reports, robustness counters included.
    assert_eq!(a.to_json().dump(), b.to_json().dump());
    assert!(!a.robustness.is_quiet(), "{:?}", a.robustness);
}

#[test]
fn fault_injection_leaves_clean_runs_untouched() {
    use faults::FaultSpec;
    // A present-but-empty fault spec draws from its own forked RNG
    // streams only, so a clean run's trajectory is identical with and
    // without the (inactive) injector wired in.
    let clean = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        ..SystemConfig::default()
    };
    let wired = SystemConfig {
        faults: Some(FaultSpec::default()),
        ..clean.clone()
    };
    let a = run("mp3:CEDAFB", &clean, 79);
    let b = run("mp3:CEDAFB", &wired, 79);
    assert_eq!(a.total_energy_j(), b.total_energy_j());
    assert_eq!(a.mean_frame_delay_s(), b.mean_frame_delay_s());
    assert_eq!(a.freq_switches, b.freq_switches);
    assert_eq!(a.sleeps, b.sleeps);
    assert_eq!(a.wakes, b.wakes);
    // Robustness stays quiet apart from deadline bookkeeping, which is
    // armed only when a fault spec or supervisor is configured.
    assert_eq!(a.robustness.deadlines_total, 0);
    assert!(b.robustness.deadlines_total > 0);
    assert_eq!(b.robustness.deadline_misses, 0);
    assert_eq!(b.robustness.frames_dropped, 0);
    assert_eq!(b.robustness.arrivals_dropped, 0);
}

#[test]
fn different_seeds_change_stochastic_outcomes() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    let a = run("mp3:AF", &config, 1);
    let b = run("mp3:AF", &config, 2);
    assert_ne!(a.total_energy_j(), b.total_energy_j());
}

#[test]
fn calibration_is_bit_identical_across_job_counts() {
    // The parallel engine's core contract: thread count changes
    // wall-clock only, never a single bit of any result.
    use detect::calibrate::{default_ratios, CalibrationConfig, ThresholdTable};
    use simcore::par::Jobs;

    let config = CalibrationConfig {
        trials: 300,
        ..CalibrationConfig::default()
    };
    let table_at = |jobs| {
        ThresholdTable::calibrate_jobs(
            &default_ratios(),
            config,
            &mut SimRng::seed_from(0xD15C0),
            Jobs::Count(jobs),
        )
        .expect("valid calibration")
    };
    let sequential = table_at(1);
    for jobs in [2, 4] {
        let parallel = table_at(jobs);
        assert_eq!(sequential, parallel, "jobs={jobs}");
        for (s, p) in sequential.entries().iter().zip(parallel.entries()) {
            assert_eq!(s.0.to_bits(), p.0.to_bits());
            assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
    }
}

#[test]
fn simulation_report_is_bit_identical_across_job_counts() {
    // A full change-point run (calibration inside) re-run after flipping
    // the process default job count: identical JSON reports.
    use simcore::json::ToJson;
    use simcore::par::set_default_jobs;

    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    set_default_jobs(1);
    let a = run("mp3:A", &config, 17);
    set_default_jobs(4);
    let b = run("mp3:A", &config, 17);
    set_default_jobs(0);
    assert_eq!(a.to_json().dump(), b.to_json().dump());
}

#[test]
fn traced_run_is_byte_identical_across_job_counts() {
    // Tracing rides on the simulation's deterministic event order, so
    // the serialized JSONL stream — not just the report — must be
    // byte-for-byte identical at any worker-thread count.
    use simcore::par::set_default_jobs;
    use trace::{JsonlSink, TraceSink};

    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        ..SystemConfig::default()
    };
    let traced_bytes = |jobs: usize| {
        set_default_jobs(jobs);
        let mut sink = JsonlSink::new(Vec::new());
        let report = Workload::Mp3("A".into())
            .run(
                &config,
                18,
                Attachments {
                    sink: Some(&mut sink),
                    ..Attachments::default()
                },
            )
            .expect("runs");
        sink.finish().expect("in-memory write");
        (sink.into_inner(), report)
    };
    let (bytes_1, report_1) = traced_bytes(1);
    let (bytes_4, report_4) = traced_bytes(4);
    set_default_jobs(0);
    assert!(!bytes_1.is_empty());
    assert_eq!(bytes_1, bytes_4, "traced JSONL differs between job counts");
    use simcore::json::ToJson;
    assert_eq!(report_1.to_json().dump(), report_4.to_json().dump());
    // And the stream parses back into events that replay to the report.
    let events = trace::parse_jsonl(&String::from_utf8(bytes_1).expect("utf8")).expect("parses");
    let summary = trace::replay(&events);
    assert_eq!(summary.frames_completed, report_1.frames_completed);
    assert_eq!(summary.rate_changes, report_1.rate_changes);
}

#[test]
fn rng_fork_isolation_across_subsystems() {
    // Adding draws on one fork must not disturb another — the property
    // that keeps experiments comparable when code changes.
    let root = SimRng::seed_from(123);
    let mut a1 = root.fork("arrivals");
    let mut b1 = root.fork("decode");
    let x = a1.next_f64();
    let y = b1.next_f64();

    let root2 = SimRng::seed_from(123);
    let mut b2 = root2.fork("decode");
    let mut a2 = root2.fork("arrivals");
    // Fork order swapped; streams unchanged.
    assert_eq!(a2.next_f64(), x);
    assert_eq!(b2.next_f64(), y);
}
