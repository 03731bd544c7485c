//! Bit-identity golden for a full `dvsdpm`-style simulation report.
//!
//! `tests/golden/simreport_mp3_ab_changepoint_seed42.json` was captured
//! from the pre-optimization kernel (deque-backed windows, unhoisted
//! `ln()`, allocating Monte-Carlo trials): the MP3 sequence "AB" under
//! the change-point governor with break-even standby DPM at seed 42.
//! The rewritten hot path must reproduce that JSON **byte for byte** —
//! traced or untraced, at any calibration thread count. A mismatch
//! means an optimization perturbed float arithmetic, RNG consumption,
//! or event ordering somewhere between the detector and the report.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use powermgr::{SharedResources, SystemSimulator};
use simcore::json::ToJson;
use simcore::par::set_default_jobs;
use trace::{NullSink, RingSink};

fn golden_config() -> SystemConfig {
    SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::BreakEven,
        ..SystemConfig::default()
    }
}

fn golden_json() -> String {
    include_str!("golden/simreport_mp3_ab_changepoint_seed42.json")
        .trim_end()
        .to_string()
}

#[test]
fn simreport_matches_pre_rewrite_golden_bytes() {
    let report = Workload::Mp3("AB".into())
        .run(&golden_config(), 42, Attachments::default())
        .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "SimReport JSON drifted from the pre-optimization kernel"
    );
}

#[test]
fn traced_simreport_matches_golden_bytes() {
    // Tracing must not perturb the run: a null sink and a recording
    // sink both produce the identical report bytes.
    let mut null = NullSink;
    let report = Workload::Mp3("AB".into())
        .run(
            &golden_config(),
            42,
            Attachments {
                sink: Some(&mut null),
                ..Attachments::default()
            },
        )
        .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "null-sink run drifted"
    );

    let mut ring = RingSink::new(4096);
    let report = Workload::Mp3("AB".into())
        .run(
            &golden_config(),
            42,
            Attachments {
                sink: Some(&mut ring),
                ..Attachments::default()
            },
        )
        .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "ring-sink run drifted"
    );
    assert!(!ring.is_empty(), "the traced run did emit events");
}

#[test]
fn simreport_matches_golden_at_any_calibration_thread_count() {
    // The change-point governor calibrates through the parallel engine
    // at the process-default job count; the report must not depend on it.
    for jobs in [1usize, 2, 4] {
        set_default_jobs(jobs);
        let report = Workload::Mp3("AB".into())
            .run(&golden_config(), 42, Attachments::default())
            .unwrap();
        assert_eq!(
            report.to_json().dump(),
            golden_json(),
            "jobs={jobs} drifted"
        );
    }
    set_default_jobs(0); // restore auto
}

/// Pins a device whose event queue builds a deep spill. Under `ideal`
/// DVS with TISMDP, every idle period queues sleep commands that stay
/// pending until their due time (popping them splits the energy
/// integration), so a session device holds about a thousand queued
/// commands at once. The change-point/break-even golden above almost
/// never spills, so it cannot see a queue that reorders them.
#[test]
fn deep_spill_session_matches_pinned_kernel_counts() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        ..SystemConfig::default()
    };
    let trace = Workload::Session.build(42).unwrap();
    let (report, events) =
        SystemSimulator::new_shared(&trace, config, 42, &SharedResources::default())
            .unwrap()
            .run_counted(trace.end())
            .unwrap();
    let json = report.to_json().dump();
    assert_eq!(
        (
            trace.frames().len(),
            events,
            fleet::checkpoint::fnv1a64(json.as_bytes()),
            json.len()
        ),
        (54_804, 152_386, 0x2ab6_e8ec_cc2f_ffb4, 1_034),
        "frames, kernel events, report digest or report bytes drifted"
    );
}
