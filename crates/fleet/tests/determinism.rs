//! The fleet engine's core contract: a fleet run is a pure function of
//! its spec. The serialized report must be byte-identical at any worker
//! count, every device's stream must be independent of its neighbours,
//! and shared change-point calibration must not leak state between
//! devices.

use std::collections::BTreeSet;

use fleet::{run_fleet_opts, FleetError, FleetSpec, RunOptions};
use simcore::json::ToJson;
use simcore::par::Jobs;

/// A small but non-trivial fleet: two workloads, three policies
/// (including a quick change-point config so the threshold cache is on
/// the path), two fault presets.
fn spec(devices: usize) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "determinism",
            "devices": {devices},
            "base_seed": 1234,
            "workloads": ["mp3:AB", "session"],
            "policies": [
                {{ "governor": "change-point", "dpm": "break-even" }},
                {{ "governor": "ema:0.05", "dpm": "timeout:1.0" }},
                {{ "governor": "max", "dpm": "none" }}
            ],
            "faults": ["off", "wlan"]
        }}"#
    ))
    .expect("test spec is valid")
}

#[test]
fn report_bytes_are_identical_at_any_jobs_count() {
    let spec = spec(13); // deliberately not a multiple of batch or combos
    let reference = run_fleet_opts(&spec, Jobs::Count(1), &RunOptions::default())
        .expect("fleet runs")
        .to_json()
        .pretty();
    for jobs in [2, 4, 8] {
        let got = run_fleet_opts(&spec, Jobs::Count(jobs), &RunOptions::default())
            .expect("fleet runs")
            .to_json()
            .pretty();
        assert_eq!(got, reference, "jobs={jobs} diverged from jobs=1");
    }
}

#[test]
fn records_cover_the_cross_product_with_distinct_seeds() {
    let spec = spec(12); // exactly one full 2×3×2 cross product
    let report = run_fleet_opts(&spec, Jobs::Auto, &RunOptions::default()).expect("fleet runs");
    assert_eq!(report.devices, 12);
    assert_eq!(report.records.len(), 12);

    let combos: BTreeSet<(String, u64, String)> = report
        .records
        .iter()
        .map(|r| (r.workload.clone(), r.policy, r.faults.clone()))
        .collect();
    assert_eq!(combos.len(), 12, "every combination appears exactly once");

    let seeds: BTreeSet<u64> = report.records.iter().map(|r| r.seed).collect();
    assert_eq!(seeds.len(), 12, "device seeds must be pairwise distinct");

    // Cohorts are balanced (4 devices per policy) and in slot order.
    assert_eq!(report.cohorts.len(), 3);
    for (i, c) in report.cohorts.iter().enumerate() {
        assert_eq!(c.policy, i as u64);
        assert_eq!(c.devices, 4);
        assert!(c.mean_energy_kj > 0.0);
    }
    // max/none is present, so every cohort gets a savings factor and
    // the baseline's own factor is exactly 1.
    let baseline = &report.cohorts[2];
    assert_eq!(baseline.governor, "max");
    assert!((baseline.savings_vs_baseline.expect("baseline") - 1.0).abs() < 1e-12);
    for c in &report.cohorts {
        assert!(c.savings_vs_baseline.expect("baseline present") > 0.0);
    }

    // Detecting governors (change-point, ema) report a probe latency;
    // max does not.
    for r in &report.records {
        match r.governor.as_str() {
            "max" => assert_eq!(r.detection_latency_frames, None, "device {}", r.device),
            _ => assert!(
                r.detection_latency_frames.expect("probe ran") >= 1.0,
                "device {}",
                r.device
            ),
        }
    }
    assert!(report.detection_latency_frames.is_some());
}

#[test]
fn a_device_run_does_not_depend_on_fleet_size() {
    // Device 3 of a 4-device fleet and device 3 of a 16-device fleet
    // must be the same simulation: seeds fork per index, never from a
    // shared sequential stream.
    let small =
        run_fleet_opts(&spec(4), Jobs::Count(2), &RunOptions::default()).expect("fleet runs");
    let large =
        run_fleet_opts(&spec(16), Jobs::Count(3), &RunOptions::default()).expect("fleet runs");
    assert_eq!(small.records[3], large.records[3]);
}

#[test]
fn trace_dir_gets_per_device_and_fleet_logs() {
    let dir = std::env::temp_dir().join(format!("fleet_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec(3);
    let opts = RunOptions {
        trace_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let report = run_fleet_opts(&spec, Jobs::Count(2), &opts).expect("fleet runs");
    for i in 0..3 {
        let path = dir.join(format!("device_{i:05}.jsonl"));
        let text = std::fs::read_to_string(&path).expect("device trace exists");
        assert!(!text.is_empty(), "device {i} trace is empty");
    }
    let fleet_log = std::fs::read_to_string(dir.join("fleet.jsonl")).expect("fleet log exists");
    let events = trace::parse_fleet_jsonl(&fleet_log).expect("fleet log parses");
    // start + (start, done) per device + done.
    assert_eq!(events.len(), 2 + 2 * 3);
    assert!(matches!(
        events[0],
        trace::FleetEvent::FleetStart { devices: 3, .. }
    ));
    assert!(matches!(
        events.last(),
        Some(trace::FleetEvent::FleetDone { devices: 3 })
    ));

    // Tracing must not perturb the simulation.
    let untraced =
        run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default()).expect("fleet runs");
    assert_eq!(report, untraced);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_jobs_runs_inline() {
    // Jobs::Count(0) means "inline on the calling thread" in simcore;
    // the fleet engine inherits that and still produces the reference
    // bytes.
    let spec = spec(2);
    let inline = run_fleet_opts(&spec, Jobs::Count(0), &RunOptions::default()).expect("inline run");
    let reference =
        run_fleet_opts(&spec, Jobs::Count(1), &RunOptions::default()).expect("reference run");
    assert_eq!(inline.to_json().pretty(), reference.to_json().pretty());
}

#[test]
fn spec_validation_errors_are_spec_errors() {
    let bad = FleetSpec::parse(r#"{ "devices": 0, "workloads": ["session"], "policies": [{}] }"#);
    assert!(matches!(bad, Err(FleetError::Spec(_))));
}
