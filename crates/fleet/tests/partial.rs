//! Fault-tolerant fleet execution: failures are contained per device,
//! accounted in `FleetHealth`, and never cost determinism — a partial
//! report's bytes are identical at any worker count, and `retry(N)`
//! outcomes are a pure function of the spec.

use fleet::{run_fleet_opts, FleetError, FleetSpec, OnError, RunOptions};
use simcore::json::ToJson;
use simcore::par::Jobs;

/// A fleet mixing healthy devices with guaranteed-failing ones: the
/// `poison` preset yields a fault spec the simulator rejects on
/// construction, and `panic` panics outright (exercising the
/// `catch_unwind` path). Faults vary slowest in the 1×2×3 cross
/// product, so of every 6 devices, 0-1 are healthy, 2-3 poisoned,
/// 4-5 panicking.
fn mixed_spec(devices: usize, on_error: &str) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "mixed",
            "devices": {devices},
            "base_seed": 99,
            "workloads": ["mp3:A"],
            "policies": [
                {{ "governor": "max", "dpm": "none" }},
                {{ "governor": "change-point", "dpm": "break-even" }}
            ],
            "faults": ["off", "poison", "panic"],
            "on_error": "{on_error}"
        }}"#
    ))
    .expect("test spec is valid")
}

#[test]
fn partial_report_bytes_are_identical_at_any_jobs_count() {
    let spec = mixed_spec(13, "continue");
    let reference = run_fleet_opts(&spec, Jobs::Count(1), &RunOptions::default())
        .expect("continue survives failures")
        .to_json()
        .pretty();
    for jobs in [2, 8] {
        let got = run_fleet_opts(&spec, Jobs::Count(jobs), &RunOptions::default())
            .expect("continue survives failures")
            .to_json()
            .pretty();
        assert_eq!(got, reference, "jobs={jobs} diverged from jobs=1");
    }
}

#[test]
fn continue_contains_failures_and_counts_them() {
    // 12 devices over a 1×2×3 cross product: faults vary slowest, so
    // devices 2,3 (poison) and 4,5 (panic) of every 6 fail.
    let spec = mixed_spec(12, "continue");
    let report = run_fleet_opts(&spec, Jobs::Count(4), &RunOptions::default())
        .expect("continue survives failures");
    assert!(report.partial);
    assert_eq!(report.devices, 12);
    assert_eq!(
        report.records.len(),
        4,
        "only the fault-free third survives"
    );

    let h = &report.health;
    assert_eq!(h.on_error, "continue");
    assert_eq!((h.completed, h.failed), (4, 8));
    assert_eq!(h.retried, 0, "continue never retries");
    assert_eq!(h.quarantined, 8, "one attempt was the whole budget");
    assert!((h.failure_rate - 8.0 / 12.0).abs() < 1e-12);
    // Both policy cohorts lose the same 2-of-3 fault share.
    assert_eq!(h.cohorts.len(), 2);
    for c in &h.cohorts {
        assert_eq!(c.devices, 6);
        assert_eq!(c.failed, 4);
    }
    assert_eq!(h.first_errors.len(), 5, "samples are capped");
    // Poisoned devices report the typed fault error; panicking devices
    // report the caught panic message.
    let errors: Vec<&str> = h.first_errors.iter().map(|s| s.error.as_str()).collect();
    assert!(
        errors.iter().any(|e| e.contains("fault")),
        "typed error missing from {errors:?}"
    );
    assert!(
        errors
            .iter()
            .any(|e| e.starts_with("panic: injected panic")),
        "panic message missing from {errors:?}"
    );

    // Survivor summaries exist and cover exactly the healthy devices.
    let energy = report.energy_kj.as_ref().expect("survivors");
    assert!(energy.mean > 0.0);
    for r in &report.records {
        assert_eq!(r.faults, "off");
        assert_eq!(r.attempts, 1);
    }
}

#[test]
fn fail_fast_aborts_on_the_first_failure() {
    let spec = mixed_spec(12, "fail_fast");
    let err = run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default())
        .expect_err("fail_fast aborts");
    match err {
        FleetError::Device {
            device, attempts, ..
        } => {
            assert_eq!(device, 2, "first poisoned device in fold order");
            assert_eq!(attempts, 1);
        }
        other => panic!("expected FleetError::Device, got {other}"),
    }
}

#[test]
fn retry_outcomes_are_deterministic_and_recover_flaky_devices() {
    // `flaky:60` dooms ~60% of first attempts by seed; with 4 retries
    // on independent forked seeds most devices recover. What matters
    // here is not the exact rate but that (a) some devices genuinely
    // retry, and (b) the full outcome set — including every retried
    // seed — is byte-identical across jobs counts and repeat runs.
    let spec = FleetSpec::parse(
        r#"{
            "name": "flaky",
            "devices": 24,
            "base_seed": 7,
            "workloads": ["mp3:A"],
            "policies": [{ "governor": "max", "dpm": "none" }],
            "faults": ["flaky:60"],
            "on_error": "retry:4"
        }"#,
    )
    .expect("valid spec");
    assert_eq!(spec.on_error, OnError::Retry(4));

    let reference = run_fleet_opts(&spec, Jobs::Count(1), &RunOptions::default())
        .expect("retry contains failures");
    for jobs in [2, 8] {
        let got = run_fleet_opts(&spec, Jobs::Count(jobs), &RunOptions::default())
            .expect("retry contains failures");
        assert_eq!(
            got.to_json().pretty(),
            reference.to_json().pretty(),
            "jobs={jobs} diverged"
        );
    }

    let h = &reference.health;
    assert!(h.retried > 0, "flaky:60 over 24 devices must retry some");
    assert!(h.recovered > 0, "retries on fresh seeds must recover some");
    assert_eq!(h.retried, h.recovered + h.failed);
    // Retried survivors carry their retry seed and attempt count; the
    // seeds must match the spec's deterministic ladder.
    for r in reference.records.iter().filter(|r| r.attempts > 1) {
        let attempt = u32::try_from(r.attempts - 1).expect("small");
        assert_eq!(r.seed, spec.retry_seed(r.device as usize, attempt));
    }
}

#[test]
fn retry_seeds_never_collide_with_device_seeds() {
    let spec = mixed_spec(8, "continue");
    let mut seen = std::collections::BTreeSet::new();
    for device in 0..spec.devices {
        for attempt in 0..=fleet::spec::MAX_RETRIES {
            assert!(
                seen.insert(spec.retry_seed(device, attempt)),
                "seed collision at device {device} attempt {attempt}"
            );
        }
    }
}

#[test]
fn all_devices_failing_still_produces_a_report() {
    let spec = FleetSpec::parse(
        r#"{
            "name": "doomed",
            "devices": 3,
            "base_seed": 5,
            "workloads": ["mp3:A"],
            "policies": [{ "governor": "max", "dpm": "none" }],
            "faults": ["poison"],
            "on_error": "continue"
        }"#,
    )
    .expect("valid spec");
    let report = run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default())
        .expect("continue survives total loss");
    assert!(report.partial);
    assert_eq!(report.health.failed, 3);
    assert!(report.records.is_empty());
    assert!(report.energy_kj.is_none());
    assert!(report.cohorts.is_empty());
}

/// Regression for the poisoned-mutex bug: a `panic` chaos-preset
/// device unwinds while the parallel engine's span-store and
/// result-slot mutexes are in active use. Before the
/// `unwrap_or_else(into_inner)` recovery in `simcore::par`, one caught
/// device panic could poison those locks and turn every *later*
/// contained failure into a cascading abort of the whole run. With
/// profiling enabled the fleet must still yield `DeviceOutcome::Failed`
/// for the panicking devices and a complete report.
#[test]
fn profiled_panic_devices_still_fail_cleanly() {
    simcore::par::set_profiling(true);
    let spec = mixed_spec(12, "continue");
    let result = run_fleet_opts(&spec, Jobs::Count(4), &RunOptions::default());
    simcore::par::set_profiling(false);
    let report = result.expect("panicking devices are contained, not cascaded");
    assert_eq!(report.devices, 12);
    assert_eq!(report.health.failed, 8, "poison + panic thirds both fail");
    assert_eq!(report.health.completed, 4);
    assert!(
        report
            .health
            .first_errors
            .iter()
            .any(|e| e.error.starts_with("panic:")),
        "panic outcomes survive as Failed, not aborts"
    );
    // The spans recorded while devices were panicking are still
    // harvestable — the store survived the poison.
    let _ = simcore::par::take_spans();
}

#[test]
fn failed_devices_leave_no_truncated_trace_files() {
    let dir = std::env::temp_dir().join(format!("fleet_partial_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = mixed_spec(6, "continue");
    let report = fleet::run_fleet_opts(
        &spec,
        Jobs::Count(2),
        &fleet::RunOptions {
            trace_dir: Some(dir.clone()),
            ..fleet::RunOptions::default()
        },
    )
    .expect("continue survives failures");

    for device in 0..6u64 {
        let path = dir.join(format!("device_{device:05}.jsonl"));
        let tmp = dir.join(format!("device_{device:05}.jsonl.tmp"));
        assert!(!tmp.exists(), "temp file left for device {device}");
        let completed = report.records.iter().any(|r| r.device == device);
        assert_eq!(
            path.exists(),
            completed,
            "trace file presence must track completion for device {device}"
        );
        if completed {
            let text = std::fs::read_to_string(&path).expect("readable");
            trace::parse_jsonl(&text).expect("complete, parseable JSONL");
        }
    }
    // The fleet log records one start per device and done-or-failed.
    let log = std::fs::read_to_string(dir.join("fleet.jsonl")).expect("fleet log");
    let events = trace::parse_fleet_jsonl(&log).expect("parses");
    let failed = events
        .iter()
        .filter(|e| matches!(e, trace::FleetEvent::DeviceFailed { .. }))
        .count() as u64;
    assert_eq!(failed, report.health.failed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fleet of the trace-promotion tests: `mp3:A` under `max`/`none`
/// and `change-point`/`break-even`, base seed 3. Faults vary slowest.
fn promotion_spec(devices: usize, faults: &str, on_error: &str) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "promotion",
            "devices": {devices},
            "base_seed": 3,
            "workloads": ["mp3:A"],
            "policies": [
                {{ "governor": "max", "dpm": "none" }},
                {{ "governor": "change-point", "dpm": "break-even" }}
            ],
            "faults": [{faults}],
            "on_error": "{on_error}"
        }}"#
    ))
    .expect("test spec is valid")
}

/// A fresh directory for one promotion-failure run.
fn promotion_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_promotion_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `spec` with traces under `dir/trace` (and `opts`' other
/// settings) after putting a non-empty directory at the final trace
/// path of each `blocked` device, so that device's rename fails.
fn run_blocked(
    spec: &FleetSpec,
    jobs: usize,
    dir: &std::path::Path,
    blocked: &[usize],
    opts: RunOptions,
) -> Result<fleet::FleetReport, FleetError> {
    let traces = dir.join("trace");
    for device in blocked {
        let block = traces.join(format!("device_{device:05}.jsonl"));
        std::fs::create_dir_all(&block).expect("create blocking dir");
        std::fs::write(block.join("keep"), b"").expect("fill blocking dir");
    }
    let opts = RunOptions {
        trace_dir: Some(traces),
        ..opts
    };
    run_fleet_opts(spec, Jobs::Count(jobs), &opts)
}

#[test]
fn failed_trace_promotion_aborts_the_run_and_is_never_checkpointed() {
    let spec = promotion_spec(12, r#""off""#, "fail_fast");
    let reference_dir = promotion_dir("reference");
    run_blocked(&spec, 1, &reference_dir, &[], RunOptions::default())
        .expect("unblocked run completes");
    for jobs in [1, 2, 8] {
        let dir = promotion_dir(&format!("blocked_j{jobs}"));
        let checkpoints = dir.join("ckpt");
        let opts = RunOptions {
            checkpoint_dir: Some(checkpoints.clone()),
            checkpoint_every: 1,
            batch: 4,
            ..RunOptions::default()
        };
        match run_blocked(&spec, jobs, &dir, &[6, 9], opts) {
            Err(FleetError::Io(msg)) => assert!(
                msg.contains("cannot rename") && msg.contains("device_00006.jsonl.tmp"),
                "jobs={jobs}: unexpected I/O error `{msg}`"
            ),
            Err(other) => panic!("jobs={jobs}: expected FleetError::Io, got {other}"),
            Ok(_) => panic!("jobs={jobs}: a blocked promotion must abort the run"),
        }
        // The first batch (devices 0-3) was checkpointed; the batch
        // holding the failed promotion never was.
        let resumed = fleet::checkpoint::load_checkpoint(&checkpoints, &spec)
            .expect("checkpoint verifies")
            .expect("the first batch was checkpointed");
        assert_eq!(resumed.devices(), 4, "jobs={jobs}");
        for device in 0..4 {
            let name = format!("device_{device:05}.jsonl");
            assert_eq!(
                std::fs::read(dir.join("trace").join(&name)).expect("promoted trace"),
                std::fs::read(reference_dir.join("trace").join(&name)).expect("reference trace"),
                "jobs={jobs}: {name} differs from the unblocked run"
            );
        }
        for name in ["fleet.jsonl", "fleet.jsonl.tmp"] {
            assert!(
                !dir.join("trace").join(name).exists(),
                "jobs={jobs}: a failed run left {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn the_first_failure_in_device_order_wins_between_a_device_and_a_promotion() {
    // Devices 0-1 and 4-5 are healthy, 2-3 and 6-7 poisoned.
    let spec = promotion_spec(8, r#""off", "poison""#, "fail_fast");
    for jobs in [1, 2, 8] {
        let opts = || RunOptions {
            batch: 8,
            ..RunOptions::default()
        };
        let dir = promotion_dir(&format!("before_j{jobs}"));
        match run_blocked(&spec, jobs, &dir, &[1], opts()) {
            Err(FleetError::Io(msg)) => assert!(
                msg.contains("cannot rename") && msg.contains("device_00001.jsonl.tmp"),
                "jobs={jobs}: unexpected I/O error `{msg}`"
            ),
            other => panic!("jobs={jobs}: expected device 1's I/O error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);

        let dir = promotion_dir(&format!("after_j{jobs}"));
        match run_blocked(&spec, jobs, &dir, &[4], opts()) {
            Err(FleetError::Device { device, .. }) => assert_eq!(device, 2, "jobs={jobs}"),
            other => panic!("jobs={jobs}: expected device 2's failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
