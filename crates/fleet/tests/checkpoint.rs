//! Checkpoint/resume at the engine level: a run resumed from any
//! checkpointed prefix must produce report bytes identical to an
//! uninterrupted run, and checkpoints must survive only intact.

use std::path::PathBuf;

use fleet::checkpoint::{load_checkpoint, write_checkpoint};
use fleet::{run_device, run_fleet_opts, FleetAccumulator, FleetError, FleetSpec, RunOptions};
use simcore::json::ToJson;
use simcore::par::Jobs;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(devices: usize) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "resume",
            "devices": {devices},
            "base_seed": 31,
            "workloads": ["mp3:A"],
            "policies": [
                {{ "governor": "max", "dpm": "none" }},
                {{ "governor": "change-point", "dpm": "break-even" }}
            ],
            "faults": ["off", "poison"],
            "on_error": "continue"
        }}"#
    ))
    .expect("valid spec")
}

#[test]
fn resume_from_any_prefix_matches_the_uninterrupted_run() {
    let spec = spec(9);
    let reference = run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default())
        .expect("runs")
        .to_json()
        .pretty();

    // A checkpointed run's final snapshot must cover the whole fleet.
    let dir = tmp_dir("prefix");
    run_fleet_opts(
        &spec,
        Jobs::Count(2),
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..RunOptions::default()
        },
    )
    .expect("checkpointed run");
    let full = load_checkpoint(&dir, &spec)
        .expect("loads")
        .expect("final checkpoint present");
    assert_eq!(full.devices(), 9, "final checkpoint covers the fleet");

    // Synthesize the accumulator state after each prefix by streaming
    // the engine's own per-device outcomes (run_device is the same unit
    // of work the fold uses), checkpoint it, and resume from there.
    for prefix in [0, 1, 4, 9] {
        let mut acc = FleetAccumulator::new(spec.policies.len(), 1);
        for device in 0..prefix {
            acc.push(run_device(&spec, device).expect("device runs"));
        }
        write_checkpoint(&dir, &spec, &acc).expect("write prefix");
        let resumed = run_fleet_opts(
            &spec,
            Jobs::Count(2),
            &RunOptions {
                resume_dir: Some(dir.clone()),
                ..RunOptions::default()
            },
        )
        .expect("resumed run");
        assert_eq!(
            resumed.to_json().pretty(),
            reference,
            "resume from prefix {prefix} diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_no_checkpoint_starts_fresh() {
    let spec = spec(4);
    let dir = tmp_dir("fresh");
    let resumed = run_fleet_opts(
        &spec,
        Jobs::Count(1),
        &RunOptions {
            resume_dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("fresh start");
    let reference = run_fleet_opts(&spec, Jobs::Count(1), &RunOptions::default()).expect("runs");
    assert_eq!(resumed.to_json().pretty(), reference.to_json().pretty());
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_spec() {
    let dir = tmp_dir("foreign");
    let a = spec(9);
    run_fleet_opts(
        &a,
        Jobs::Count(1),
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("checkpointed run");

    let mut b = spec(9);
    b.base_seed = 32; // different fleet entirely
    let err = run_fleet_opts(
        &b,
        Jobs::Count(1),
        &RunOptions {
            resume_dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect_err("foreign checkpoint rejected");
    assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_does_not_change_report_bytes() {
    let spec = spec(7);
    let dir = tmp_dir("bytes");
    let plain = run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default()).expect("runs");
    let checkpointed = run_fleet_opts(
        &spec,
        Jobs::Count(2),
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..RunOptions::default()
        },
    )
    .expect("runs");
    assert_eq!(
        plain.to_json().pretty(),
        checkpointed.to_json().pretty(),
        "checkpointing must be invisible in the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
