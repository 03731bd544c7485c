//! Checkpoint/resume at the engine level: a run resumed from any
//! checkpointed prefix must produce report bytes identical to an
//! uninterrupted run, and checkpoints must survive only intact.

use std::path::PathBuf;

use std::collections::HashSet;

use detect::changepoint::ChangePointConfig;
use faults::FaultPreset;
use fleet::checkpoint::{load_checkpoint, spec_digest, write_checkpoint, CHECKPOINT_VERSION};
use fleet::{
    run_device, run_fleet_opts, FleetAccumulator, FleetError, FleetSpec, OnError, PolicySpec,
    RunOptions,
};
use powermgr::config::{DpmKind, GovernorKind};
use powermgr::scenario::Workload;
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

fn change_point(spec: &mut FleetSpec) -> &mut ChangePointConfig {
    match &mut spec.policies[0].governor {
        GovernorKind::ChangePoint(config) => config,
        other => panic!("policy 0 runs {other:?}"),
    }
}

#[test]
fn spec_digest_changes_with_every_field() {
    let mut base = spec(4);
    base.policies = vec![
        PolicySpec {
            governor: GovernorKind::change_point(),
            dpm: DpmKind::FixedTimeout { timeout_s: 1.0 },
        },
        PolicySpec {
            governor: GovernorKind::ExpAverage { gain: 0.3 },
            dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        },
    ];
    base.assertions = Some(trace::AssertionConfig::paper());
    type Edit = (&'static str, fn(&mut FleetSpec));
    let edits: [Edit; 20] = [
        ("name", |s| s.name.push('!')),
        ("devices", |s| s.devices += 1),
        ("base_seed", |s| s.base_seed += 1),
        ("workloads", |s| s.workloads = vec![Workload::Session]),
        ("faults", |s| {
            s.faults = vec![FaultPreset::Flaky { percent: 10 }]
        }),
        ("on_error", |s| s.on_error = OnError::Retry(2)),
        ("assertions", |s| s.assertions = None),
        ("governor kind", |s| {
            s.policies[0].governor = GovernorKind::Ideal;
        }),
        ("window", |s| change_point(s).window += 1),
        ("check_interval", |s| change_point(s).check_interval += 1),
        ("k_step", |s| change_point(s).k_step += 1),
        ("ratios", |s| change_point(s).ratios.push(9.0)),
        ("confidence", |s| change_point(s).confidence = 0.99),
        ("calibration_trials", |s| {
            change_point(s).calibration_trials += 1;
        }),
        ("calibration_seed", |s| {
            change_point(s).calibration_seed += 1
        }),
        ("ema gain", |s| {
            s.policies[1].governor = GovernorKind::ExpAverage { gain: 0.5 };
        }),
        ("dpm kind", |s| s.policies[0].dpm = DpmKind::BreakEven),
        ("timeout_s", |s| {
            s.policies[0].dpm = DpmKind::FixedTimeout { timeout_s: 2.0 };
        }),
        ("delay_weight", |s| {
            s.policies[1].dpm = DpmKind::Tismdp { delay_weight: 0.0 };
        }),
        ("policy order", |s| s.policies.swap(0, 1)),
    ];
    let mut seen = HashSet::from([spec_digest(&base)]);
    for (field, edit) in edits {
        let mut edited = base.clone();
        edit(&mut edited);
        assert_ne!(edited, base, "the {field} edit changes the spec");
        assert!(
            seen.insert(spec_digest(&edited)),
            "editing {field} left the digest unchanged or collided"
        );
    }
}

/// The digest of a committed spec, pinned: a change to the
/// canonical form fails here and must bump `CHECKPOINT_VERSION`.
#[test]
fn golden_spec_digest_is_pinned() {
    let spec = FleetSpec::parse(include_str!("../../../tests/golden/fleet_8dev_spec.json"))
        .expect("golden spec parses");
    assert_eq!(spec_digest(&spec), 0xbb7d_0d57_2ee6_d9dc);
    assert_eq!(CHECKPOINT_VERSION, 3);
}
