//! Integration tests of the `dvsdpm` command-line binary: spawn the real
//! executable and check its output and exit codes.

use std::process::Command;

fn dvsdpm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dvsdpm"))
}

fn tracecat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracecat"))
}

#[test]
fn list_prints_catalog() {
    let out = dvsdpm().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for needle in ["mp3:", "mpeg:football", "session", "change-point", "tismdp"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn run_produces_report_and_json() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("report.json");
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "ideal",
            "--dpm",
            "none",
            "--seed",
            "3",
            "--json",
        ])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("governor=ideal"), "{text}");
    assert!(text.contains("energy:"), "{text}");
    let json = simcore::Json::parse(&std::fs::read_to_string(&json_path).expect("json written"))
        .expect("valid json");
    assert!(json["frames_completed"].as_u64().expect("field") > 1000);
    assert_eq!(json["governor"], "ideal");
}

#[test]
fn run_is_deterministic_across_invocations() {
    let run = || {
        let out = dvsdpm()
            .args([
                "run",
                "--workload",
                "mp3:F",
                "--governor",
                "max",
                "--dpm",
                "none",
                "--seed",
                "11",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout).expect("utf8")
    };
    assert_eq!(run(), run());
}

#[test]
fn jobs_flag_never_changes_results() {
    // The change-point governor calibrates thresholds on the parallel
    // engine; the report must be byte-identical for any --jobs value.
    let run = |jobs: &str| {
        let out = dvsdpm()
            .args([
                "run",
                "--workload",
                "mp3:A",
                "--governor",
                "change-point",
                "--dpm",
                "none",
                "--seed",
                "5",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let baseline = run("1");
    assert_eq!(baseline, run("4"));

    let out = dvsdpm()
        .args(["run", "--workload", "mp3:A", "--jobs", "zero"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--jobs"), "{err}");
}

#[test]
fn bad_arguments_fail_with_guidance() {
    let out = dvsdpm()
        .args(["run", "--workload", "cassette:mixtape"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown workload"), "{err}");

    let out = dvsdpm().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn faulted_run_surfaces_robustness_summary() {
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "change-point",
            "--dpm",
            "none",
            "--seed",
            "2",
            "--faults",
            "wlan",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("robustness:"), "{text}");
    assert!(text.contains("arrivals lost"), "{text}");

    // The clean run stays clean: no robustness line.
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "change-point",
            "--dpm",
            "none",
            "--seed",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(!text.contains("robustness:"), "{text}");

    let out = dvsdpm()
        .args(["run", "--workload", "mp3:A", "--faults", "gremlins"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown fault preset"), "{err}");
}

/// A small fleet spec covering all four governors (so the run exercises
/// calibration sharing) written into `dir`.
fn write_fleet_spec(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let path = dir.join("fleet_spec.json");
    std::fs::write(
        &path,
        r#"{
            "name": "cli-fleet",
            "devices": 4,
            "base_seed": 9,
            "workloads": ["mp3:A"],
            "policies": [
                { "governor": "change-point", "dpm": "break-even" },
                { "governor": "ideal", "dpm": "none" },
                { "governor": "ema:0.05", "dpm": "timeout:1.0" },
                { "governor": "max", "dpm": "none" }
            ]
        }"#,
    )
    .expect("spec written");
    path
}

#[test]
fn fleet_runs_spec_and_writes_identical_json_at_any_jobs() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-fleet-test");
    let spec = write_fleet_spec(&dir);
    let run = |jobs: &str, json: &std::path::Path| {
        let out = dvsdpm()
            .args(["fleet", "--spec"])
            .arg(&spec)
            .args(["--jobs", jobs, "--json"])
            .arg(json)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "jobs={jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let json1 = dir.join("fleet_j1.json");
    let json8 = dir.join("fleet_j8.json");
    let stdout = run("1", &json1);
    run("8", &json8);

    // Human summary: fleet header, cohort table, cache diagnostics.
    assert!(stdout.contains("fleet `cli-fleet`: 4 devices"), "{stdout}");
    assert!(stdout.contains("cohorts:"), "{stdout}");
    assert!(stdout.contains("threshold cache:"), "{stdout}");

    // The written report parses and is byte-identical across jobs.
    let bytes1 = std::fs::read_to_string(&json1).expect("json written");
    let bytes8 = std::fs::read_to_string(&json8).expect("json written");
    assert_eq!(bytes1, bytes8, "fleet report depends on --jobs");
    let json = simcore::Json::parse(&bytes1).expect("valid json");
    assert_eq!(json["devices"].as_u64(), Some(4));
    assert_eq!(json["name"], "cli-fleet");
    assert_eq!(json["cohorts"].as_array().map(<[_]>::len), Some(4));
}

/// A fleet spec with a controllable `on_error` policy and a mix of
/// healthy and guaranteed-failing (`poison`) devices.
fn write_faulty_fleet_spec(dir: &std::path::Path, on_error: &str) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let path = dir.join(format!("fleet_spec_{on_error}.json"));
    std::fs::write(
        &path,
        format!(
            r#"{{
                "name": "cli-faulty",
                "devices": 6,
                "base_seed": 17,
                "workloads": ["mp3:A"],
                "policies": [
                    {{ "governor": "max", "dpm": "none" }},
                    {{ "governor": "ideal", "dpm": "none" }}
                ],
                "faults": ["off", "poison"],
                "on_error": "{on_error}"
            }}"#
        ),
    )
    .expect("spec written");
    path
}

#[test]
fn fleet_exit_codes_distinguish_clean_partial_fatal() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-fleet-exit");

    // Clean fleet: exit 0, no partial marker.
    let clean = write_fleet_spec(&dir);
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&clean)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean fleet must exit 0");

    // Failures under `continue`: the report is produced but marked
    // partial, and the process signals it with exit code 2.
    let partial = write_faulty_fleet_spec(&dir, "continue");
    let json = dir.join("partial.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&partial)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "partial fleet must exit 2");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("PARTIAL"), "{text}");
    let report = simcore::Json::parse(&std::fs::read_to_string(&json).expect("json written"))
        .expect("valid json");
    assert_eq!(report["partial"].as_bool(), Some(true));
    // 1 workload x 2 policies x 2 faults wraps at 4: of 6 devices,
    // indices 2 and 3 land on `poison`.
    assert_eq!(report["health"]["failed"].as_u64(), Some(2));

    // The same failures under `fail_fast`: fatal, exit 1, device named.
    let fatal = write_faulty_fleet_spec(&dir, "fail_fast");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&fatal)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "fail_fast fleet must exit 1");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("failed after"), "{err}");
}

#[test]
fn fleet_checkpoint_and_resume_reproduce_the_uninterrupted_report() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-fleet-resume");
    let spec = write_faulty_fleet_spec(&dir, "continue");
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);

    // Reference: one uninterrupted run.
    let reference = dir.join("reference.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--json")
        .arg(&reference)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    // Checkpointed run, then a resume from the final checkpoint: the
    // resume replays nothing but must still emit identical bytes.
    let first = dir.join("first.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--checkpoint-every", "1", "--json"])
        .arg(&first)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(ckpt.join("fleet.ckpt").exists(), "checkpoint file written");

    let resumed = dir.join("resumed.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--resume")
        .arg(&ckpt)
        .arg("--json")
        .arg(&resumed)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let want = std::fs::read_to_string(&reference).expect("reference json");
    assert_eq!(
        std::fs::read_to_string(&first).expect("first json"),
        want,
        "checkpointing changed the report"
    );
    assert_eq!(
        std::fs::read_to_string(&resumed).expect("resumed json"),
        want,
        "resume changed the report"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Hard-kill durability: a checkpointed fleet run killed with SIGKILL
/// mid-flight (no destructors, no flush) must resume from its last
/// durable checkpoint and produce report bytes identical to an
/// uninterrupted run. This is what the `sync_all`-before-rename in the
/// checkpoint writer buys; the test also holds if the child finishes
/// before the kill lands (then the resume just replays nothing).
#[cfg(unix)]
#[test]
fn fleet_resume_after_sigkill_is_byte_identical() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join("dvsdpm-cli-fleet-sigkill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "sigkill",
            "devices": 120,
            "base_seed": 23,
            "workloads": ["mp3:A"],
            "policies": [{ "governor": "change-point", "dpm": "break-even" }]
        }"#,
    )
    .expect("spec written");

    // Reference: one uninterrupted run.
    let reference = dir.join("reference.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--json")
        .arg(&reference)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Checkpointed run with small batches, killed as soon as the first
    // checkpoint file appears on disk.
    let ckpt = dir.join("ckpt");
    let mut child = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--checkpoint-every", "1", "--batch", "4", "--json"])
        .arg(dir.join("killed.json"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fleet child spawns");
    let ckpt_file = ckpt.join("fleet.ckpt");
    let deadline = Instant::now() + Duration::from_secs(300);
    while !ckpt_file.exists()
        && child.try_wait().expect("poll child").is_none()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().ok(); // SIGKILL — no chance to flush or clean up
    child.wait().expect("child reaped");

    // Resume must finish the remaining devices and emit the reference
    // bytes exactly.
    let resumed = dir.join("resumed.json");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&spec)
        .arg("--resume")
        .arg(&ckpt)
        .arg("--json")
        .arg(&resumed)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&resumed).expect("resumed json"),
        std::fs::read_to_string(&reference).expect("reference json"),
        "resume after SIGKILL diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_bad_inputs_fail_with_actionable_stderr() {
    // Unreadable spec file.
    let out = dvsdpm()
        .args(["fleet", "--spec", "/nonexistent/fleet.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("cannot read spec file"), "{err}");

    // Unknown policy name inside the spec, located by index.
    let dir = std::env::temp_dir().join("dvsdpm-cli-fleet-bad");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad_spec = dir.join("bad.json");
    std::fs::write(
        &bad_spec,
        r#"{ "devices": 2, "workloads": ["mp3:A"],
             "policies": [{ "governor": "psychic", "dpm": "none" }] }"#,
    )
    .expect("spec written");
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&bad_spec)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("policies[0]"), "{err}");
    assert!(err.contains("unknown governor `psychic`"), "{err}");

    // --jobs 0 is rejected before any work happens.
    let out = dvsdpm()
        .args(["fleet", "--spec"])
        .arg(&bad_spec)
        .args(["--jobs", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--jobs expects a positive integer"), "{err}");

    // Missing --spec prints usage.
    let out = dvsdpm().arg("fleet").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("missing --spec"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn run_assert_without_trace_reports_a_verdict() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-assert-run");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("report.json");
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "ideal",
            "--dpm",
            "none",
            "--seed",
            "3",
            "--assert",
            "--json",
        ])
        .arg(&report)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("assertions: clean"), "{text}");

    // The verdict rides the JSON report and actually checked frames.
    let json = simcore::Json::parse(&std::fs::read_to_string(&report).expect("json written"))
        .expect("valid json");
    assert!(
        json["assertions"]["delay"]["checked"]
            .as_u64()
            .expect("field")
            > 1000
    );
    assert_eq!(json["assertions"]["delay"]["violations"].as_u64(), Some(0));
}

#[test]
fn tracecat_assert_agrees_with_the_online_monitor() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-assert-agree");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("run.jsonl");
    let report = dir.join("report.json");
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "ideal",
            "--dpm",
            "break-even",
            "--seed",
            "6",
            "--assert",
            "--trace",
        ])
        .arg(&trace)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Replaying the trace offline must reproduce the online verdict
    // bit for bit (both sides serialize through the same ToJson).
    let out = tracecat()
        .args(["assert", "--json"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let offline = simcore::Json::parse(&String::from_utf8(out.stdout).expect("utf8"))
        .expect("tracecat emits valid json");
    let online = simcore::Json::parse(&std::fs::read_to_string(&report).expect("json written"))
        .expect("valid json");
    assert_eq!(
        online["assertions"].dump(),
        offline.dump(),
        "offline replay verdict diverged from the online monitor"
    );
}

#[test]
fn tracecat_assert_exit_codes_separate_violations_from_errors() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-assert-exit");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("run.jsonl");
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "ideal",
            "--dpm",
            "none",
            "--seed",
            "6",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An impossible delay bound: every frame violates, exit code 3.
    let config = dir.join("strict.json");
    std::fs::write(
        &config,
        r#"{ "delay": { "bound_s": 1e-9, "tolerance": 0.0 } }"#,
    )
    .expect("config written");
    let out = tracecat()
        .args(["assert", "--config"])
        .arg(&config)
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "violations must exit 3");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("violation(s)"), "{text}");

    // A disordered (tampered) trace is rejected outright: exit 1, not a
    // violation verdict.
    let mut lines: Vec<String> = std::fs::read_to_string(&trace)
        .expect("trace readable")
        .lines()
        .map(str::to_owned)
        .collect();
    lines.rotate_right(1); // run_end first → time order broken
    let tampered = dir.join("tampered.jsonl");
    std::fs::write(&tampered, lines.join("\n")).expect("tampered written");
    let out = tracecat()
        .arg("assert")
        .arg(&tampered)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "disordered trace must exit 1");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("out of time order"), "{err}");

    // Missing inputs are reported by path.
    let out = tracecat()
        .args(["assert", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("cannot read"), "{err}");

    // A bad invariant set is a config error, not a verdict.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, r#"{ "delay": { "bound_s": -1.0 } }"#).expect("config written");
    let out = tracecat()
        .args(["assert", "--config"])
        .arg(&bad)
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("bound_s"), "{err}");
}

#[test]
fn fleet_rejects_bad_assertion_blocks_in_the_spec() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-assert-spec");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases: &[(&str, &str)] = &[
        (
            r#"{ "delay": { "bound_s": 0.2, "slack": 2 } }"#,
            "unknown key `slack`",
        ),
        (
            r#"{ "delay": { "bound_s": 0.2, "tolerance": -0.5 } }"#,
            "tolerance must be finite and >= 0",
        ),
        (
            r#"{ "oscillation": { "max_switches": 0, "window_s": 1.0 } }"#,
            "max_switches must be >= 1",
        ),
    ];
    for (i, (block, want)) in cases.iter().enumerate() {
        let spec = dir.join(format!("bad_{i}.json"));
        std::fs::write(
            &spec,
            format!(
                r#"{{ "devices": 1, "workloads": ["mp3:A"],
                     "policies": [{{ "governor": "max", "dpm": "none" }}],
                     "assertions": {block} }}"#
            ),
        )
        .expect("spec written");
        let out = dvsdpm()
            .args(["fleet", "--spec"])
            .arg(&spec)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "bad block {block} must be rejected");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(err.contains(want), "{block}: got {err:?}, want {want:?}");
    }
}

#[test]
fn tracecat_check_verifies_and_rejects_reports() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-tracecat-check");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("run.jsonl");
    let report = dir.join("report.json");
    let out = dvsdpm()
        .args([
            "run",
            "--workload",
            "mp3:A",
            "--governor",
            "ideal",
            "--dpm",
            "break-even",
            "--seed",
            "6",
            "--trace",
        ])
        .arg(&trace)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The freshly written report is consistent with its own trace.
    let out = tracecat()
        .args(["replay", "--check"])
        .arg(&report)
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("consistent with"), "{text}");

    // Tamper with a counter: the check must fail with a nonzero exit.
    let original = std::fs::read_to_string(&report).expect("report readable");
    let tampered = original.replace("\"frames_completed\": ", "\"frames_completed\": 1");
    assert_ne!(original, tampered, "tamper marker not applied");
    let bad_report = dir.join("tampered.json");
    std::fs::write(&bad_report, tampered).expect("tampered written");
    let out = tracecat()
        .args(["replay", "--check"])
        .arg(&bad_report)
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "tampered report must fail --check");

    // Missing files are reported by path.
    let out = tracecat()
        .args(["replay", "--check", "/nonexistent/report.json"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("cannot read"), "{err}");

    let out = tracecat()
        .args(["replay", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("cannot read"), "{err}");
}

/// Runs `dvsdpm run --workload mp3:AB --seed 42` with `policy` and a
/// trace written to `dir/name`, returning the trace path.
fn traced_mp3_ab(dir: &std::path::Path, name: &str, policy: &[&str]) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let trace = dir.join(name);
    let out = dvsdpm()
        .args(["run", "--workload", "mp3:AB", "--seed", "42"])
        .args(policy)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    trace
}

const FAULTED_CHANGE_POINT: [&str; 6] = [
    "--governor",
    "change-point",
    "--dpm",
    "break-even",
    "--faults",
    "wlan",
];
const EMA_TIMEOUT: [&str; 4] = ["--governor", "ema:0.05", "--dpm", "timeout:1.0"];

/// Pins the JSONL wire format byte for byte: any change to key order,
/// number spelling or line framing changes these digests. Regenerate
/// only for a deliberate format change, from the same two commands.
#[test]
fn trace_wire_format_matches_the_golden_digests() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-trace-golden");
    for (name, policy, digest, bytes, lines) in [
        (
            "change_point.jsonl",
            &FAULTED_CHANGE_POINT[..],
            0x91fb_01ad_d75f_0598_u64,
            1_174_214,
            16_603,
        ),
        (
            "ema.jsonl",
            &EMA_TIMEOUT[..],
            0x5b1c_18d4_ee1e_8c39,
            3_600_089,
            39_933,
        ),
    ] {
        let text = std::fs::read(traced_mp3_ab(&dir, name, policy)).expect("trace written");
        let newlines = text.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(
            (fleet::checkpoint::fnv1a64(&text), text.len(), newlines),
            (digest, bytes, lines),
            "{name}: trace bytes changed"
        );
    }
}

const ALL_KINDS: &str = "run,mode,freq,rate,sleep,wake,drop,degrade,frame";

#[test]
fn tracecat_filter_with_every_kind_reproduces_the_trace() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-filter-all");
    let trace = traced_mp3_ab(&dir, "run.jsonl", &FAULTED_CHANGE_POINT);
    let out = tracecat()
        .args(["filter", "--kinds", ALL_KINDS])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == std::fs::read(&trace).expect("trace written"),
        "filtering with every kind must re-emit the input byte for byte"
    );
}

/// `tracecat filter … | head -1`: the reader closes after one line
/// while megabytes remain, so the next write meets a closed pipe.
#[test]
fn tracecat_filter_exits_cleanly_when_the_reader_closes_early() {
    use std::io::BufRead;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("dvsdpm-cli-filter-pipe");
    let trace = traced_mp3_ab(&dir, "run.jsonl", &EMA_TIMEOUT);
    let mut child = tracecat()
        .args(["filter", "--kinds", ALL_KINDS])
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("{\"kind\":\"run_start\""), "{first}");
    // The reader (and with it the pipe's only read end) is dropped here.
    let out = child.wait_with_output().expect("tracecat exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs `tracecat` with `args` after the `mp3:AB` trace of
/// `EMA_TIMEOUT` (written under `dir`), its stdout a pipe whose read
/// end is closed right after spawn, before the trace has even loaded,
/// so every write the command makes fails with `BrokenPipe`. Requires
/// exit code `code` and no panic.
fn assert_clean_exit_into_a_closed_pipe(dir: &str, args: &[&str], code: i32) {
    use std::process::Stdio;

    let trace = traced_mp3_ab(&std::env::temp_dir().join(dir), "run.jsonl", &EMA_TIMEOUT);
    let mut child = tracecat()
        .args(args)
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("tracecat exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn tracecat_summary_exits_cleanly_into_a_closed_pipe() {
    assert_clean_exit_into_a_closed_pipe("dvsdpm-cli-summary-pipe", &["summary"], 0);
}

#[test]
fn tracecat_freq_table_exits_cleanly_into_a_closed_pipe() {
    assert_clean_exit_into_a_closed_pipe("dvsdpm-cli-freq-table-pipe", &["freq-table"], 0);
}

#[test]
fn tracecat_replay_exits_cleanly_into_a_closed_pipe() {
    assert_clean_exit_into_a_closed_pipe("dvsdpm-cli-replay-pipe", &["replay", "--json"], 0);
}

#[test]
fn tracecat_assert_keeps_its_verdict_into_a_closed_pipe() {
    let dir = std::env::temp_dir().join("dvsdpm-cli-assert-pipe");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // An impossible delay bound: every frame violates, exit code 3.
    let config = dir.join("strict.json");
    std::fs::write(
        &config,
        r#"{ "delay": { "bound_s": 1e-9, "tolerance": 0.0 } }"#,
    )
    .expect("config written");
    let config = config.to_str().expect("utf8 temp path");
    assert_clean_exit_into_a_closed_pipe(
        "dvsdpm-cli-assert-pipe",
        &["assert", "--config", config],
        3,
    );
}
