//! The traced run against the engine: on a tiny version of every
//! workload, at one and two workers, `run_traced` must reproduce
//! `fleet::run_fleet_opts` byte for byte — report, `fleet.jsonl` and
//! every device trace — and its spans must account for its time.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use faults::FaultPreset;
use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use fleetbench::metrics::Decomposition;
use fleetbench::traced::{run_traced, TracedRun};
use fleetbench::workloads::{Workload, NAMES};
use simcore::par::Jobs;

/// Parallel-loop profiling is process-wide, so a traced run must not
/// overlap another fleet run: the tests here take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A directory of this test's own under Cargo's scratch space.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fleetbench")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file a run left in its trace directory, by name.
fn trace_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let Ok(entries) = fs::read_dir(dir.join("trace")) else {
        return Vec::new();
    };
    let mut files: Vec<(String, Vec<u8>)> = entries
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Runs `spec` through the engine and through the traced run, in four
/// device batches, and checks that they agree.
fn check(tag: &str, w: &Workload, spec: &FleetSpec) -> TracedRun {
    let options = |dir: &Path| RunOptions {
        batch: 4,
        ..w.options(dir)
    };
    let jobs = Jobs::Count(w.jobs);
    let (engine_dir, traced_dir) = (
        scratch(&format!("{tag}-engine")),
        scratch(&format!("{tag}-traced")),
    );
    let expected = run_fleet_opts(spec, jobs, &options(&engine_dir)).unwrap();
    let traced = run_traced(spec, jobs, &options(&traced_dir)).unwrap();
    assert_eq!(
        traced.bytes,
        expected.to_json_pretty(),
        "{tag}: report bytes"
    );
    let (engine_files, traced_files) = (trace_files(&engine_dir), trace_files(&traced_dir));
    assert_eq!(
        engine_files.len(),
        traced_files.len(),
        "{tag}: trace file count"
    );
    assert!(engine_files == traced_files, "{tag}: trace file bytes");
    if w.io {
        assert_eq!(
            engine_files.len(),
            spec.devices + 1,
            "{tag}: one trace per device plus fleet.jsonl"
        );
    }
    let _ = fs::remove_dir_all(&engine_dir);
    let _ = fs::remove_dir_all(&traced_dir);

    let d = Decomposition::of(&traced);
    let device = d.totals["fleet.device"];
    assert_eq!(
        device.spans, spec.devices as u64,
        "{tag}: one root span per device"
    );
    assert_eq!(
        d.totals["fleet.fold"].spans, spec.devices as u64,
        "{tag}: one fold per device"
    );
    assert!(traced.attempts >= spec.devices as u64, "{tag}");
    let coverage = d.coverage();
    assert!(
        coverage > 0.5 && coverage <= 1.0 + 1e-9,
        "{tag}: coverage {coverage}"
    );
    traced
}

#[test]
fn traced_run_reproduces_the_engine_on_every_workload_at_one_and_two_jobs() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for name in NAMES {
        // One full cross product: every cohort runs at least once.
        let devices = match name {
            "paper_mix" => 12,
            "short_mp3" => 9,
            _ => 18,
        };
        for jobs in [1, 2] {
            let w = Workload::new(name, 42, Some(devices), Some(jobs)).unwrap();
            let spec = FleetSpec::parse(&w.spec_json).unwrap();
            check(&format!("{name}-j{jobs}"), &w, &spec);
        }
    }
}

#[test]
fn traced_run_reproduces_the_engine_through_retries() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Find a seed whose tiny `ops_traced` fleet dooms a flaky attempt,
    // so the retry ladder and its wasted trace build really run.
    let devices = 18;
    let seed = (1..200u64)
        .find(|&seed| {
            let w = Workload::new("ops_traced", seed, Some(devices), None).unwrap();
            let spec = FleetSpec::parse(&w.spec_json).unwrap();
            (0..devices).any(|i| {
                let a = spec.assignment(i);
                matches!(a.faults, FaultPreset::Flaky { .. }) && a.faults.spec(a.seed).is_some()
            })
        })
        .expect("some seed below 200 dooms a flaky attempt");
    for jobs in [1, 2] {
        let w = Workload::new("ops_traced", seed, Some(devices), Some(jobs)).unwrap();
        let spec = FleetSpec::parse(&w.spec_json).unwrap();
        let traced = check(&format!("retry-j{jobs}"), &w, &spec);
        assert!(
            traced.attempts > devices as u64,
            "seed {seed} retried no device"
        );
        let d = Decomposition::of(&traced);
        assert!(d.totals["fleet.failed_attempt"].spans > 0);
        assert!(d.totals["trace.monitor"].items > 0);
        assert!(d.totals["trace.sink"].items > 0);
        assert!(
            traced.violations > 0,
            "the mistuned cohort violates its invariants"
        );
    }
}
