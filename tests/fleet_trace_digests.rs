//! Pins the bytes a traced fleet run writes to disk: every
//! `device_NNNNN.jsonl` and `fleet.jsonl`.
//!
//! The fleet is shaped like fleetbench's `ops_traced` workload, shrunk
//! to one device per cell of its cross product: workloads `mp3:A` and
//! `mp3:BD`, a tuned (`change-point`/`break-even`) and a mistuned
//! (`ema:0.9`/`timeout:0.01`) policy, fault presets `off`, `wlan` and
//! `flaky:10`, `on_error` `retry:8`, and the assertion block of
//! `tests/golden/fleet_assert_8dev_spec.json`. At base seed 19 two
//! flaky devices fail once and retry. It runs through `run_fleet_opts`
//! with a trace directory, the engine's own path, under three batch
//! schedules: the default jobs and batch (the table's own), one worker,
//! and eight workers with a checkpoint after every batch of four.
//! Checkpoint markers are the only lines a checkpointed run adds to
//! `fleet.jsonl`, so its digest is taken without them.
//!
//! `tests/golden/fleet_trace_digests.tsv` holds each file's FNV-1a
//! digest and byte length. Other tests compare two paths of one build;
//! this table holds the bytes still across commits. A change that moves
//! a row must name the row and the reason in the changelog. Regenerate
//! (after an intentional change) with:
//!
//! ```text
//! cargo test --release --test fleet_trace_digests; \
//!     cp target/tmp/fleet_trace_digests.tsv tests/golden/fleet_trace_digests.tsv
//! ```

use std::path::Path;

use fleet::checkpoint::fnv1a64;
use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use simcore::par::Jobs;

const TABLE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_trace_digests.tsv"
);
const HEADER: &str = "file\tfnv1a64\tbytes";

fn spec() -> FleetSpec {
    let mut spec = FleetSpec::parse(
        r#"{
            "name": "golden-trace-12",
            "devices": 12,
            "base_seed": 19,
            "workloads": ["mp3:A", "mp3:BD"],
            "policies": [
                { "governor": "change-point", "dpm": "break-even" },
                { "governor": "ema:0.9", "dpm": "timeout:0.01" }
            ],
            "faults": ["off", "wlan", "flaky:10"],
            "on_error": "retry:8"
        }"#,
    )
    .expect("trace spec parses");
    spec.assertions = FleetSpec::parse(include_str!("golden/fleet_assert_8dev_spec.json"))
        .expect("golden assertion spec parses")
        .assertions;
    assert!(spec.assertions.is_some());
    spec
}

/// Runs the fleet into `dir` at `jobs` under `opts`' schedule and
/// returns one row per file written, in file-name order. A run that
/// checkpoints has `fleet.jsonl` digested without its
/// `fleet_checkpoint` lines; any other run's is digested as written.
fn rows(dir: &Path, jobs: Jobs, opts: RunOptions) -> Vec<String> {
    let checkpointed = opts.checkpoint_dir.is_some();
    let _ = std::fs::remove_dir_all(dir);
    let opts = RunOptions {
        trace_dir: Some(dir.to_path_buf()),
        ..opts
    };
    let report = run_fleet_opts(&spec(), jobs, &opts).expect("traced fleet runs");
    assert_eq!(report.health.completed, 12, "every device completes");
    assert_eq!(
        report.health.retried, 2,
        "two flaky devices retry, so their traces come from a second attempt"
    );

    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let rows = names
        .iter()
        .map(|name| {
            let mut bytes = std::fs::read(dir.join(name)).unwrap();
            if name == "fleet.jsonl" && checkpointed {
                let text = String::from_utf8(bytes).unwrap();
                bytes = text
                    .lines()
                    .filter(|line| !line.contains("\"fleet_checkpoint\""))
                    .flat_map(|line| [line, "\n"])
                    .collect::<String>()
                    .into_bytes();
            }
            format!("{name}\t{:016x}\t{}", fnv1a64(&bytes), bytes.len())
        })
        .collect();
    std::fs::remove_dir_all(dir).unwrap();
    rows
}

#[test]
fn fleet_traces_match_the_table() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run_dir = |tag: &str| tmp.join(format!("fleet_trace_digests_{tag}_{}", std::process::id()));
    let table = std::fs::read_to_string(TABLE_PATH).expect("digest table is committed");
    let checkpoints = run_dir("ckpt");
    let schedules = [
        ("default", Jobs::Auto, RunOptions::default()),
        ("jobs 1", Jobs::Count(1), RunOptions::default()),
        (
            "jobs 8, batch 4, checkpoint every batch",
            Jobs::Count(8),
            RunOptions {
                checkpoint_dir: Some(checkpoints.clone()),
                checkpoint_every: 1,
                batch: 4,
                ..RunOptions::default()
            },
        ),
    ];
    for (k, (schedule, jobs, opts)) in schedules.into_iter().enumerate() {
        let rows = rows(&run_dir(&format!("run{k}")), jobs, opts);
        let computed = format!("{HEADER}\n{}\n", rows.join("\n"));
        if k == 0 {
            std::fs::write(tmp.join("fleet_trace_digests.tsv"), &computed).unwrap();
        }
        assert_eq!(
            rows.len(),
            13,
            "{schedule}: twelve device traces and fleet.jsonl, no temp file:\n{computed}"
        );
        assert!(
            computed == table,
            "{schedule}: fleet trace digests drifted:\nexpected\n{table}\n     got\n{computed}"
        );
    }
    let _ = std::fs::remove_dir_all(&checkpoints);
}
