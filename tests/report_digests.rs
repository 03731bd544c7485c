//! The report-digest table: the byte-identity contract for single-device
//! runs across every policy, workload and fault preset.
//!
//! `tests/golden/report_digests.tsv` holds one row per cell of
//! workload × governor × DPM × fault preset (3 × 4 × 7 × 4 = 336 plain
//! runs), plus three runs with a JSONL sink and an assertion monitor
//! attached. Each row pins the report's FNV-1a digest and byte length
//! and the number of events the kernel popped; attached rows also pin
//! the trace stream's digest and length, and their streams must replay
//! (`trace::replay`) to their reports. Tier-1 checks a pairwise
//! covering subset (every pair of levels from two factors appears in at
//! least one row); the full product is `#[ignore]`d and runs nightly.
//!
//! A change that moves a row must name the row and the reason in the
//! changelog. Regenerate (after an intentional change) with:
//!
//! ```text
//! cargo test --release --test report_digests -- --ignored; \
//!     cp target/tmp/report_digests.tsv tests/golden/report_digests.tsv
//! ```

use std::collections::{BTreeMap, HashMap};

use faults::FaultPreset;
use fleet::checkpoint::fnv1a64;
use fleet::FleetSpec;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::metrics::ModeKey;
use powermgr::scenario::{Attachments, Workload};
use powermgr::{SharedResources, SimReport, SystemSimulator};
use simcore::json::ToJson;
use simcore::par::{par_map_range, Jobs};
use trace::{AssertionMonitor, JsonlSink};

const WORKLOADS: [&str; 3] = ["mp3:ACEFBD", "mpeg:football", "session"];
const GOVERNORS: [&str; 4] = ["ideal", "change-point", "ema:0.05", "max"];
const DPMS: [&str; 7] = [
    "none",
    "timeout:1.0",
    "break-even",
    "adaptive",
    "predictive",
    "renewal",
    "tismdp",
];
const FAULTS: [&str; 4] = ["off", "wlan", "decoder", "all"];

const TABLE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/report_digests.tsv"
);
const HEADER: &str = concat!(
    "workload\tgovernor\tdpm\tfaults\tseed\tattach\t",
    "report_fnv1a64\treport_bytes\tkernel_events\ttrace_fnv1a64\ttrace_bytes"
);

/// One cell as level indices `[workload, governor, dpm, faults]`.
type Cell = [usize; 4];

/// Each cell's seed is fixed by its position in the full product.
fn seed(c: Cell) -> u64 {
    (((c[0] * GOVERNORS.len() + c[1]) * DPMS.len() + c[2]) * FAULTS.len() + c[3]) as u64 + 1
}

fn full_product() -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in 0..WORKLOADS.len() {
        for g in 0..GOVERNORS.len() {
            for d in 0..DPMS.len() {
                for f in 0..FAULTS.len() {
                    cells.push([w, g, d, f]);
                }
            }
        }
    }
    cells
}

/// One row per DPM × governor pair (the largest two-factor product),
/// with fault preset and workload rotated so that every other pair of
/// levels is covered too.
fn pairwise() -> Vec<Cell> {
    let mut cells = Vec::new();
    for d in 0..DPMS.len() {
        for g in 0..GOVERNORS.len() {
            cells.push([(d + 2 * g) % 3, g, d, (g + d) % 4]);
        }
    }
    cells
}

/// The attached runs: one per workload, policies chosen to exercise
/// the detector, a stochastic DPM and a fault preset each.
fn attached() -> Vec<Cell> {
    vec![[0, 1, 6, 1], [1, 2, 1, 2], [2, 0, 5, 3]]
}

/// The CLI's config for a cell: a fault preset brings the supervisor
/// and a bounded buffer.
fn config(c: Cell) -> SystemConfig {
    SystemConfig::with_faults(
        GovernorKind::parse(GOVERNORS[c[1]]).unwrap(),
        DpmKind::parse(DPMS[c[2]]).unwrap(),
        FaultPreset::parse(FAULTS[c[3]]).unwrap().spec(seed(c)),
    )
}

fn key(c: Cell, attach: &str) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{attach}",
        WORKLOADS[c[0]],
        GOVERNORS[c[1]],
        DPMS[c[2]],
        FAULTS[c[3]],
        seed(c)
    )
}

fn plain_row(c: Cell) -> String {
    let workload = Workload::parse(WORKLOADS[c[0]]).unwrap();
    let trace = workload.build(seed(c)).unwrap();
    let (report, events) =
        SystemSimulator::new_shared(&trace, config(c), seed(c), &SharedResources::default())
            .unwrap()
            .run_counted(trace.end())
            .unwrap();
    let json = report.to_json().dump();
    format!(
        "{}\t{:016x}\t{}\t{events}\t-\t-",
        key(c, "plain"),
        fnv1a64(json.as_bytes()),
        json.len()
    )
}

fn assertion_config() -> trace::AssertionConfig {
    FleetSpec::parse(include_str!("golden/fleet_assert_8dev_spec.json"))
        .unwrap()
        .assertions
        .unwrap()
}

/// Replays a JSONL stream and requires it to reproduce `report`: the
/// five counters exactly, both residency maps with the same buckets
/// and bits, the duration and the mean frame delay to the bit.
fn assert_replays_to(stream: &[u8], report: &SimReport, row: &str) {
    let text = std::str::from_utf8(stream).expect("JSONL is UTF-8");
    let summary = trace::replay(&trace::parse_jsonl(text).expect("JSONL parses"));
    assert_eq!(
        [
            summary.frames_completed,
            summary.freq_switches,
            summary.rate_changes,
            summary.sleeps,
            summary.wakes,
            summary.buffer_drops,
            summary.degraded_entries
        ],
        [
            report.frames_completed,
            report.freq_switches,
            report.rate_changes,
            report.sleeps,
            report.wakes,
            report.robustness.frames_dropped,
            report.robustness.degraded_entries
        ],
        "{row}: frames, switches, rate changes, sleeps, wakes, buffer drops, degraded entries"
    );
    let replayed_modes: BTreeMap<ModeKey, u64> = summary
        .mode_secs()
        .into_iter()
        .map(|(m, secs)| (ModeKey::from_trace(m), secs.to_bits()))
        .collect();
    let report_modes: BTreeMap<ModeKey, u64> = report
        .mode_secs
        .iter()
        .map(|(&k, secs)| (k, secs.to_bits()))
        .collect();
    assert_eq!(replayed_modes, report_modes, "{row}: mode_secs");
    let bits = |m: &BTreeMap<u32, f64>| -> BTreeMap<u32, u64> {
        m.iter().map(|(&k, secs)| (k, secs.to_bits())).collect()
    };
    assert_eq!(
        bits(&summary.freq_secs()),
        bits(&report.freq_residency),
        "{row}: freq_residency"
    );
    assert_eq!(
        summary.duration_secs().to_bits(),
        report.duration_secs.to_bits(),
        "{row}: duration_secs"
    );
    assert_eq!(
        summary.delays.mean().to_bits(),
        report.frame_delays.mean().to_bits(),
        "{row}: mean frame delay"
    );
}

/// A run with a JSONL sink and an assertion monitor attached, through
/// the workload entry point; its stream must replay to its report. The
/// kernel count comes from an identically attached simulator, which
/// must reproduce both streams.
fn attached_row(c: Cell) -> String {
    let workload = Workload::parse(WORKLOADS[c[0]]).unwrap();
    let config = config(c);
    let assertions = assertion_config();

    let mut sink = JsonlSink::new(Vec::new());
    let mut monitor = AssertionMonitor::new(&assertions).unwrap();
    let attach = Attachments {
        shared: None,
        sink: Some(&mut sink),
        monitor: Some(&mut monitor),
    };
    let report = workload.run(&config, seed(c), attach).unwrap();
    assert!(
        report.assertions.is_some(),
        "the monitor's verdict is reported"
    );
    let json = report.to_json().dump();
    let stream = sink.into_inner();
    assert_replays_to(&stream, &report, &key(c, "sink+monitor"));

    let trace = workload.build(seed(c)).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let mut monitor = AssertionMonitor::new(&assertions).unwrap();
    let none = SharedResources::default();
    let mut sim =
        SystemSimulator::new_traced_shared(&trace, config, seed(c), &none, &mut sink).unwrap();
    sim.attach_monitor(&mut monitor);
    let (direct, events) = sim.run_counted(trace.end()).unwrap();
    assert_eq!(direct.to_json().dump(), json, "{}", key(c, "sink+monitor"));
    assert!(sink.into_inner() == stream, "{}", key(c, "sink+monitor"));

    format!(
        "{}\t{:016x}\t{}\t{events}\t{:016x}\t{}",
        key(c, "sink+monitor"),
        fnv1a64(json.as_bytes()),
        json.len(),
        fnv1a64(&stream),
        stream.len()
    )
}

/// The committed table, keyed by the row's leading columns.
fn table() -> HashMap<String, String> {
    let text = std::fs::read_to_string(TABLE_PATH).expect("digest table is committed");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(HEADER), "table header");
    lines.map(|line| (row_key(line), line.to_owned())).collect()
}

/// A row's leading columns: workload, governor, DPM, faults, seed and
/// attachments.
fn row_key(row: &str) -> String {
    row.splitn(7, '\t').take(6).collect::<Vec<_>>().join("\t")
}

/// Lists every row that differs from the committed table.
fn mismatches(rows: Vec<String>) -> Vec<String> {
    let table = table();
    rows.into_iter()
        .filter_map(|row| match table.get(&row_key(&row)) {
            Some(expected) if *expected == row => None,
            Some(expected) => Some(format!("expected {expected}\n     got {row}")),
            None => Some(format!("missing  {row}")),
        })
        .collect()
}

fn compute(cells: &[Cell], row: fn(Cell) -> String) -> Vec<String> {
    par_map_range(Jobs::Auto, cells.len(), |i| row(cells[i]))
}

#[test]
fn pairwise_subset_covers_every_pair_of_levels() {
    let sizes = [WORKLOADS.len(), GOVERNORS.len(), DPMS.len(), FAULTS.len()];
    let cells = pairwise();
    assert_eq!(cells.len(), 28);
    for a in 0..4 {
        for b in a + 1..4 {
            for x in 0..sizes[a] {
                for y in 0..sizes[b] {
                    assert!(
                        cells.iter().any(|c| c[a] == x && c[b] == y),
                        "factors {a}/{b}: levels {x}/{y} never appear together"
                    );
                }
            }
        }
    }
}

#[test]
fn pairwise_rows_match_the_table() {
    let bad = mismatches(compute(&pairwise(), plain_row));
    assert!(
        bad.is_empty(),
        "report digests drifted:\n{}",
        bad.join("\n")
    );
}

#[test]
fn attached_rows_match_the_table() {
    let bad = mismatches(compute(&attached(), attached_row));
    assert!(
        bad.is_empty(),
        "attached digests drifted:\n{}",
        bad.join("\n")
    );
}

/// Checks all 336 plain cells and the attached rows, and writes the
/// computed table to `target/tmp/report_digests.tsv` for regeneration.
#[test]
#[ignore = "full 336-cell product; tier-1 checks the pairwise subset"]
fn full_product_matches_the_table() {
    let mut rows = compute(&full_product(), plain_row);
    rows.extend(compute(&attached(), attached_row));
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("report_digests.tsv");
    std::fs::write(&out, format!("{HEADER}\n{}\n", rows.join("\n"))).unwrap();
    let bad = mismatches(rows);
    assert!(
        bad.is_empty(),
        "report digests drifted:\n{}",
        bad.join("\n")
    );
}
