//! Byte-identity golden for the aggregate fleet report.
//!
//! `tests/golden/fleet_8dev_seed42.json` is the canonical output for
//! the 8-device spec in `tests/golden/fleet_8dev_spec.json` — one full
//! workloads × policies × faults cross product at base seed 42. The
//! engine must reproduce it **byte for byte** at any worker count and
//! any optimization level. Regenerate (after an intentional change)
//! with:
//!
//! ```text
//! cargo run --release --bin dvsdpm -- fleet \
//!     --spec tests/golden/fleet_8dev_spec.json \
//!     --json tests/golden/fleet_8dev_seed42.json
//! ```

use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use simcore::par::Jobs;

fn golden_spec() -> FleetSpec {
    FleetSpec::parse(include_str!("golden/fleet_8dev_spec.json")).expect("golden spec parses")
}

fn golden_json() -> String {
    include_str!("golden/fleet_8dev_seed42.json")
        .trim_end()
        .to_string()
}

#[test]
fn fleet_report_matches_golden_bytes() {
    let report = run_fleet_opts(&golden_spec(), Jobs::Auto, &RunOptions::default())
        .expect("golden fleet runs");
    assert_eq!(
        report.to_json_pretty(),
        golden_json(),
        "FleetReport JSON drifted from the checked-in golden"
    );
}

#[test]
fn fleet_golden_holds_at_every_jobs_count() {
    for jobs in [1, 2, 8] {
        let report = run_fleet_opts(&golden_spec(), Jobs::Count(jobs), &RunOptions::default())
            .expect("golden fleet runs");
        assert_eq!(
            report.to_json_pretty(),
            golden_json(),
            "FleetReport diverged from the golden at jobs={jobs}"
        );
    }
}

#[test]
fn golden_headline_sanity() {
    // Independent of exact bytes: the golden's own numbers must stay
    // self-consistent (guards against committing a stale/foreign file).
    let (name, devices, mean_energy) =
        fleet::FleetReport::headline_from_json(&golden_json()).expect("golden parses");
    assert_eq!(name, "golden-8");
    assert_eq!(devices, 8);
    assert!(
        mean_energy > 0.0 && mean_energy < 1.0,
        "energy {mean_energy} kJ"
    );
}
