//! Byte-identity golden for a *monitored* fleet report — the SLO
//! rollup included.
//!
//! `tests/golden/fleet_assert_8dev_seed42.json` is the canonical output
//! for `tests/golden/fleet_assert_8dev_spec.json`: 8 devices at base
//! seed 42 with a streaming assertion monitor on every device. Three
//! cohorts run sensible policies; the fourth is deliberately mistuned
//! (an over-reactive `ema:0.9` governor on a hair-trigger
//! `timeout:0.01` DPM) so it — and only it — trips the V/f
//! oscillation-rate invariant. The report, rollup counts and all, must
//! reproduce **byte for byte** at any worker count. Regenerate (after
//! an intentional change) with:
//!
//! ```text
//! cargo run --release --bin dvsdpm -- fleet \
//!     --spec tests/golden/fleet_assert_8dev_spec.json \
//!     --json tests/golden/fleet_assert_8dev_seed42.json
//! ```

use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use simcore::par::Jobs;

fn golden_spec() -> FleetSpec {
    FleetSpec::parse(include_str!("golden/fleet_assert_8dev_spec.json"))
        .expect("golden assertion spec parses")
}

fn golden_json() -> String {
    include_str!("golden/fleet_assert_8dev_seed42.json")
        .trim_end()
        .to_string()
}

#[test]
fn monitored_fleet_report_matches_golden_bytes_at_every_jobs_count() {
    for jobs in [1, 2, 8] {
        let report = run_fleet_opts(&golden_spec(), Jobs::Count(jobs), &RunOptions::default())
            .expect("golden fleet runs");
        assert_eq!(
            report.to_json_pretty(),
            golden_json(),
            "monitored FleetReport diverged from the golden at jobs={jobs}"
        );
    }
}

#[test]
fn exactly_the_mistuned_cohort_violates() {
    let spec = golden_spec();
    let report =
        run_fleet_opts(&spec, Jobs::Auto, &RunOptions::default()).expect("golden fleet runs");

    let slo = report.slo.expect("monitored fleet carries a rollup");
    assert_eq!(slo.monitored, 8, "every device is monitored");
    assert_eq!(slo.violating, 2, "both devices of one cohort violate");
    assert!(slo.oscillation > 0, "the mistuned governor must flap V/f");
    assert_eq!(
        slo.delay + slo.occupancy + slo.energy_monotone,
        0,
        "no invariant other than oscillation may trip"
    );

    // Cohort 3 is the mistuned one; the rest must be clean.
    for cohort in &report.cohorts {
        let cslo = cohort.slo.expect("every cohort is monitored");
        if cohort.policy == 3 {
            assert_eq!(cslo.violating, 2, "mistuned cohort: both devices violate");
            assert_eq!(cslo.total_violations(), slo.oscillation);
        } else {
            assert_eq!(
                cslo.violating, 0,
                "cohort {} must stay clean",
                cohort.policy
            );
        }
    }
}

#[test]
fn golden_files_agree_with_each_other() {
    // Guards against regenerating one file but not the other: the
    // golden report must have been produced by the golden spec.
    let json = golden_json();
    let (name, devices, _) = fleet::FleetReport::headline_from_json(&json).expect("golden parses");
    assert_eq!(name, "golden-assert-8");
    assert_eq!(devices, 8);
    assert!(
        json.contains("\"slo\""),
        "golden for a monitored fleet must carry the SLO rollup"
    );
}
