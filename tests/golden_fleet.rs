//! Byte-identity goldens for the aggregate fleet report.
//!
//! Each golden pair is a spec in `tests/golden/` and the canonical
//! report for it; the engine must reproduce every report **byte for
//! byte** at any worker count and any optimization level:
//!
//! * `fleet_8dev_seed42.json` — the 8-device `fleet_8dev_spec.json`,
//!   one full workloads × policies × faults cross product at base
//!   seed 42;
//! * `fleet_partial_16dev_seed5.json` — the 16-device
//!   `fleet_partial_16dev_spec.json` (`session` and `mp3:A` under
//!   change-point/TISMDP and EMA/renewal, the `all`, `flaky:50`,
//!   `poison` and `decoder` presets, `retry:2`): a partial report with
//!   retried, recovered, failed and quarantined devices, which pins the
//!   health section.
//!
//! Regenerate (after an intentional change) with, for example:
//!
//! ```text
//! cargo run --release --bin dvsdpm -- fleet \
//!     --spec tests/golden/fleet_8dev_spec.json \
//!     --json tests/golden/fleet_8dev_seed42.json
//! ```
//!
//! (the partial fleet exits 2, and still writes its report).

use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use simcore::par::Jobs;

/// `(spec, report)` for every golden fleet.
const GOLDENS: [(&str, &str); 2] = [
    (
        include_str!("golden/fleet_8dev_spec.json"),
        include_str!("golden/fleet_8dev_seed42.json"),
    ),
    (
        include_str!("golden/fleet_partial_16dev_spec.json"),
        include_str!("golden/fleet_partial_16dev_seed5.json"),
    ),
];

fn check_goldens(jobs: Jobs) {
    for (spec, golden) in GOLDENS {
        let spec = FleetSpec::parse(spec).expect("golden spec parses");
        let report =
            run_fleet_opts(&spec, jobs, &RunOptions::default()).expect("golden fleet runs");
        assert_eq!(
            report.to_json_pretty(),
            golden.trim_end(),
            "FleetReport `{}` drifted from its checked-in golden at jobs={jobs:?}",
            spec.name
        );
    }
}

#[test]
fn fleet_report_matches_golden_bytes() {
    check_goldens(Jobs::Auto);
}

#[test]
fn fleet_golden_holds_at_every_jobs_count() {
    for jobs in [1, 2, 8] {
        check_goldens(Jobs::Count(jobs));
    }
}

#[test]
fn golden_headline_sanity() {
    // Independent of exact bytes: the goldens' own numbers must stay
    // self-consistent (guards against committing a stale/foreign file).
    let expected = [("golden-8", 8), ("golden-partial-16", 16)];
    for ((_, golden), (want_name, want_devices)) in GOLDENS.into_iter().zip(expected) {
        let (name, devices, mean_energy) =
            fleet::FleetReport::headline_from_json(golden).expect("golden parses");
        assert_eq!(name, want_name);
        assert_eq!(devices, want_devices);
        assert!(
            mean_energy > 0.0 && mean_energy < 1.0,
            "energy {mean_energy} kJ"
        );
    }
}
