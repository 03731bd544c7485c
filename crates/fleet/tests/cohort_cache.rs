//! The cohort engine's cache-traffic contract: once a policy's
//! threshold table is resolved, a fleet run performs **one** cache
//! lookup per change-point policy (the cohort pre-resolution) and zero
//! per device — the contention fix that lets device throughput scale
//! with workers instead of serializing on the cache.
//!
//! This lives in its own integration binary (one test) because it
//! asserts on the process-wide cache counters: any concurrent test
//! touching the cache would pollute the deltas.

use fleet::{run_fleet_opts, FleetSpec, RunOptions};
use simcore::par::Jobs;

#[test]
fn fleet_runs_touch_the_cache_once_per_policy_not_per_device() {
    let spec = FleetSpec::parse(
        r#"{
            "name": "cache-traffic",
            "devices": 9,
            "base_seed": 99,
            "workloads": ["mp3:A"],
            "policies": [
                { "governor": "change-point", "dpm": "none" },
                { "governor": "max", "dpm": "none" }
            ],
            "faults": ["off"]
        }"#,
    )
    .expect("valid spec");

    // First run calibrates (one miss) and pre-resolves per policy.
    run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default()).expect("warm run");

    let before = detect::cache::cache_stats_detailed();
    run_fleet_opts(&spec, Jobs::Count(2), &RunOptions::default()).expect("measured run");
    let delta = detect::cache::cache_stats_detailed().since(&before);

    assert_eq!(delta.misses, 0, "warm fleet run must never recalibrate");
    assert_eq!(
        delta.hits, 1,
        "exactly one lookup for the one change-point policy — devices do zero cache traffic"
    );
}
