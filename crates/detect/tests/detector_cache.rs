//! Detector construction goes through the process-wide threshold cache.
//!
//! This lives in its own integration binary (one test) because it
//! asserts exact deltas of the process-wide cache counters: any
//! concurrent test touching the cache would pollute them.

use detect::cache::cache_stats_detailed;
use detect::{ChangePointConfig, ChangePointDetector};

#[test]
fn identically_configured_detectors_hit_the_threshold_cache() {
    let config = ChangePointConfig {
        window: 60,
        check_interval: 5,
        k_step: 6,
        calibration_trials: 500,
        calibration_seed: 0xCAC4_E100,
        ..ChangePointConfig::default()
    };
    let a = ChangePointDetector::new(10.0, config.clone()).unwrap();
    let before = cache_stats_detailed();
    let b = ChangePointDetector::new(99.0, config).unwrap();
    let delta = cache_stats_detailed().since(&before);
    assert_eq!(delta.misses, 0, "second construction must not recalibrate");
    assert_eq!(delta.hits, 1, "second construction must hit the cache");
    assert!(std::ptr::eq(a.table(), b.table()), "one shared table");
}
