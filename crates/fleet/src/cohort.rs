//! Cohort resources and scheduling for the fleet engine.
//!
//! A fleet enumerates the `workloads × policies × faults` cross product
//! round-robin, so consecutive device indices alternate between
//! configurations. Stepping them in index order is the worst case for
//! locality: every device re-resolves its policy's threshold table
//! through the process-wide cache (a hash of the full calibration key
//! plus shard traffic per lookup) and thrashes the detector tables
//! between cohorts.
//!
//! This module restructures the inner loop around *cohorts* — the
//! groups of devices sharing one cross-product slot:
//!
//! * [`CohortResources::prepare`] resolves every policy's shared
//!   threshold table **once per run** (one cache lookup per policy, not
//!   per device) and hands the [`SharedResources`] to each device
//!   construction, so the per-device hot path performs zero cache
//!   traffic.
//! * [`cohort_key`] is the schedule key for
//!   [`simcore::par::par_try_fold_range_batched_by`]: within a batch,
//!   devices of the same cohort are claimed back-to-back by one worker,
//!   so a cohort's threshold table and detector structures stay hot
//!   while the whole cohort steps.
//! * [`probe_detection_latency`] is the detection-latency probe
//!   rewritten as a run-to-next-decision kernel: inter-arrival samples
//!   are drawn in blocks through [`Exponential::fill`] (the AVX2 `ln4`
//!   path where available) instead of one scalar draw per observation,
//!   and the detector consumes the block until its first decision.
//!
//! Byte-identity is preserved at every step: `fill` is bit-identical to
//! sequential sampling (asserted in `simcore::dist`), the probe RNG is
//! a discarded local fork (over-drawing a block past the decision point
//! is invisible), the shared table is the *same* `Arc` the detector
//! would have resolved itself, and scheduling only permutes claim order
//! — results still fold in ascending device order. The differential
//! tests in `tests/soa_differential.rs` hold the whole pipeline to
//! byte-equal reports against the per-device reference path.

use std::cell::RefCell;
use std::sync::Arc;

use detect::{ChangePointDetector, EmaEstimator, RateEstimator};
use powermgr::config::GovernorKind;
use powermgr::{PmError, SharedResources};
use simcore::dist::Exponential;
use simcore::rng::SimRng;

use crate::spec::FleetSpec;

/// Detection-latency probe: rate step the probe replays, in frames/s.
pub const PROBE_SLOW_RATE: f64 = 10.0;
/// Post-step rate of the probe, frames/s (the paper's fig. 10 step).
pub const PROBE_FAST_RATE: f64 = 60.0;
/// Slow samples fed before the step so detector windows are warm.
pub const PROBE_PREFILL: usize = 150;
/// Upper bound on post-step samples; a detector that has not reacted
/// by then is reported at the cap rather than scanning forever.
pub const PROBE_CAP: usize = 600;

/// Per-policy shared resources, resolved once per fleet run and reused
/// by every device of the policy's cohorts.
#[derive(Debug, Clone, Default)]
pub struct CohortResources {
    /// Indexed by [`crate::spec::DeviceAssignment::policy_index`].
    shared: Vec<SharedResources>,
}

impl CohortResources {
    /// Resolves every policy's shared resources up front: one threshold
    /// cache lookup (and at most one calibration) per distinct
    /// change-point configuration, zero per device.
    ///
    /// Resolution failures are *not* surfaced here: a policy whose
    /// calibration fails gets empty resources, so each of its devices
    /// re-attempts resolution itself and the failure is contained (and
    /// retried) under the spec's `on_error` policy exactly as it was
    /// before cohort stepping existed.
    #[must_use]
    pub fn prepare(spec: &FleetSpec) -> CohortResources {
        CohortResources {
            shared: spec
                .policies
                .iter()
                .map(|p| SharedResources::resolve_governor(&p.governor).unwrap_or_default())
                .collect(),
        }
    }

    /// The shared resources of policy `policy_index`; empty resources
    /// for indexes this run never prepared (the reference path).
    #[must_use]
    pub fn for_policy(&self, policy_index: usize) -> &SharedResources {
        static EMPTY: SharedResources = SharedResources {
            threshold_table: None,
        };
        self.shared.get(policy_index).unwrap_or(&EMPTY)
    }
}

/// The cohort schedule key of `device`: its slot in the
/// `workloads × policies × faults` cross product. Devices with equal
/// keys run the same workload, policy, and fault preset, so scheduling
/// them consecutively keeps one configuration's tables hot.
#[must_use]
pub fn cohort_key(spec: &FleetSpec, device: usize) -> u64 {
    let combos = spec.workloads.len() * spec.policies.len() * spec.faults.len();
    (device % combos.max(1)) as u64
}

thread_local! {
    /// Reusable block-sample buffer: one allocation per worker thread,
    /// not one per probed device.
    static PROBE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Measures how many post-step samples the device's detector needs to
/// register a 10 → 60 frames/s arrival-rate step (the paper's fig. 10
/// workload transition), on a probe stream forked from the attempt
/// seed. `Ok(None)` for governors with no online detector (ideal knows
/// the future, max never looks).
///
/// Inter-arrival samples are drawn in blocks ([`Exponential::fill`])
/// and fed to the detector until its first decision — bit-identical to
/// the scalar one-draw-per-observation loop, because `fill` matches
/// sequential sampling bitwise and the block's unused tail only
/// advances a local RNG fork that is discarded anyway.
///
/// When `shared` carries a pre-resolved threshold table (the cohort
/// path), the change-point detector is built directly from it; with
/// empty resources it resolves through the cache exactly as
/// [`ChangePointDetector::new`] always has.
///
/// # Errors
///
/// Returns a contained, human-readable message for invalid probe rates
/// or detector construction failures.
pub fn probe_detection_latency(
    governor: &GovernorKind,
    seed: u64,
    shared: &SharedResources,
) -> Result<Option<f64>, String> {
    let mut rng = SimRng::seed_from(seed).fork("fleet/detect-probe");
    let probe =
        |rate: f64| Exponential::new(rate).map_err(|e| format!("detection probe rate {rate}: {e}"));
    let slow = probe(PROBE_SLOW_RATE)?;
    let fast = probe(PROBE_FAST_RATE)?;

    match governor {
        GovernorKind::Ideal | GovernorKind::MaxPerformance => Ok(None),
        GovernorKind::ChangePoint(cfg) => {
            let mut det = match &shared.threshold_table {
                Some(table) => ChangePointDetector::with_shared_table(
                    PROBE_SLOW_RATE,
                    Arc::clone(table),
                    cfg.check_interval,
                ),
                None => ChangePointDetector::new(PROBE_SLOW_RATE, cfg.clone()),
            }
            .map_err(|e| PmError::from(e).to_string())?;
            Ok(Some(PROBE_SCRATCH.with(|scratch| {
                let mut buf = scratch.borrow_mut();
                buf.resize(PROBE_PREFILL.max(PROBE_CAP), 0.0);
                slow.fill(&mut rng, &mut buf[..PROBE_PREFILL]);
                for &dt in &buf[..PROBE_PREFILL] {
                    let _ = det.observe(dt);
                }
                fast.fill(&mut rng, &mut buf[..PROBE_CAP]);
                for (n, &dt) in buf[..PROBE_CAP].iter().enumerate() {
                    if det.observe(dt).is_some() {
                        return (n + 1) as f64;
                    }
                }
                PROBE_CAP as f64
            })))
        }
        GovernorKind::ExpAverage { gain } => {
            let mut est = EmaEstimator::new(PROBE_SLOW_RATE, *gain)
                .map_err(|e| PmError::from(e).to_string())?;
            Ok(Some(PROBE_SCRATCH.with(|scratch| {
                let mut buf = scratch.borrow_mut();
                buf.resize(PROBE_PREFILL.max(PROBE_CAP), 0.0);
                slow.fill(&mut rng, &mut buf[..PROBE_PREFILL]);
                for &dt in &buf[..PROBE_PREFILL] {
                    let _ = est.observe(dt);
                }
                fast.fill(&mut rng, &mut buf[..PROBE_CAP]);
                // The EMA re-estimates continuously; "detected" is the
                // first sample where its estimate is within 10% of the
                // new rate.
                for (n, &dt) in buf[..PROBE_CAP].iter().enumerate() {
                    let _ = est.observe(dt);
                    if est.current_rate() >= 0.9 * PROBE_FAST_RATE {
                        return (n + 1) as f64;
                    }
                }
                PROBE_CAP as f64
            })))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{OnError, PolicySpec};
    use powermgr::config::DpmKind;
    use powermgr::scenario::Workload;
    use simcore::dist::Sample;

    /// The scalar reference probe: one draw per observation, early exit
    /// at the decision — the loop the block kernel replaced.
    fn reference_probe(governor: &GovernorKind, seed: u64) -> Option<f64> {
        let mut rng = SimRng::seed_from(seed).fork("fleet/detect-probe");
        let slow = Exponential::new(PROBE_SLOW_RATE).unwrap();
        let fast = Exponential::new(PROBE_FAST_RATE).unwrap();
        match governor {
            GovernorKind::Ideal | GovernorKind::MaxPerformance => None,
            GovernorKind::ChangePoint(cfg) => {
                let mut det = ChangePointDetector::new(PROBE_SLOW_RATE, cfg.clone()).unwrap();
                for _ in 0..PROBE_PREFILL {
                    let _ = det.observe(slow.sample(&mut rng));
                }
                for n in 1..=PROBE_CAP {
                    if det.observe(fast.sample(&mut rng)).is_some() {
                        return Some(n as f64);
                    }
                }
                Some(PROBE_CAP as f64)
            }
            GovernorKind::ExpAverage { gain } => {
                let mut est = EmaEstimator::new(PROBE_SLOW_RATE, *gain).unwrap();
                for _ in 0..PROBE_PREFILL {
                    let _ = est.observe(slow.sample(&mut rng));
                }
                for n in 1..=PROBE_CAP {
                    let _ = est.observe(fast.sample(&mut rng));
                    if est.current_rate() >= 0.9 * PROBE_FAST_RATE {
                        return Some(n as f64);
                    }
                }
                Some(PROBE_CAP as f64)
            }
        }
    }

    #[test]
    fn blocked_probe_matches_scalar_reference_bitwise() {
        let governors = [
            GovernorKind::quick_change_point(),
            GovernorKind::ExpAverage { gain: 0.05 },
            GovernorKind::Ideal,
            GovernorKind::MaxPerformance,
        ];
        for kind in &governors {
            let shared = SharedResources::resolve_governor(kind).unwrap();
            for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                let want = reference_probe(kind, seed);
                let via_shared = probe_detection_latency(kind, seed, &shared).unwrap();
                let via_cache =
                    probe_detection_latency(kind, seed, &SharedResources::default()).unwrap();
                assert_eq!(
                    want.map(f64::to_bits),
                    via_shared.map(f64::to_bits),
                    "{kind:?} seed {seed}: shared-table probe diverged"
                );
                assert_eq!(
                    want.map(f64::to_bits),
                    via_cache.map(f64::to_bits),
                    "{kind:?} seed {seed}: cache-path probe diverged"
                );
            }
        }
    }

    fn spec_with_policies(policies: Vec<PolicySpec>) -> FleetSpec {
        FleetSpec {
            name: "cohort-test".into(),
            devices: 24,
            base_seed: 7,
            workloads: vec![Workload::Mp3("A".into()), Workload::Session],
            policies,
            faults: vec![faults::FaultPreset::Off],
            on_error: OnError::FailFast,
            assertions: None,
        }
    }

    #[test]
    fn prepare_resolves_each_change_point_policy_to_the_cached_table() {
        let kind = GovernorKind::quick_change_point();
        let spec = spec_with_policies(vec![
            PolicySpec {
                governor: kind.clone(),
                dpm: DpmKind::None,
            },
            PolicySpec {
                governor: GovernorKind::MaxPerformance,
                dpm: DpmKind::None,
            },
            PolicySpec {
                governor: kind.clone(),
                dpm: DpmKind::parse("timeout:1.0").unwrap(),
            },
        ]);
        let res = CohortResources::prepare(&spec);
        let t0 = res
            .for_policy(0)
            .threshold_table
            .as_ref()
            .expect("change-point resolves a table");
        let t2 = res
            .for_policy(2)
            .threshold_table
            .as_ref()
            .expect("change-point resolves a table");
        assert!(
            Arc::ptr_eq(t0, t2),
            "identical detector configs share one cached table"
        );
        assert!(res.for_policy(1).threshold_table.is_none());
        // Out-of-range (the reference path's pseudo-index): empty.
        assert!(res.for_policy(99).threshold_table.is_none());

        // The prepared Arc is the very table a detector would resolve.
        let GovernorKind::ChangePoint(cfg) = &kind else {
            unreachable!()
        };
        let det = ChangePointDetector::new(PROBE_SLOW_RATE, cfg.clone()).unwrap();
        assert!(Arc::ptr_eq(t0, &det.shared_table()));
    }

    #[test]
    fn cohort_key_groups_cross_product_slots() {
        let spec = spec_with_policies(vec![
            PolicySpec {
                governor: GovernorKind::MaxPerformance,
                dpm: DpmKind::None,
            },
            PolicySpec {
                governor: GovernorKind::Ideal,
                dpm: DpmKind::None,
            },
        ]);
        let combos = spec.workloads.len() * spec.policies.len() * spec.faults.len();
        assert_eq!(combos, 4);
        for device in 0..spec.devices {
            assert_eq!(
                cohort_key(&spec, device),
                (device % combos) as u64,
                "device {device}"
            );
            // Same key ⇒ same assignment slot.
            let twin = device + combos;
            let (a, b) = (spec.assignment(device), spec.assignment(twin));
            assert_eq!(cohort_key(&spec, device), cohort_key(&spec, twin));
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.policy_index, b.policy_index);
            assert_eq!(a.faults, b.faults);
        }
    }
}
