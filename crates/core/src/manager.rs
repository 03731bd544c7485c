//! The merged power manager (paper Section 3, Figure 8).
//!
//! [`PowerManager`] is the component the paper adds: one entity that
//! observes "request arrivals and service completion times …, the number
//! of jobs in the queue … and the time elapsed since last entry into idle
//! state", and controls **both** the CPU operating point while active and
//! the sleep transitions while idle.

use crate::config::{SupervisorConfig, SystemConfig};
use crate::dvs::DvsPolicy;
use crate::governor::{Governor, RateDetection};
use crate::PmError;
use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::policy::{DpmPolicy, IdlePlan, SleepState};
use hardware::cpu::OperatingPoint;
use hardware::SmartBadge;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::MediaKind;

/// The graceful-degradation watchdog inside the power manager.
///
/// Tracks deadline outcomes over a rolling window plus the last seen
/// buffer occupancy, and decides when to force (and later release) the
/// maximum operating point. See
/// [`SupervisorConfig`](crate::config::SupervisorConfig) for the
/// thresholds and the hysteresis contract.
#[derive(Debug)]
struct Supervisor {
    config: SupervisorConfig,
    recent: VecDeque<bool>,
    recent_misses: usize,
    last_occupancy: usize,
    degraded_since: Option<SimTime>,
    entries: u64,
    total_secs: f64,
}

impl Supervisor {
    fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            recent: VecDeque::new(),
            recent_misses: 0,
            last_occupancy: 0,
            degraded_since: None,
            entries: 0,
            total_secs: 0.0,
        }
    }

    fn miss_ratio(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent_misses as f64 / self.recent.len() as f64
        }
    }

    fn record_deadline(&mut self, missed: bool) {
        self.recent.push_back(missed);
        if missed {
            self.recent_misses += 1;
        }
        while self.recent.len() > self.config.miss_window {
            if self.recent.pop_front() == Some(true) {
                self.recent_misses -= 1;
            }
        }
    }

    /// Re-evaluates the degraded/healthy decision at `now`. Returns
    /// `true` if the state flipped.
    fn evaluate(&mut self, now: SimTime) -> bool {
        match self.degraded_since {
            None => {
                let window_full = self.recent.len() >= self.config.miss_window;
                let misses_bad = window_full && self.miss_ratio() >= self.config.miss_ratio_enter;
                let backlog_bad = self.last_occupancy >= self.config.occupancy_enter;
                if misses_bad || backlog_bad {
                    self.degraded_since = Some(now);
                    self.entries += 1;
                    return true;
                }
                false
            }
            Some(since) => {
                let dwelled = now.saturating_since(since).as_secs_f64() >= self.config.min_dwell_s;
                let misses_ok = self.miss_ratio() <= self.config.miss_ratio_exit;
                let backlog_ok = self.last_occupancy < self.config.occupancy_enter.div_ceil(2);
                if dwelled && misses_ok && backlog_ok {
                    self.total_secs += now.saturating_since(since).as_secs_f64();
                    self.degraded_since = None;
                    return true;
                }
                false
            }
        }
    }

    fn stats(&self, now: SimTime) -> (u64, f64) {
        let open = self
            .degraded_since
            .map_or(0.0, |since| now.saturating_since(since).as_secs_f64());
        (self.entries, self.total_secs + open)
    }
}

/// The combined DVS + DPM power manager.
pub struct PowerManager {
    governor: Governor,
    dvs: DvsPolicy,
    dpm: Box<dyn DpmPolicy>,
    current_op: OperatingPoint,
    current_kind: MediaKind,
    supervisor: Option<Supervisor>,
}

/// Neutral initial arrival-rate estimate, frames/second: a typical
/// media rate. The governor's warm-up replaces it with a data-driven
/// value within 20 frames.
const INITIAL_ARRIVAL_RATE: f64 = 25.0;

/// Neutral initial service-rate estimate, frames/second at maximum
/// frequency; the warm-up replaces it the same way.
const INITIAL_SERVICE_RATE: f64 = 100.0;

impl PowerManager {
    /// Builds the manager from an experiment configuration.
    ///
    /// A change-point governor takes its threshold table from
    /// `shared` when present: a cohort harness resolves it once (see
    /// [`crate::resolve::SharedResources`]) and every manager built
    /// from it performs zero threshold-cache traffic. With
    /// `SharedResources::default()` the governor resolves the table
    /// through the process-wide cache itself; the manager behaves
    /// identically either way.
    ///
    /// # Errors
    ///
    /// Returns an error if any sub-policy rejects its parameters.
    pub fn build_shared(
        badge: &SmartBadge,
        config: &SystemConfig,
        shared: &crate::resolve::SharedResources,
    ) -> Result<Self, PmError> {
        let governor = Governor::build_with_table(
            &config.governor,
            INITIAL_ARRIVAL_RATE,
            INITIAL_SERVICE_RATE,
            shared.threshold_table.as_ref(),
        )?;
        let dvs = DvsPolicy::smartbadge().with_queue_model(config.queue_model)?;
        let costs = DpmCosts::managed_subsystem(badge);
        let dpm = config
            .dpm
            .build(&costs, &IdleMixture::streaming_default()?)?;
        let supervisor = match &config.supervisor {
            Some(sup) => {
                sup.validate()?;
                Some(Supervisor::new(sup.clone()))
            }
            None => None,
        };
        let current_op = badge.cpu().max_operating_point();
        Ok(PowerManager {
            governor,
            dvs,
            dpm,
            current_op,
            current_kind: MediaKind::Mp3Audio,
            supervisor,
        })
    }

    /// The operating point currently selected.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        self.current_op
    }

    /// The DVS policy (performance curves, target delays).
    #[must_use]
    pub fn dvs(&self) -> &DvsPolicy {
        &self.dvs
    }

    /// The governor's label for reports.
    #[must_use]
    pub fn governor_label(&self) -> &'static str {
        self.governor.label()
    }

    /// The DPM policy's label for reports.
    #[must_use]
    pub fn dpm_label(&self) -> &'static str {
        self.dpm.name()
    }

    /// Rate changes signalled so far.
    #[must_use]
    pub fn rate_changes(&self) -> u64 {
        self.governor.rate_changes()
    }

    /// Details of the governor's most recent rate change (stream, new
    /// rate, change-point statistic), for the trace layer.
    #[must_use]
    pub fn last_rate_detection(&self) -> Option<RateDetection> {
        self.governor.last_detection()
    }

    /// Reports one completed frame's deadline outcome to the supervisor
    /// and re-evaluates the degraded/healthy decision at `now`.
    ///
    /// Returns the new operating point if the supervisor flipped state
    /// and that changed the selection. A no-op when no supervisor is
    /// configured.
    pub fn note_deadline(&mut self, now: SimTime, missed: bool) -> Option<OperatingPoint> {
        let sup = self.supervisor.as_mut()?;
        sup.record_deadline(missed);
        if sup.evaluate(now) {
            self.reselect()
        } else {
            None
        }
    }

    /// Reports the buffer occupancy to the supervisor and re-evaluates
    /// at `now`. Returns the new operating point on a state flip.
    pub fn note_occupancy(&mut self, now: SimTime, depth: usize) -> Option<OperatingPoint> {
        let sup = self.supervisor.as_mut()?;
        sup.last_occupancy = depth;
        if sup.evaluate(now) {
            self.reselect()
        } else {
            None
        }
    }

    /// `true` while the supervisor holds the degraded (max-performance)
    /// operating point.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|s| s.degraded_since.is_some())
    }

    /// `(entries, total seconds)` spent in degraded mode, counting a
    /// still-open degraded interval up to `now`.
    #[must_use]
    pub fn degraded_stats(&self, now: SimTime) -> (u64, f64) {
        self.supervisor.as_ref().map_or((0, 0.0), |s| s.stats(now))
    }

    /// Degenerate samples the governor's estimators rejected.
    #[must_use]
    pub fn rejected_samples(&self) -> u64 {
        self.governor.rejected_samples()
    }

    fn reselect(&mut self) -> Option<OperatingPoint> {
        let new_op = if self.governor.wants_max() || self.is_degraded() {
            self.dvs.cpu().max_operating_point()
        } else {
            self.dvs
                .select(
                    self.current_kind,
                    self.governor.arrival_rate(),
                    self.governor.service_rate(),
                )
                .unwrap_or_else(|_| self.dvs.cpu().max_operating_point())
        };
        if (new_op.freq_mhz - self.current_op.freq_mhz).abs() > 1e-9 {
            self.current_op = new_op;
            Some(new_op)
        } else {
            None
        }
    }

    /// Notifies the manager of a frame arrival. `gap_s` is the
    /// interarrival time in seconds, `None` when the previous frame ended
    /// an idle period; it is *not* assumed well-formed — a faulty link
    /// can hand the manager a zero or NaN gap, which the governor rejects
    /// and counts. `truth` is the generator's true arrival rate (used
    /// only by the ideal governor).
    ///
    /// Returns the new operating point if the DVS policy changed it.
    pub fn on_arrival(
        &mut self,
        kind: MediaKind,
        gap_s: Option<f64>,
        truth: f64,
    ) -> Option<OperatingPoint> {
        self.current_kind = kind;
        if self.governor.on_arrival(gap_s, truth) {
            self.reselect()
        } else {
            None
        }
    }

    /// Notifies the manager of a completed decode: `work_at_max` is the
    /// frame's decode time at the maximum frequency, `truth` the true
    /// decode rate at maximum frequency.
    ///
    /// Returns the new operating point if the DVS policy changed it.
    pub fn on_decode_complete(
        &mut self,
        kind: MediaKind,
        work_at_max: f64,
        truth: f64,
    ) -> Option<OperatingPoint> {
        self.current_kind = kind;
        if self.governor.on_decode(work_at_max, truth) {
            self.reselect()
        } else {
            None
        }
    }

    /// Asks the DPM policy for this idle period's sleep schedule.
    pub fn plan_idle(&mut self, rng: &mut SimRng) -> IdlePlan {
        self.dpm.plan_idle(rng)
    }

    /// Reports the end of an idle period to the DPM policy.
    pub fn on_idle_end(&mut self, idle_len: SimDuration, deepest: Option<SleepState>) {
        self.dpm.on_idle_end(idle_len, deepest);
    }
}

impl std::fmt::Debug for PowerManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerManager")
            .field("governor", &self.governor.label())
            .field("dpm", &self.dpm.name())
            .field("operating_point", &self.current_op)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpmKind, GovernorKind};
    use crate::resolve::SharedResources;

    fn manager(kind: GovernorKind) -> PowerManager {
        let badge = SmartBadge::new();
        let config = SystemConfig {
            governor: kind,
            dpm: DpmKind::BreakEven,
            ..SystemConfig::default()
        };
        PowerManager::build_shared(&badge, &config, &SharedResources::default()).unwrap()
    }

    #[test]
    fn starts_at_max_operating_point() {
        let m = manager(GovernorKind::Ideal);
        assert!((m.operating_point().freq_mhz - 221.2).abs() < 1e-9);
    }

    #[test]
    fn ideal_manager_lowers_frequency_for_light_load() {
        let mut m = manager(GovernorKind::Ideal);
        // Truth: 14 fr/s arrivals, 215 fr/s decode capability.
        let op = m.on_arrival(MediaKind::Mp3Audio, Some(0.07), 14.0);
        let op2 = m.on_decode_complete(MediaKind::Mp3Audio, 0.005, 215.0);
        let final_op = op2.or(op).expect("truth changed, op must change");
        assert!(final_op.freq_mhz < 221.2);
        assert_eq!(m.operating_point(), final_op);
    }

    #[test]
    fn max_perf_manager_never_moves() {
        let mut m = manager(GovernorKind::MaxPerformance);
        assert!(m
            .on_arrival(MediaKind::MpegVideo, Some(0.05), 20.0)
            .is_none());
        assert!(m
            .on_decode_complete(MediaKind::MpegVideo, 0.01, 90.0)
            .is_none());
        assert!((m.operating_point().freq_mhz - 221.2).abs() < 1e-9);
    }

    #[test]
    fn overload_keeps_max_frequency() {
        let mut m = manager(GovernorKind::Ideal);
        // Arrivals faster than the decoder can ever manage.
        m.on_arrival(MediaKind::MpegVideo, Some(0.03), 32.0);
        m.on_decode_complete(MediaKind::MpegVideo, 0.03, 33.0);
        assert!((m.operating_point().freq_mhz - 221.2).abs() < 1e-9);
    }

    #[test]
    fn idle_plan_comes_from_dpm_policy() {
        let mut m = manager(GovernorKind::Ideal);
        let plan = m.plan_idle(&mut SimRng::seed_from(0));
        assert_eq!(
            plan.transitions().len(),
            1,
            "break-even timeout plans one step"
        );
        m.on_idle_end(SimDuration::from_secs(10), Some(SleepState::Standby));
        assert_eq!(m.dpm_label(), "fixed-timeout");
    }

    #[test]
    fn labels_surface_config() {
        let m = manager(GovernorKind::ExpAverage { gain: 0.3 });
        assert_eq!(m.governor_label(), "exp-average");
        assert!(format!("{m:?}").contains("exp-average"));
    }

    fn supervised_manager() -> PowerManager {
        let badge = SmartBadge::new();
        let config = SystemConfig {
            governor: GovernorKind::Ideal,
            dpm: DpmKind::None,
            supervisor: Some(SupervisorConfig {
                miss_window: 10,
                miss_ratio_enter: 0.5,
                miss_ratio_exit: 0.1,
                occupancy_enter: 16,
                min_dwell_s: 1.0,
            }),
            ..SystemConfig::default()
        };
        let mut m =
            PowerManager::build_shared(&badge, &config, &SharedResources::default()).unwrap();
        // Light load so the DVS picks a low point we can degrade from.
        m.on_arrival(MediaKind::Mp3Audio, Some(0.07), 14.0);
        m.on_decode_complete(MediaKind::Mp3Audio, 0.005, 215.0);
        assert!(m.operating_point().freq_mhz < 221.2);
        m
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn supervisor_disabled_by_default() {
        let mut m = manager(GovernorKind::Ideal);
        assert!(m.note_deadline(secs(1.0), true).is_none());
        assert!(m.note_occupancy(secs(1.0), 10_000).is_none());
        assert!(!m.is_degraded());
        assert_eq!(m.degraded_stats(secs(9.0)), (0, 0.0));
    }

    #[test]
    fn supervisor_enters_on_miss_ratio_and_exits_with_hysteresis() {
        let mut m = supervised_manager();
        // Fill the window with healthy frames, then a burst of misses.
        let mut t = 0.0;
        for _ in 0..10 {
            t += 0.1;
            assert!(m.note_deadline(secs(t), false).is_none());
        }
        for _ in 0..4 {
            t += 0.1;
            assert!(m.note_deadline(secs(t), true).is_none(), "4/10 is healthy");
        }
        assert!(!m.is_degraded());
        // The fifth miss pushes the windowed ratio to 5/10 = enter.
        t += 0.1;
        let degraded = m.note_deadline(secs(t), true).expect("enters degraded");
        assert!((degraded.freq_mhz - 221.2).abs() < 1e-9);
        assert!(m.is_degraded());
        let entered_at = t;
        // Healthy frames pour in, but the dwell keeps it degraded…
        t += 0.2;
        assert!(m.note_deadline(secs(t), false).is_none());
        assert!(m.is_degraded());
        // …and even past the dwell the ratio must decay below exit.
        for _ in 0..20 {
            t += 0.2;
            m.note_deadline(secs(t), false);
            if !m.is_degraded() {
                break;
            }
        }
        assert!(!m.is_degraded(), "supervisor re-enters governing");
        assert!(m.operating_point().freq_mhz < 221.2);
        let (entries, secs_degraded) = m.degraded_stats(secs(t));
        assert_eq!(entries, 1);
        assert!(secs_degraded >= 1.0, "dwelled at least min_dwell_s");
        assert!(t - entered_at >= 1.0);
    }

    #[test]
    fn supervisor_enters_on_backlog_and_requires_drain_to_exit() {
        let mut m = supervised_manager();
        assert!(m.note_occupancy(secs(0.1), 15).is_none());
        let op = m.note_occupancy(secs(0.2), 16).expect("backlog trigger");
        assert!((op.freq_mhz - 221.2).abs() < 1e-9);
        assert!(m.is_degraded());
        // A rate change cannot pull it off the maximum while degraded.
        let moved = m.on_arrival(MediaKind::Mp3Audio, Some(0.007), 150.0);
        assert!(moved.is_none());
        // Past the dwell but still half-full: stays degraded.
        assert!(m.note_occupancy(secs(5.0), 8).is_none());
        assert!(m.is_degraded());
        // Drained below half the threshold: releases.
        let released = m.note_occupancy(secs(6.0), 3).expect("releases");
        assert!(released.freq_mhz < 221.2);
        assert!(!m.is_degraded());
        let (entries, total) = m.degraded_stats(secs(6.0));
        assert_eq!(entries, 1);
        assert!((total - 5.8).abs() < 1e-9);
    }

    #[test]
    fn degraded_stats_count_open_interval() {
        let mut m = supervised_manager();
        m.note_occupancy(secs(1.0), 100);
        assert!(m.is_degraded());
        let (entries, total) = m.degraded_stats(secs(4.0));
        assert_eq!(entries, 1);
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_supervisor_config_is_rejected_at_build() {
        let badge = SmartBadge::new();
        let config = SystemConfig {
            supervisor: Some(SupervisorConfig {
                miss_window: 0,
                ..SupervisorConfig::default()
            }),
            ..SystemConfig::default()
        };
        assert!(PowerManager::build_shared(&badge, &config, &SharedResources::default()).is_err());
    }
}
