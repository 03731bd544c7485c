//! The common DPM policy interface.
//!
//! The simulator's contract with a policy is simple: on entry to the idle
//! state the policy produces an [`IdlePlan`] — a schedule of sleep-state
//! transitions to command if the idle period lasts long enough — and is
//! told afterwards how the idle period actually went, so adaptive
//! policies can learn.

use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// The sleep states a DPM policy can command (active and idle are not
/// commanded: requests wake the device, inactivity idles it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SleepState {
    /// Standby: low power, fast wake-up.
    Standby,
    /// Off: minimal power, slow wake-up.
    Off,
}

impl SleepState {
    /// The corresponding hardware power state.
    #[must_use]
    pub fn to_power_state(self) -> hardware::PowerState {
        match self {
            SleepState::Standby => hardware::PowerState::Standby,
            SleepState::Off => hardware::PowerState::Off,
        }
    }

    /// Stable lowercase label, identical to the simulator report's mode
    /// keys and the trace layer's sleep-state wire names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SleepState::Standby => "standby",
            SleepState::Off => "off",
        }
    }
}

/// A schedule of sleep transitions for one idle period: command
/// `state` once the idle period has lasted `after`.
///
/// Transitions must be sorted by time and strictly deepening
/// (standby before off), so a plan holds at most two. It keeps them in
/// a fixed two-slot array: planning an idle period allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdlePlan {
    /// Slots `..len` hold the plan; the rest hold [`Self::UNUSED`].
    steps: [(SimDuration, SleepState); 2],
    len: usize,
}

impl IdlePlan {
    /// Filler of an unused slot; one fixed value keeps the derived
    /// equality exact.
    const UNUSED: (SimDuration, SleepState) = (SimDuration::ZERO, SleepState::Standby);

    /// A plan that never sleeps.
    #[must_use]
    pub fn stay_idle() -> Self {
        IdlePlan {
            steps: [Self::UNUSED; 2],
            len: 0,
        }
    }

    /// A plan with a single transition.
    #[must_use]
    pub fn single(after: SimDuration, state: SleepState) -> Self {
        Self::stay_idle().then(after, state)
    }

    /// This plan with `state` commanded once the idle period has lasted
    /// `after`, after the transitions it already holds.
    ///
    /// # Panics
    ///
    /// Panics if the plan already holds two transitions.
    #[must_use]
    pub fn then(mut self, after: SimDuration, state: SleepState) -> Self {
        assert!(
            self.len < self.steps.len(),
            "an idle plan holds at most two transitions"
        );
        self.steps[self.len] = (after, state);
        self.len += 1;
        self
    }

    /// `(time since idle entry, state to command)`, in command order.
    #[must_use]
    pub fn transitions(&self) -> &[(SimDuration, SleepState)] {
        &self.steps[..self.len]
    }

    /// Checks the plan invariants: sorted times, strictly deepening
    /// states.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.transitions()
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1)
    }

    /// The deepest state this plan would reach for an idle period of
    /// length `idle_len`, if any.
    #[must_use]
    pub fn deepest_reached(&self, idle_len: SimDuration) -> Option<SleepState> {
        self.transitions()
            .iter()
            .filter(|(after, _)| *after <= idle_len)
            .map(|&(_, s)| s)
            .max()
    }
}

impl Default for IdlePlan {
    fn default() -> Self {
        Self::stay_idle()
    }
}

/// A dynamic power management policy.
///
/// Object safe: experiment configurations hold `Box<dyn DpmPolicy>`.
pub trait DpmPolicy {
    /// Called when the device enters the idle state; returns the sleep
    /// schedule for this idle period.
    fn plan_idle(&mut self, rng: &mut SimRng) -> IdlePlan;

    /// Called when the idle period ends (a request arrived), with its
    /// total length and the deepest sleep state actually reached.
    /// Default: no adaptation.
    fn on_idle_end(&mut self, idle_len: SimDuration, deepest: Option<SleepState>) {
        let _ = (idle_len, deepest);
    }

    /// A short name for experiment tables.
    fn name(&self) -> &'static str;
}

/// The "no power management" baseline: the device only ever idles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSleep;

impl NoSleep {
    /// Creates the baseline policy.
    #[must_use]
    pub fn new() -> Self {
        NoSleep
    }
}

impl DpmPolicy for NoSleep {
    fn plan_idle(&mut self, _rng: &mut SimRng) -> IdlePlan {
        IdlePlan::stay_idle()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_state_ordering_and_mapping() {
        assert!(SleepState::Standby < SleepState::Off);
        assert_eq!(
            SleepState::Standby.to_power_state(),
            hardware::PowerState::Standby
        );
        assert_eq!(SleepState::Off.to_power_state(), hardware::PowerState::Off);
    }

    #[test]
    fn plan_well_formedness() {
        let good = IdlePlan::single(SimDuration::from_secs(1), SleepState::Standby)
            .then(SimDuration::from_secs(10), SleepState::Off);
        assert!(good.is_well_formed());
        let bad_order = IdlePlan::single(SimDuration::from_secs(10), SleepState::Standby)
            .then(SimDuration::from_secs(1), SleepState::Off);
        assert!(!bad_order.is_well_formed());
        let bad_depth = IdlePlan::single(SimDuration::from_secs(1), SleepState::Off)
            .then(SimDuration::from_secs(10), SleepState::Standby);
        assert!(!bad_depth.is_well_formed());
        assert!(IdlePlan::stay_idle().is_well_formed());
        assert_eq!(IdlePlan::default(), IdlePlan::stay_idle());
    }

    #[test]
    #[should_panic(expected = "at most two transitions")]
    fn a_third_transition_panics() {
        let _ = IdlePlan::single(SimDuration::from_secs(1), SleepState::Standby)
            .then(SimDuration::from_secs(2), SleepState::Off)
            .then(SimDuration::from_secs(3), SleepState::Off);
    }

    #[test]
    fn deepest_reached() {
        let plan = IdlePlan::single(SimDuration::from_secs(1), SleepState::Standby)
            .then(SimDuration::from_secs(10), SleepState::Off);
        assert_eq!(plan.deepest_reached(SimDuration::from_millis(500)), None);
        assert_eq!(
            plan.deepest_reached(SimDuration::from_secs(5)),
            Some(SleepState::Standby)
        );
        assert_eq!(
            plan.deepest_reached(SimDuration::from_secs(20)),
            Some(SleepState::Off)
        );
    }

    #[test]
    fn no_sleep_baseline() {
        let mut p = NoSleep::new();
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert!(plan.transitions().is_empty());
        assert_eq!(p.name(), "none");
        p.on_idle_end(SimDuration::from_secs(100), None); // default no-op
    }

    #[test]
    fn trait_is_object_safe() {
        let mut p: Box<dyn DpmPolicy> = Box::new(NoSleep::new());
        let _ = p.plan_idle(&mut SimRng::seed_from(0));
    }

    #[test]
    fn sleep_state_labels_match_report_mode_keys() {
        // The contract the trace wire format and the report's mode map
        // both rely on: one lowercase name per sleep state, forever.
        assert_eq!(SleepState::Standby.label(), "standby");
        assert_eq!(SleepState::Off.label(), "off");
    }
}
