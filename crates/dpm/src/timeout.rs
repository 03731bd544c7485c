//! Deterministic timeout policies (the classic DPM baselines).
//!
//! The simplest deterministic scheme sleeps after a fixed timeout; its
//! adaptive cousin grows the timeout after a wasted shutdown (the idle
//! period ended during or right after the transition) and shrinks it
//! after a missed opportunity, in the style of the adaptive schemes the
//! paper classifies as "deterministic" DPM.

use crate::costs::DpmCosts;
use crate::policy::{DpmPolicy, IdlePlan, SleepState};
use crate::DpmError;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Sleep to a fixed state after a fixed timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedTimeout {
    timeout: SimDuration,
    state: SleepState,
}

impl FixedTimeout {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns an error if `timeout` is zero (sleep-on-entry is spelled
    /// explicitly through [`FixedTimeout::immediate`] to avoid
    /// accidents).
    pub fn new(timeout: SimDuration, state: SleepState) -> Result<Self, DpmError> {
        if timeout.is_zero() {
            return Err(DpmError::InvalidParameter {
                name: "timeout",
                value: 0.0,
            });
        }
        Ok(FixedTimeout { timeout, state })
    }

    /// Sleep immediately on idle entry.
    #[must_use]
    pub fn immediate(state: SleepState) -> Self {
        FixedTimeout {
            timeout: SimDuration::ZERO,
            state,
        }
    }

    /// The break-even timeout for `state` given `costs` — the textbook
    /// "2-competitive" choice.
    ///
    /// # Errors
    ///
    /// Returns an error if the sleep state never pays off for these
    /// costs.
    pub fn break_even(costs: &DpmCosts, state: SleepState) -> Result<Self, DpmError> {
        let t = costs.break_even(state).ok_or(DpmError::InvalidParameter {
            name: "costs (sleep state never pays off)",
            value: costs.sleep_power_mw(state),
        })?;
        if t.is_zero() {
            Ok(FixedTimeout::immediate(state))
        } else {
            FixedTimeout::new(t, state)
        }
    }

    /// The timeout value.
    #[must_use]
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl DpmPolicy for FixedTimeout {
    fn plan_idle(&mut self, _rng: &mut SimRng) -> IdlePlan {
        IdlePlan::single(self.timeout, self.state)
    }

    fn name(&self) -> &'static str {
        "fixed-timeout"
    }
}

/// Adaptive timeout: multiplicative increase after a shutdown that did
/// not pay off, multiplicative decrease after an idle period long enough
/// that sleeping earlier would have saved more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTimeout {
    timeout: SimDuration,
    min: SimDuration,
    max: SimDuration,
    state: SleepState,
    break_even: SimDuration,
}

impl AdaptiveTimeout {
    /// Creates the policy with the timeout starting (and clamped) in
    /// `[min, max]`, adapting around the break-even time of `state`.
    ///
    /// # Errors
    ///
    /// Returns an error if `min` is zero, `min > max`, or the sleep state
    /// never pays off.
    pub fn new(
        costs: &DpmCosts,
        state: SleepState,
        min: SimDuration,
        max: SimDuration,
    ) -> Result<Self, DpmError> {
        if min.is_zero() || min > max {
            return Err(DpmError::InvalidParameter {
                name: "min/max",
                value: min.as_secs_f64(),
            });
        }
        let break_even = costs.break_even(state).ok_or(DpmError::InvalidParameter {
            name: "costs (sleep state never pays off)",
            value: costs.sleep_power_mw(state),
        })?;
        Ok(AdaptiveTimeout {
            timeout: break_even.max(min).min(max),
            min,
            max,
            state,
            break_even,
        })
    }

    /// The current (adapted) timeout.
    #[must_use]
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl DpmPolicy for AdaptiveTimeout {
    fn plan_idle(&mut self, _rng: &mut SimRng) -> IdlePlan {
        IdlePlan::single(self.timeout, self.state)
    }

    fn on_idle_end(&mut self, idle_len: SimDuration, deepest: Option<SleepState>) {
        let slept = deepest.is_some();
        let new_secs = if slept && idle_len < self.timeout.saturating_add(self.break_even) {
            // The shutdown barely (or never) paid off: back off.
            self.timeout.as_secs_f64() * 2.0
        } else if idle_len > self.timeout * 2 {
            // Plenty of sleepable time was wasted waiting: be bolder.
            self.timeout.as_secs_f64() / 1.5
        } else {
            return;
        };
        self.timeout = SimDuration::from_secs_f64(
            new_secs.clamp(self.min.as_secs_f64(), self.max.as_secs_f64()),
        );
    }

    fn name(&self) -> &'static str {
        "adaptive-timeout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::SmartBadge;

    fn costs() -> DpmCosts {
        DpmCosts::from_smartbadge(&SmartBadge::new())
    }

    #[test]
    fn fixed_timeout_plans_single_transition() {
        let mut p = FixedTimeout::new(SimDuration::from_secs(2), SleepState::Standby).unwrap();
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert_eq!(
            plan.transitions(),
            vec![(SimDuration::from_secs(2), SleepState::Standby)]
        );
        assert!(plan.is_well_formed());
    }

    #[test]
    fn immediate_sleeps_at_zero() {
        let mut p = FixedTimeout::immediate(SleepState::Off);
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert_eq!(plan.transitions()[0].0, SimDuration::ZERO);
    }

    #[test]
    fn break_even_constructor_uses_costs() {
        let p = FixedTimeout::break_even(&costs(), SleepState::Standby).unwrap();
        assert_eq!(
            p.timeout(),
            costs().break_even(SleepState::Standby).unwrap()
        );
    }

    #[test]
    fn fixed_rejects_zero_timeout() {
        assert!(FixedTimeout::new(SimDuration::ZERO, SleepState::Standby).is_err());
    }

    #[test]
    fn adaptive_backs_off_after_wasted_shutdown() {
        let mut p = AdaptiveTimeout::new(
            &costs(),
            SleepState::Standby,
            SimDuration::from_millis(100),
            SimDuration::from_secs(60),
        )
        .unwrap();
        let before = p.timeout();
        // Idle ended just past the timeout: the sleep barely happened.
        p.on_idle_end(
            before + SimDuration::from_millis(1),
            Some(SleepState::Standby),
        );
        assert!(p.timeout() > before);
    }

    #[test]
    fn adaptive_leans_in_after_long_idle() {
        let mut p = AdaptiveTimeout::new(
            &costs(),
            SleepState::Standby,
            SimDuration::from_millis(100),
            SimDuration::from_secs(60),
        )
        .unwrap();
        let before = p.timeout();
        p.on_idle_end(before * 10, Some(SleepState::Standby));
        assert!(p.timeout() < before);
    }

    #[test]
    fn adaptive_respects_bounds() {
        let min = SimDuration::from_millis(200);
        let max = SimDuration::from_millis(400);
        let mut p = AdaptiveTimeout::new(&costs(), SleepState::Standby, min, max).unwrap();
        for _ in 0..20 {
            let t = p.timeout();
            p.on_idle_end(t + SimDuration::from_millis(1), Some(SleepState::Standby));
        }
        assert!(p.timeout() <= max);
        for _ in 0..20 {
            p.on_idle_end(SimDuration::from_secs(1000), Some(SleepState::Standby));
        }
        assert!(p.timeout() >= min);
    }

    #[test]
    fn adaptive_validates() {
        let c = costs();
        assert!(AdaptiveTimeout::new(
            &c,
            SleepState::Standby,
            SimDuration::ZERO,
            SimDuration::from_secs(1)
        )
        .is_err());
        assert!(AdaptiveTimeout::new(
            &c,
            SleepState::Standby,
            SimDuration::from_secs(2),
            SimDuration::from_secs(1)
        )
        .is_err());
    }
}
