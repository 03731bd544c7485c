//! Predictive shutdown (the second deterministic baseline family).
//!
//! Predicts the length of the upcoming idle period as an exponential
//! moving average of past idle periods; if the prediction exceeds the
//! break-even time of the target sleep state, the device sleeps
//! immediately at idle entry, otherwise it waits out a guard timeout
//! before sleeping (so badly under-predicted long idles are not lost
//! entirely).

use crate::costs::DpmCosts;
use crate::policy::{DpmPolicy, IdlePlan, SleepState};
use crate::DpmError;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Exponential-average idle-length prediction with immediate shutdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveShutdown {
    predicted_secs: f64,
    gain: f64,
    break_even: SimDuration,
    guard: SimDuration,
    state: SleepState,
}

impl PredictiveShutdown {
    /// Creates the policy. The initial prediction starts at the
    /// break-even time (neutral); `gain` is the EMA weight of the newest
    /// observation; the guard timeout is 3× break-even.
    ///
    /// # Errors
    ///
    /// Returns an error if the gain is outside `(0, 1]` or the sleep
    /// state never pays off for these costs.
    pub fn new(costs: &DpmCosts, state: SleepState, gain: f64) -> Result<Self, DpmError> {
        if !(gain.is_finite() && gain > 0.0 && gain <= 1.0) {
            return Err(DpmError::InvalidParameter {
                name: "gain",
                value: gain,
            });
        }
        let break_even = costs.break_even(state).ok_or(DpmError::InvalidParameter {
            name: "costs (sleep state never pays off)",
            value: costs.sleep_power_mw(state),
        })?;
        Ok(PredictiveShutdown {
            predicted_secs: break_even.as_secs_f64(),
            gain,
            break_even,
            guard: SimDuration::from_secs_f64(break_even.as_secs_f64() * 3.0),
            state,
        })
    }

    /// The current idle-length prediction, seconds.
    #[must_use]
    pub fn predicted_secs(&self) -> f64 {
        self.predicted_secs
    }
}

impl DpmPolicy for PredictiveShutdown {
    fn plan_idle(&mut self, _rng: &mut SimRng) -> IdlePlan {
        if self.predicted_secs >= self.break_even.as_secs_f64() {
            // Predicted long enough: sleep right away.
            IdlePlan::single(SimDuration::ZERO, self.state)
        } else {
            // Predicted short: hedge with a guard timeout.
            IdlePlan::single(self.guard, self.state)
        }
    }

    fn on_idle_end(&mut self, idle_len: SimDuration, _deepest: Option<SleepState>) {
        self.predicted_secs =
            (1.0 - self.gain) * self.predicted_secs + self.gain * idle_len.as_secs_f64();
    }

    fn name(&self) -> &'static str {
        "predictive"
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
    fn long_history_predicts_immediate_sleep() {
        let mut p = PredictiveShutdown::new(&costs(), SleepState::Standby, 0.3).unwrap();
        for _ in 0..10 {
            p.on_idle_end(SimDuration::from_secs(60), Some(SleepState::Standby));
        }
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert_eq!(plan.transitions()[0].0, SimDuration::ZERO);
    }

    #[test]
    fn short_history_waits_for_guard() {
        let mut p = PredictiveShutdown::new(&costs(), SleepState::Standby, 0.5).unwrap();
        for _ in 0..10 {
            p.on_idle_end(SimDuration::from_millis(10), None);
        }
        assert!(
            p.predicted_secs()
                < costs()
                    .break_even(SleepState::Standby)
                    .unwrap()
                    .as_secs_f64()
        );
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert!(plan.transitions()[0].0 > SimDuration::ZERO);
    }

    #[test]
    fn prediction_tracks_history() {
        let mut p = PredictiveShutdown::new(&costs(), SleepState::Standby, 1.0).unwrap();
        p.on_idle_end(SimDuration::from_secs(5), None);
        assert!(
            (p.predicted_secs() - 5.0).abs() < 1e-9,
            "gain 1.0 copies the last idle"
        );
    }

    #[test]
    fn validates_gain() {
        let c = costs();
        assert!(PredictiveShutdown::new(&c, SleepState::Standby, 0.0).is_err());
        assert!(PredictiveShutdown::new(&c, SleepState::Standby, 1.5).is_err());
        assert!(PredictiveShutdown::new(&c, SleepState::Standby, f64::NAN).is_err());
    }

    #[test]
    fn name_is_stable() {
        let p = PredictiveShutdown::new(&costs(), SleepState::Off, 0.3).unwrap();
        assert_eq!(p.name(), "predictive");
    }
}
