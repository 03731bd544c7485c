#![warn(missing_docs)]
//! Dynamic power management policies.
//!
//! While DVS saves energy during the *active* state, DPM saves it during
//! *idle* periods by moving components into standby or off (paper
//! Sections 1 and 3). This crate provides the policy families the paper
//! discusses:
//!
//! * [`timeout`] — deterministic fixed and adaptive timeouts (the classic
//!   baselines),
//! * [`predictive`] — exponential-average idle-length prediction with
//!   immediate shutdown when the prediction exceeds break-even,
//! * [`renewal`] — the renewal-theory stochastic policy of the authors'
//!   earlier work \[2\]: a (possibly randomized) optimal timeout computed
//!   from the idle-length distribution under a performance constraint,
//! * [`tismdp`] — the Time-Indexed Semi-Markov Decision Process model
//!   \[3\]: backward induction over time-indexed idle states that may
//!   command standby **or** off from any index, exploiting
//!   non-exponential (heavy-tailed) idle-time distributions,
//! * [`policy`] — the common [`DpmPolicy`] trait and the [`NoSleep`]
//!   baseline,
//! * [`costs`] — the device-level power/latency numbers policies
//!   optimize against, derived from the [`hardware`] crate,
//! * [`idle`] — idle-period distribution models and fitting.
//!
//! # Example
//!
//! ```
//! use dpm::costs::DpmCosts;
//! use dpm::policy::DpmPolicy;
//! use dpm::tismdp::{TismdpConfig, TismdpPolicy};
//! use hardware::SmartBadge;
//! use simcore::dist::Pareto;
//! use simcore::rng::SimRng;
//!
//! # fn main() -> Result<(), dpm::DpmError> {
//! let costs = DpmCosts::from_smartbadge(&SmartBadge::new());
//! let idle_model = Pareto::new(2.0, 1.5).map_err(|_| dpm::DpmError::Empty { name: "x" })?;
//! let mut policy = TismdpPolicy::solve(&costs, &idle_model, TismdpConfig::default())?;
//! let plan = policy.plan_idle(&mut SimRng::seed_from(1));
//! // Heavy-tailed idle times: the policy eventually commands a sleep state.
//! assert!(!plan.transitions().is_empty());
//! # Ok(())
//! # }
//! ```

pub mod costs;
pub mod idle;
pub mod policy;
pub mod predictive;
pub mod renewal;
pub mod timeout;
pub mod tismdp;

pub use costs::DpmCosts;
pub use policy::{DpmPolicy, IdlePlan, NoSleep, SleepState};

use std::error::Error;
use std::fmt;

/// Errors from DPM policy construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum DpmError {
    /// A numeric parameter was out of its legal domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A required collection was empty.
    Empty {
        /// Name of the offending argument.
        name: &'static str,
    },
    /// The optimizer could not satisfy the performance constraint.
    Infeasible {
        /// The requested constraint value.
        constraint: f64,
    },
}

impl fmt::Display for DpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpmError::InvalidParameter { name, value } => {
                write!(f, "invalid DPM parameter `{name}` = {value}")
            }
            DpmError::Empty { name } => write!(f, "`{name}` must not be empty"),
            DpmError::Infeasible { constraint } => {
                write!(f, "performance constraint {constraint} cannot be met")
            }
        }
    }
}

impl Error for DpmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DpmError>();
        assert!(DpmError::Infeasible { constraint: 0.01 }
            .to_string()
            .contains("0.01"));
    }
}
