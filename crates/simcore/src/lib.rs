#![warn(missing_docs)]
//! Discrete-event simulation kernel for the DVS+DPM reproduction.
//!
//! This crate is the foundation substrate shared by every other crate in the
//! workspace. It provides:
//!
//! * [`time`] — a deterministic, totally ordered simulation clock
//!   ([`SimTime`], [`SimDuration`]) with nanosecond resolution,
//! * [`event`] — a deterministic event queue ([`event::EventQueue`]) with
//!   FIFO tie-breaking for simultaneous events,
//! * [`rng`] — reproducible random-number streams ([`rng::SimRng`]) that can
//!   be forked per subsystem so adding sampling sites does not perturb
//!   unrelated streams,
//! * [`stats`] — online statistics (Welford mean/variance, histograms,
//!   quantiles, batch means),
//! * [`dist`] — probability distributions (exponential, uniform, Pareto,
//!   hyper-exponential, deterministic) with sampling, CDF evaluation,
//!   moments, and maximum-likelihood fitting,
//! * [`json`] — a self-contained JSON value type, parser, and writer
//!   ([`Json`], [`ToJson`]) used for reports and traces,
//! * [`par`] — a deterministic scoped-thread parallel engine
//!   ([`par::par_map_indexed`]) whose results are bit-identical at any
//!   thread count, used by calibration and the experiment harnesses.
//!
//! # Example
//!
//! Simulate a Poisson arrival process and check its mean interarrival time:
//!
//! ```
//! use simcore::dist::{Exponential, Sample};
//! use simcore::rng::SimRng;
//! use simcore::stats::OnlineStats;
//!
//! # fn main() -> Result<(), simcore::SimError> {
//! let arrivals = Exponential::new(25.0)?; // 25 frames/second
//! let mut rng = SimRng::seed_from(42);
//! let mut stats = OnlineStats::new();
//! for _ in 0..10_000 {
//!     stats.push(arrivals.sample(&mut rng));
//! }
//! assert!((stats.mean() - 1.0 / 25.0).abs() < 2e-3);
//! # Ok(())
//! # }
//! ```

pub mod dist;
pub mod event;
pub mod fastln;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Exponential, Sample};
pub use event::{EventQueue, LaneQueue};
pub use json::{Json, ToJson};
pub use par::Jobs;
pub use rng::SimRng;
pub use stats::{BatchMeans, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};

use std::error::Error;
use std::fmt;

/// Error type for invalid arguments passed to simulation-kernel constructors.
///
/// All public constructors in this crate validate their arguments
/// (rates must be positive and finite, probabilities must lie in `[0, 1]`,
/// and so on) and report violations through this type.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A numeric parameter was outside its legal domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the legal domain.
        expected: &'static str,
    },
    /// A collection argument was empty but at least one element is required.
    Empty {
        /// Name of the offending argument.
        name: &'static str,
    },
    /// Two collection arguments were required to have the same length.
    LengthMismatch {
        /// Name of the offending argument pair.
        name: &'static str,
        /// Length of the first collection.
        left: usize,
        /// Length of the second collection.
        right: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter {
                name,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid parameter `{name}` = {value}; expected {expected}"
                )
            }
            SimError::Empty { name } => write!(f, "argument `{name}` must not be empty"),
            SimError::LengthMismatch { name, left, right } => {
                write!(f, "argument `{name}` length mismatch: {left} vs {right}")
            }
        }
    }
}

impl Error for SimError {}

/// Validates that `value` is finite and strictly positive.
///
/// Shared helper used by constructors across the workspace.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `value` is NaN, infinite, zero,
/// or negative.
pub fn ensure_positive(name: &'static str, value: f64) -> Result<f64, SimError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(SimError::InvalidParameter {
            name,
            value,
            expected: "a finite value > 0",
        })
    }
}

/// Validates that `value` is finite and non-negative.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `value` is NaN, infinite, or
/// negative.
pub fn ensure_non_negative(name: &'static str, value: f64) -> Result<f64, SimError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(SimError::InvalidParameter {
            name,
            value,
            expected: "a finite value >= 0",
        })
    }
}

/// Validates that `value` lies in the closed unit interval `[0, 1]`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `value` is NaN or outside
/// `[0, 1]`.
pub fn ensure_probability(name: &'static str, value: f64) -> Result<f64, SimError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(SimError::InvalidParameter {
            name,
            value,
            expected: "a probability in [0, 1]",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_positive_accepts_positive() {
        assert_eq!(ensure_positive("x", 1.5), Ok(1.5));
    }

    #[test]
    fn ensure_positive_rejects_zero_negative_nan_inf() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(ensure_positive("x", v).is_err(), "{v} should be rejected");
        }
    }

    #[test]
    fn ensure_non_negative_accepts_zero() {
        assert_eq!(ensure_non_negative("x", 0.0), Ok(0.0));
    }

    #[test]
    fn ensure_probability_bounds() {
        assert!(ensure_probability("p", 0.0).is_ok());
        assert!(ensure_probability("p", 1.0).is_ok());
        assert!(ensure_probability("p", 1.0001).is_err());
        assert!(ensure_probability("p", -0.0001).is_err());
        assert!(ensure_probability("p", f64::NAN).is_err());
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = SimError::InvalidParameter {
            name: "rate",
            value: -3.0,
            expected: "a finite value > 0",
        };
        let s = e.to_string();
        assert!(s.contains("rate"));
        assert!(s.contains("-3"));
        assert!(s.starts_with("invalid"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
