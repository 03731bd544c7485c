#![warn(missing_docs)]
//! Frame buffer and queueing-theory models.
//!
//! Portable streaming devices buffer frames that have arrived over the
//! wireless link but have not been decoded yet (paper Section 2.3). Two
//! views of that buffer live here:
//!
//! * [`buffer`] — the operational FIFO [`buffer::FrameBuffer`] used by the
//!   system simulator, with push, pop, drop and peak-occupancy counters,
//! * [`mm1`] — the analytical M/M/1 model the DVS policy uses to pick the
//!   service (decode) rate that holds the mean buffered-frame delay
//!   constant (paper Eq. 5),
//! * [`mg1`] — the M/G/1 Pollaczek–Khinchine extension used by the
//!   ablation study of the queue-model choice (the paper notes that for
//!   general distributions "M/M/1 queue model is not applicable, so
//!   another method of frequency and voltage adjustment is needed").
//!
//! # Example
//!
//! ```
//! use framequeue::mm1;
//!
//! # fn main() -> Result<(), framequeue::QueueError> {
//! // Frames arrive at 24 fr/s; we want 0.1 s mean total delay.
//! let required = mm1::service_rate_for_delay(24.0, 0.1)?;
//! assert!((required - 34.0).abs() < 1e-9); // λ_D = λ_U + 1/delay
//! let delay = mm1::mean_delay(24.0, required)?;
//! assert!((delay - 0.1).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod buffer;
pub mod mg1;
pub mod mm1;

pub use buffer::{DropPolicy, FrameBuffer};

use std::error::Error;
use std::fmt;

/// Errors from the queueing models.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// A rate or delay parameter was non-positive or non-finite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The queue is unstable: the service rate does not exceed the
    /// arrival rate, so no finite mean delay exists.
    Unstable {
        /// Arrival rate λ_U, frames/second.
        arrival_rate: f64,
        /// Service rate λ_D, frames/second.
        service_rate: f64,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::InvalidParameter { name, value } => {
                write!(f, "invalid queue parameter `{name}` = {value}")
            }
            QueueError::Unstable {
                arrival_rate,
                service_rate,
            } => write!(
                f,
                "unstable queue: service rate {service_rate} must exceed arrival rate {arrival_rate}"
            ),
        }
    }
}

impl Error for QueueError {}

pub(crate) fn check_rate(name: &'static str, value: f64) -> Result<f64, QueueError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(QueueError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = QueueError::Unstable {
            arrival_rate: 30.0,
            service_rate: 20.0,
        };
        assert!(e.to_string().contains("unstable"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueueError>();
    }
}
