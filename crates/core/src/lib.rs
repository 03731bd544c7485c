#![warn(missing_docs)]
//! The merged DVS + DPM power manager and full-system simulator — the
//! paper's primary contribution.
//!
//! Earlier stochastic DPM models (renewal theory and TISMDP) had a single
//! active state and could only trade power for performance during *idle*
//! periods. This crate implements the paper's extension: **the active
//! state is expanded into a family of sub-states, one per CPU
//! frequency/voltage operating point** (paper Figure 8), so the power
//! manager controls energy both
//!
//! * while **active**, by detecting frame arrival/decode rate changes and
//!   setting the lowest frequency (and its minimum voltage) that keeps the
//!   mean buffered-frame delay constant (M/M/1 inversion of Eq. 5), and
//! * while **idle**, by running a DPM policy (renewal, TISMDP, timeout,
//!   predictive) that commands standby/off.
//!
//! Modules:
//!
//! * [`dvs`] — the frequency/voltage selection policy,
//! * [`governor`] — detection strategy + DVS policy = a governor
//!   (`ideal`, `change-point`, `exp-average`, `max`: the four columns of
//!   the paper's Tables 3 and 4),
//! * [`manager`] — the combined power manager,
//! * [`power`] — per-component power profiles of each system mode,
//! * [`system`] — the event-driven full-system simulator,
//! * [`metrics`] — the report every experiment produces,
//! * [`config`] — experiment configuration,
//! * [`scenario`] — the one way to run a simulation: a workload (Table 3
//!   sequences, Table 4 clips, the Table 5 session) or a prepared trace,
//!   with optional attachments.
//!
//! # Example
//!
//! Reproduce one cell of Table 3 (sequence ACEFBD under the change-point
//! governor):
//!
//! ```
//! use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
//! use powermgr::scenario::{Attachments, Workload};
//!
//! # fn main() -> Result<(), powermgr::PmError> {
//! let config = SystemConfig {
//!     governor: GovernorKind::quick_change_point(),
//!     dpm: DpmKind::None,
//!     ..SystemConfig::default()
//! };
//! let workload = Workload::Mp3("ACEFBD".into());
//! let report = workload.run(&config, 7, Attachments::default())?;
//! assert!(report.total_energy_j() > 0.0);
//! assert!(report.mean_frame_delay_s() < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod dvs;
pub mod governor;
pub mod manager;
pub mod metrics;
pub mod power;
pub mod resolve;
pub mod scenario;
pub mod system;

pub use config::{DpmKind, GovernorKind, SystemConfig};
pub use governor::RateDetection;
pub use metrics::SimReport;
pub use resolve::SharedResources;
pub use system::SystemSimulator;

use std::error::Error;
use std::fmt;

/// Errors from power-manager construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PmError {
    /// A numeric parameter was out of its legal domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An error bubbled up from a detector.
    Detect(detect::DetectError),
    /// An error bubbled up from a DPM policy.
    Dpm(dpm::DpmError),
    /// An error bubbled up from the workload generators.
    Workload(workload::WorkloadError),
    /// An error bubbled up from the queueing model.
    Queue(framequeue::QueueError),
    /// An error bubbled up from the fault-injection layer.
    Fault(faults::FaultError),
    /// The simulator reached a state that violates its own invariants
    /// (e.g. a decode completion with no frame in flight).
    InvalidState {
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::InvalidParameter { name, value } => {
                write!(f, "invalid power-manager parameter `{name}` = {value}")
            }
            PmError::Detect(e) => write!(f, "detector error: {e}"),
            PmError::Dpm(e) => write!(f, "dpm error: {e}"),
            PmError::Workload(e) => write!(f, "workload error: {e}"),
            PmError::Queue(e) => write!(f, "queue error: {e}"),
            PmError::Fault(e) => write!(f, "fault-injection error: {e}"),
            PmError::InvalidState { what } => write!(f, "invalid simulator state: {what}"),
        }
    }
}

impl Error for PmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PmError::Detect(e) => Some(e),
            PmError::Dpm(e) => Some(e),
            PmError::Workload(e) => Some(e),
            PmError::Queue(e) => Some(e),
            PmError::Fault(e) => Some(e),
            PmError::InvalidParameter { .. } | PmError::InvalidState { .. } => None,
        }
    }
}

impl From<faults::FaultError> for PmError {
    fn from(e: faults::FaultError) -> Self {
        PmError::Fault(e)
    }
}

impl From<detect::DetectError> for PmError {
    fn from(e: detect::DetectError) -> Self {
        PmError::Detect(e)
    }
}

impl From<dpm::DpmError> for PmError {
    fn from(e: dpm::DpmError) -> Self {
        PmError::Dpm(e)
    }
}

impl From<workload::WorkloadError> for PmError {
    fn from(e: workload::WorkloadError) -> Self {
        PmError::Workload(e)
    }
}

impl From<framequeue::QueueError> for PmError {
    fn from(e: framequeue::QueueError) -> Self {
        PmError::Queue(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits_and_sources() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmError>();
        let e: PmError = detect::DetectError::Empty { name: "ratios" }.into();
        assert!(e.to_string().contains("detector"));
        assert!(Error::source(&e).is_some());
    }
}
