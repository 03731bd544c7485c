#![warn(missing_docs)]
//! Streaming-media workload generators.
//!
//! The paper evaluates on MP3 audio and MPEG2 video (CIF size) streamed to
//! the SmartBadge over its WLAN link. Real traces are not available, so
//! this crate generates **statistically matched synthetic workloads**
//! (see `DESIGN.md` for the substitution rationale):
//!
//! * frame interarrival times are exponential within a segment, with
//!   piecewise-constant rates — the rate steps are what the change-point
//!   detector must find ([`schedule`], [`arrivals`]),
//! * MP3 decode times have very little frame-to-frame variation within a
//!   clip but differ widely *between* clips (paper Table 2) — [`mp3`],
//! * MPEG decode times vary by a factor of ≈3 frame-to-frame through the
//!   I/P/B group-of-pictures structure and scene-dependent rate segments
//!   (paper refs [15, 16]) — [`mpeg`],
//! * sessions interleave clips with long idle gaps, the territory of the
//!   DPM policy (paper Table 5) — [`session`],
//! * every generated workload is an explicit [`trace::Trace`] of plain
//!   frame records, so experiments can be replayed and compared.
//!
//! # Example
//!
//! ```
//! use simcore::rng::SimRng;
//! use workload::mp3::Mp3Clip;
//!
//! let clip = Mp3Clip::table2()[0]; // clip A
//! let mut rng = SimRng::seed_from(1);
//! let trace = clip.generate(&mut rng);
//! assert!(!trace.frames().is_empty());
//! // Frames arrive at roughly the clip's nominal rate.
//! let measured = trace.mean_arrival_rate();
//! assert!((measured - clip.arrival_rate()).abs() / clip.arrival_rate() < 0.15);
//! ```

pub mod arrivals;
pub mod frame;
pub mod mp3;
pub mod mpeg;
pub mod schedule;
pub mod session;
pub mod trace;

pub use frame::{FrameRecord, MediaKind};
pub use mp3::Mp3Clip;
pub use mpeg::MpegClip;
pub use schedule::RateSchedule;
pub use session::Session;
pub use trace::Trace;

use std::error::Error;
use std::fmt;

/// Errors from workload construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A rate or duration parameter was out of range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An empty schedule or clip list where at least one entry is needed.
    Empty {
        /// Name of the offending argument.
        name: &'static str,
    },
    /// A clip label that is not in Table 2.
    UnknownClip {
        /// The unrecognized label.
        label: char,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidParameter { name, value } => {
                write!(f, "invalid workload parameter `{name}` = {value}")
            }
            WorkloadError::Empty { name } => write!(f, "`{name}` must not be empty"),
            WorkloadError::UnknownClip { label } => {
                write!(f, "unknown MP3 clip label `{label}` (expected A-F)")
            }
        }
    }
}

impl Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkloadError>();
        assert!(WorkloadError::UnknownClip { label: 'Z' }
            .to_string()
            .contains('Z'));
    }
}
