//! Frame records: the unit of work flowing through the system.

use simcore::time::SimTime;
use std::fmt;

/// The media type of a stream; determines which memory bank decodes it and
/// which performance curve applies (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// MP3 audio — decoded out of SRAM, memory-bound performance curve.
    Mp3Audio,
    /// MPEG2 video (CIF size) — decoded out of SDRAM, near-linear curve.
    MpegVideo,
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaKind::Mp3Audio => f.write_str("mp3-audio"),
            MediaKind::MpegVideo => f.write_str("mpeg-video"),
        }
    }
}

/// One frame of a generated workload.
///
/// `work` is the decode time this frame needs **at the maximum CPU
/// frequency**; the system simulator stretches it according to the actual
/// operating point through the application performance curve. The true
/// generator rates are carried along so the *ideal* (oracle) detection
/// policy of the paper's comparison can read them, and so experiments can
/// verify detector output against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Zero-based frame index within its trace.
    pub index: u64,
    /// Which decoder (and memory bank, and performance curve) this frame
    /// needs.
    pub kind: MediaKind,
    /// Arrival instant at the frame buffer.
    pub arrival: SimTime,
    /// Decode time at the maximum CPU frequency, seconds.
    pub work: f64,
    /// True arrival rate of the generating process at this frame, frames/s.
    pub true_arrival_rate: f64,
    /// True mean decode rate (at maximum frequency) of the generating
    /// process at this frame, frames/s.
    pub true_service_rate: f64,
}

impl FrameRecord {
    /// Validates internal consistency: non-negative work and positive
    /// rates. Generator output is checked with this in tests.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.work >= 0.0
            && self.work.is_finite()
            && self.true_arrival_rate > 0.0
            && self.true_service_rate > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_kind_display() {
        assert_eq!(MediaKind::Mp3Audio.to_string(), "mp3-audio");
        assert_eq!(MediaKind::MpegVideo.to_string(), "mpeg-video");
    }

    #[test]
    fn record_validity() {
        let good = FrameRecord {
            index: 0,
            kind: MediaKind::Mp3Audio,
            arrival: SimTime::ZERO,
            work: 0.01,
            true_arrival_rate: 30.0,
            true_service_rate: 80.0,
        };
        assert!(good.is_valid());
        let bad = FrameRecord { work: -1.0, ..good };
        assert!(!bad.is_valid());
        let bad = FrameRecord {
            true_arrival_rate: 0.0,
            ..good
        };
        assert!(!bad.is_valid());
    }
}
