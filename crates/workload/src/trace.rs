//! Recorded workload traces.
//!
//! A [`Trace`] is an explicit list of [`FrameRecord`]s plus an end time.
//! Every generator in this crate produces a trace; the system simulator
//! consumes traces. Because traces are plain data they can be replayed
//! and compared across experiments, standing in for the packet captures
//! the paper's authors recorded on real hardware.

use crate::frame::FrameRecord;
use crate::WorkloadError;
use simcore::time::{SimDuration, SimTime};

/// An ordered sequence of frames with an explicit end-of-stream time.
///
/// The gap between the last frame and [`Trace::end`] is trailing idle
/// time, which is where the DPM policy earns its savings.
///
/// # Example
///
/// ```
/// use simcore::rng::SimRng;
/// use workload::mp3::Mp3Clip;
/// use workload::Trace;
///
/// let mut rng = SimRng::seed_from(11);
/// let a = Mp3Clip::table2()[0].generate(&mut rng);
/// let b = Mp3Clip::table2()[1].generate(&mut rng);
/// let combined = Trace::sequence(&[a.clone(), b], simcore::time::SimDuration::ZERO);
/// assert!(combined.frames().len() > a.frames().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    frames: Vec<FrameRecord>,
    end: SimTime,
}

impl Trace {
    /// Builds a trace, validating that frames are sorted by arrival time,
    /// internally consistent, and arrive before `end`.
    ///
    /// # Errors
    ///
    /// Returns an error if any frame is invalid, out of order, or arrives
    /// after `end`.
    pub fn new(frames: Vec<FrameRecord>, end: SimTime) -> Result<Self, WorkloadError> {
        for w in frames.windows(2) {
            if w[1].arrival < w[0].arrival {
                return Err(WorkloadError::InvalidParameter {
                    name: "frames (arrival order)",
                    value: w[1].arrival.as_secs_f64(),
                });
            }
        }
        for f in &frames {
            if !f.is_valid() {
                return Err(WorkloadError::InvalidParameter {
                    name: "frame",
                    value: f.work,
                });
            }
            if f.arrival > end {
                return Err(WorkloadError::InvalidParameter {
                    name: "frames (arrival after end)",
                    value: f.arrival.as_secs_f64(),
                });
            }
        }
        Ok(Trace { frames, end })
    }

    /// An empty trace of zero length.
    #[must_use]
    pub fn empty() -> Self {
        Trace {
            frames: Vec::new(),
            end: SimTime::ZERO,
        }
    }

    /// The frames in arrival order.
    #[must_use]
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// End-of-stream instant (≥ the last arrival).
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Trace length in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.end.as_secs_f64()
    }

    /// Empirical mean arrival rate: frames per second over the trace
    /// length; `0.0` for an empty or zero-length trace.
    #[must_use]
    pub fn mean_arrival_rate(&self) -> f64 {
        let d = self.duration_secs();
        if d == 0.0 {
            0.0
        } else {
            self.frames.len() as f64 / d
        }
    }

    /// Interarrival gaps between consecutive frames, seconds.
    #[must_use]
    pub fn interarrival_times(&self) -> Vec<f64> {
        self.frames
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_secs_f64())
            .collect()
    }

    /// Per-frame decode times at maximum frequency, seconds.
    #[must_use]
    pub fn decode_works(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.work).collect()
    }

    /// Concatenates traces with a fixed idle `gap` between them,
    /// re-indexing frames and offsetting arrival times.
    #[must_use]
    pub fn sequence(traces: &[Trace], gap: SimDuration) -> Trace {
        let mut frames = Vec::new();
        let mut offset = SimDuration::ZERO;
        let mut end = SimTime::ZERO;
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                offset += gap;
            }
            for f in &t.frames {
                frames.push(FrameRecord {
                    index: frames.len() as u64,
                    arrival: f.arrival + offset,
                    ..*f
                });
            }
            end = t.end + offset;
            offset += t.end - SimTime::ZERO;
        }
        Trace { frames, end }
    }

    /// Concatenates traces with *individual* idle gaps: `items[i] =
    /// (gap_before_i, trace_i)`. Used by sessions where idle periods have
    /// varying, heavy-tailed lengths.
    #[must_use]
    pub fn sequence_with_gaps(items: &[(SimDuration, Trace)]) -> Trace {
        let mut frames = Vec::new();
        let mut offset = SimDuration::ZERO;
        let mut end = SimTime::ZERO;
        for (gap, t) in items {
            offset += *gap;
            for f in &t.frames {
                frames.push(FrameRecord {
                    index: frames.len() as u64,
                    arrival: f.arrival + offset,
                    ..*f
                });
            }
            end = t.end + offset;
            offset += t.end - SimTime::ZERO;
        }
        Trace { frames, end }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MediaKind;

    fn frame(i: u64, at_secs: f64) -> FrameRecord {
        FrameRecord {
            index: i,
            kind: MediaKind::Mp3Audio,
            arrival: SimTime::from_secs_f64(at_secs),
            work: 0.01,
            true_arrival_rate: 10.0,
            true_service_rate: 100.0,
        }
    }

    #[test]
    fn new_validates_order() {
        let ok = Trace::new(
            vec![frame(0, 0.1), frame(1, 0.2)],
            SimTime::from_secs_f64(1.0),
        );
        assert!(ok.is_ok());
        let bad = Trace::new(
            vec![frame(0, 0.2), frame(1, 0.1)],
            SimTime::from_secs_f64(1.0),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn new_rejects_arrival_after_end() {
        let bad = Trace::new(vec![frame(0, 2.0)], SimTime::from_secs_f64(1.0));
        assert!(bad.is_err());
    }

    #[test]
    fn new_rejects_invalid_frame() {
        let mut f = frame(0, 0.1);
        f.work = f64::NAN;
        assert!(Trace::new(vec![f], SimTime::from_secs_f64(1.0)).is_err());
    }

    #[test]
    fn statistics() {
        let t = Trace::new(
            vec![frame(0, 1.0), frame(1, 2.0), frame(2, 4.0)],
            SimTime::from_secs_f64(6.0),
        )
        .unwrap();
        assert!((t.mean_arrival_rate() - 0.5).abs() < 1e-12);
        assert_eq!(t.interarrival_times(), vec![1.0, 2.0]);
        assert_eq!(t.decode_works(), vec![0.01, 0.01, 0.01]);
        assert!((t.duration_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_offsets_and_reindexes() {
        let a = Trace::new(vec![frame(0, 1.0)], SimTime::from_secs_f64(2.0)).unwrap();
        let b = Trace::new(vec![frame(0, 0.5)], SimTime::from_secs_f64(1.0)).unwrap();
        let s = Trace::sequence(&[a, b], SimDuration::from_secs(3));
        assert_eq!(s.frames().len(), 2);
        assert_eq!(s.frames()[0].index, 0);
        assert_eq!(s.frames()[1].index, 1);
        // Second trace starts at 2.0 (end of a) + 3.0 (gap) = 5.0; frame at 5.5.
        assert!((s.frames()[1].arrival.as_secs_f64() - 5.5).abs() < 1e-9);
        assert!((s.end().as_secs_f64() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn sequence_with_gaps_applies_each_gap() {
        let a = Trace::new(vec![frame(0, 0.5)], SimTime::from_secs_f64(1.0)).unwrap();
        let b = Trace::new(vec![frame(0, 0.5)], SimTime::from_secs_f64(1.0)).unwrap();
        let s = Trace::sequence_with_gaps(&[
            (SimDuration::from_secs(2), a),
            (SimDuration::from_secs(5), b),
        ]);
        assert!((s.frames()[0].arrival.as_secs_f64() - 2.5).abs() < 1e-9);
        assert!((s.frames()[1].arrival.as_secs_f64() - 8.5).abs() < 1e-9);
        assert!((s.end().as_secs_f64() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::empty();
        assert!(t.frames().is_empty());
        assert_eq!(t.mean_arrival_rate(), 0.0);
        assert_eq!(Trace::default(), t);
    }
}
