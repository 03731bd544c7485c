//! Piecewise-constant rate schedules.
//!
//! Both the frame *arrival* rate (network conditions, clip changes) and
//! the frame *decode* rate (content complexity) change over time in
//! steps. A [`RateSchedule`] is the ground-truth description of those
//! steps; the change-point detector's job is to recover them from samples
//! alone.

use crate::WorkloadError;

/// One constant-rate segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment length, seconds.
    pub duration: f64,
    /// Rate during the segment, events/second.
    pub rate: f64,
}

/// A piecewise-constant rate over `[0, total_duration)`.
///
/// # Example
///
/// ```
/// use workload::schedule::RateSchedule;
///
/// # fn main() -> Result<(), workload::WorkloadError> {
/// // 10 fr/s for 10 s, then a step up to 60 fr/s (the paper's Fig. 10 case).
/// let sched = RateSchedule::new(vec![(10.0, 10.0), (10.0, 60.0)])?;
/// assert_eq!(sched.rate_at(5.0), 10.0);
/// assert_eq!(sched.rate_at(15.0), 60.0);
/// assert_eq!(sched.total_duration(), 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    segments: Vec<Segment>,
}

impl RateSchedule {
    /// Builds a schedule from `(duration_secs, rate)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or any duration/rate is
    /// non-positive or non-finite.
    pub fn new(segments: Vec<(f64, f64)>) -> Result<Self, WorkloadError> {
        if segments.is_empty() {
            return Err(WorkloadError::Empty { name: "segments" });
        }
        let mut out = Vec::with_capacity(segments.len());
        for (duration, rate) in segments {
            if !(duration.is_finite() && duration > 0.0) {
                return Err(WorkloadError::InvalidParameter {
                    name: "duration",
                    value: duration,
                });
            }
            if !(rate.is_finite() && rate > 0.0) {
                return Err(WorkloadError::InvalidParameter {
                    name: "rate",
                    value: rate,
                });
            }
            out.push(Segment { duration, rate });
        }
        Ok(RateSchedule { segments: out })
    }

    /// A single-segment schedule: `rate` held for `duration` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if either value is non-positive or non-finite.
    pub fn constant(rate: f64, duration: f64) -> Result<Self, WorkloadError> {
        RateSchedule::new(vec![(duration, rate)])
    }

    /// The segments in order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total schedule length, seconds.
    #[must_use]
    pub fn total_duration(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// The rate in force at `t` seconds from the schedule start. Clamps to
    /// the last segment's rate beyond the end.
    ///
    /// Scans from the start; a caller whose query times never decrease
    /// gets the same answers from one [`cursor`](Self::cursor).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or NaN.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        self.cursor().rate(t)
    }

    /// A forward-only reader of this schedule, positioned at its start.
    #[must_use]
    pub fn cursor(&self) -> RateCursor<'_> {
        RateCursor {
            segments: &self.segments,
            index: 0,
            end: self.segments[0].duration,
            last: 0.0,
        }
    }

    /// The instants (seconds from schedule start) at which the rate
    /// changes — the ground-truth change points.
    #[must_use]
    pub fn change_points(&self) -> Vec<f64> {
        let mut points = Vec::new();
        let mut elapsed = 0.0;
        for w in self.segments.windows(2) {
            elapsed += w[0].duration;
            if (w[1].rate - w[0].rate).abs() > f64::EPSILON {
                points.push(elapsed);
            }
        }
        points
    }

    /// Mean rate over the whole schedule, duration-weighted.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        let total = self.total_duration();
        self.segments
            .iter()
            .map(|s| s.rate * s.duration)
            .sum::<f64>()
            / total
    }

    /// Expected number of events over the whole schedule
    /// (`Σ rateᵢ · durationᵢ`).
    #[must_use]
    pub fn expected_events(&self) -> f64 {
        self.segments.iter().map(|s| s.rate * s.duration).sum()
    }

    /// Appends another schedule after this one.
    #[must_use]
    pub fn then(mut self, other: &RateSchedule) -> RateSchedule {
        self.segments.extend_from_slice(&other.segments);
        self
    }
}

/// A forward-only reader of a [`RateSchedule`] for query times that
/// never decrease, such as a generator walking its own clock.
///
/// It keeps its place and the running end of the current segment, the
/// same left-to-right partial sum a scan from the start builds, so each
/// answer is bit-identical to [`RateSchedule::rate_at`] while a walk
/// over `n` queries and `s` segments costs `O(n + s)` instead of
/// `O(n · s)`.
#[derive(Debug, Clone)]
pub struct RateCursor<'a> {
    segments: &'a [Segment],
    /// The segment in force at the last query.
    index: usize,
    /// `segments[..=index]`'s durations summed left to right.
    end: f64,
    last: f64,
}

impl RateCursor<'_> {
    /// Moves to the segment in force at `t`: the first whose end lies
    /// beyond `t`, or the last one.
    fn seek(&mut self, t: f64) {
        assert!(t >= 0.0, "schedule time must be non-negative");
        assert!(
            t >= self.last,
            "cursor queries must not go backwards: {t} < {last}",
            last = self.last
        );
        self.last = t;
        while t >= self.end && self.index + 1 < self.segments.len() {
            self.index += 1;
            self.end += self.segments[self.index].duration;
        }
    }

    /// The rate in force at `t`, as [`RateSchedule::rate_at`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or NaN, or earlier than the previous
    /// query.
    pub fn rate(&mut self, t: f64) -> f64 {
        self.seek(t);
        self.segments[self.index].rate
    }

    /// The end (seconds from schedule start) of the segment in force at
    /// `t`; the schedule's end from the last segment on.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or NaN, or earlier than the previous
    /// query.
    pub fn segment_end(&mut self, t: f64) -> f64 {
        self.seek(t);
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> RateSchedule {
        RateSchedule::new(vec![(10.0, 10.0), (5.0, 60.0), (5.0, 30.0)]).unwrap()
    }

    #[test]
    fn rate_lookup_per_segment() {
        let s = step();
        assert_eq!(s.rate_at(0.0), 10.0);
        assert_eq!(s.rate_at(9.999), 10.0);
        assert_eq!(s.rate_at(10.0), 60.0);
        assert_eq!(s.rate_at(14.9), 60.0);
        assert_eq!(s.rate_at(15.0), 30.0);
        // Clamped beyond the end.
        assert_eq!(s.rate_at(100.0), 30.0);
    }

    #[test]
    fn change_points_found() {
        let s = step();
        assert_eq!(s.change_points(), vec![10.0, 15.0]);
        let flat = RateSchedule::constant(20.0, 30.0).unwrap();
        assert!(flat.change_points().is_empty());
    }

    #[test]
    fn equal_adjacent_rates_are_not_change_points() {
        let s = RateSchedule::new(vec![(5.0, 20.0), (5.0, 20.0), (5.0, 40.0)]).unwrap();
        assert_eq!(s.change_points(), vec![10.0]);
    }

    #[test]
    fn aggregate_quantities() {
        let s = step();
        assert!((s.total_duration() - 20.0).abs() < 1e-12);
        assert!((s.expected_events() - (100.0 + 300.0 + 150.0)).abs() < 1e-12);
        assert!((s.mean_rate() - 550.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn then_concatenates() {
        let s = RateSchedule::constant(10.0, 5.0)
            .unwrap()
            .then(&RateSchedule::constant(20.0, 5.0).unwrap());
        assert_eq!(s.segments().len(), 2);
        assert_eq!(s.rate_at(7.0), 20.0);
    }

    #[test]
    fn validation() {
        assert!(RateSchedule::new(vec![]).is_err());
        assert!(RateSchedule::new(vec![(0.0, 10.0)]).is_err());
        assert!(RateSchedule::new(vec![(5.0, 0.0)]).is_err());
        assert!(RateSchedule::new(vec![(5.0, f64::NAN)]).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = step().rate_at(-1.0);
    }

    #[test]
    #[should_panic(expected = "must not go backwards")]
    fn cursor_rejects_a_query_earlier_than_the_last() {
        let s = step();
        let mut cursor = s.cursor();
        assert_eq!(cursor.rate(12.0), 60.0);
        let _ = cursor.segment_end(11.0);
    }
}
