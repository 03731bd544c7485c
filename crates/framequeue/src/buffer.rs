//! Operational FIFO frame buffer.
//!
//! The SmartBadge buffers arriving frames until the decoder pulls them
//! (paper Section 2.3: frames "do not have priority", so the queue is a
//! plain FIFO of frames awaiting service). [`FrameBuffer`] hands each
//! popped frame back with its queueing delay and counts pushes, pops
//! and drops; the per-frame delay statistics the experiments report are
//! the simulator's own.

use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A FIFO buffer of frames with push, pop and drop counters.
///
/// Generic over the frame payload so any crate can use it without
/// circular dependencies.
///
/// # Example
///
/// ```
/// use framequeue::FrameBuffer;
/// use simcore::time::{SimDuration, SimTime};
///
/// let mut buf: FrameBuffer<u32> = FrameBuffer::new();
/// let t0 = SimTime::ZERO;
/// buf.push(t0, 7);
/// let t1 = t0 + SimDuration::from_millis(40);
/// let (frame, waited) = buf.pop(t1).expect("one frame queued");
/// assert_eq!(frame, 7);
/// assert_eq!(waited, SimDuration::from_millis(40));
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuffer<T> {
    queue: VecDeque<(SimTime, T)>,
    last_change: SimTime,
    total_pushed: u64,
    total_popped: u64,
    capacity: Option<usize>,
    total_dropped: u64,
}

impl<T> FrameBuffer<T> {
    /// Creates an empty, unbounded buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer {
            queue: VecDeque::new(),
            last_change: SimTime::ZERO,
            total_pushed: 0,
            total_popped: 0,
            capacity: None,
            total_dropped: 0,
        }
    }

    /// Creates an empty buffer holding at most `capacity` frames; an
    /// [`offer`](Self::offer) to a full buffer rejects the arriving
    /// frame.
    ///
    /// A `capacity` of zero drops every offered frame.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        FrameBuffer {
            capacity: Some(capacity),
            ..FrameBuffer::new()
        }
    }

    /// Enqueues a frame arriving at `now`.
    ///
    /// Unconditional: ignores any capacity bound (use
    /// [`offer`](Self::offer) to respect it).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the buffer's last recorded event (time
    /// must move forward).
    pub fn push(&mut self, now: SimTime, frame: T) {
        self.advance(now);
        self.queue.push_back((now, frame));
        self.total_pushed += 1;
    }

    /// Offers a frame arriving at `now`, respecting the capacity bound.
    ///
    /// Returns the offered frame if the buffer is full: queued frames
    /// are never evicted, and unbounded buffers never drop. Dropped
    /// frames are counted in [`total_dropped`](Self::total_dropped).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the buffer's last recorded event.
    pub fn offer(&mut self, now: SimTime, frame: T) -> Option<T> {
        if self.capacity.is_some_and(|cap| self.queue.len() >= cap) {
            self.advance(now);
            self.total_dropped += 1;
            return Some(frame);
        }
        self.push(now, frame);
        None
    }

    /// The capacity bound, if any.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Total frames dropped by [`offer`](Self::offer) on a full buffer.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Dequeues the oldest frame at `now`, returning it with the time it
    /// spent waiting. Returns `None` if the buffer is empty.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the buffer's last recorded event.
    pub fn pop(&mut self, now: SimTime) -> Option<(T, SimDuration)> {
        self.advance(now);
        let (arrived, frame) = self.queue.pop_front()?;
        let waited = now.saturating_since(arrived);
        self.total_popped += 1;
        Some((frame, waited))
    }

    /// Arrival time of the oldest queued frame, if any.
    #[must_use]
    pub fn peek_arrival(&self) -> Option<SimTime> {
        self.queue.front().map(|(t, _)| *t)
    }

    /// Number of frames currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no frames are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total frames ever pushed.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total frames ever popped.
    #[must_use]
    pub fn total_popped(&self) -> u64 {
        self.total_popped
    }

    /// Records `now` as the buffer's latest event time.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last recorded event.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_change,
            "buffer time must not go backwards: {now} < {last}",
            last = self.last_change
        );
        self.last_change = now;
    }
}

impl<T> Default for FrameBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn fifo_order() {
        let mut b = FrameBuffer::new();
        b.push(t(0), 'a');
        b.push(t(1), 'b');
        b.push(t(2), 'c');
        assert_eq!(b.pop(t(3)).unwrap().0, 'a');
        assert_eq!(b.pop(t(4)).unwrap().0, 'b');
        assert_eq!(b.pop(t(5)).unwrap().0, 'c');
        assert!(b.pop(t(6)).is_none());
    }

    #[test]
    fn waiting_time_measured() {
        let mut b = FrameBuffer::new();
        b.push(t(10), 1u8);
        let (_, waited) = b.pop(t(25)).unwrap();
        assert_eq!(waited, SimDuration::from_millis(15));
    }

    #[test]
    fn counters_track_totals() {
        let mut b = FrameBuffer::new();
        for i in 0..5 {
            b.push(t(i), i);
        }
        for i in 5..8 {
            b.pop(t(i));
        }
        assert_eq!(b.total_pushed(), 5);
        assert_eq!(b.total_popped(), 3);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn peek_arrival_sees_oldest() {
        let mut b = FrameBuffer::new();
        assert_eq!(b.peek_arrival(), None);
        b.push(t(3), ());
        b.push(t(7), ());
        assert_eq!(b.peek_arrival(), Some(t(3)));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_go_backwards() {
        let mut b = FrameBuffer::new();
        b.push(t(10), ());
        b.push(t(5), ());
    }

    #[test]
    fn zero_wait_pop() {
        let mut b = FrameBuffer::new();
        b.push(t(4), ());
        let (_, waited) = b.pop(t(4)).unwrap();
        assert_eq!(waited, SimDuration::ZERO);
    }

    #[test]
    fn unbounded_offer_never_drops() {
        let mut b = FrameBuffer::new();
        for i in 0..100 {
            assert_eq!(b.offer(t(i), i), None);
        }
        assert_eq!(b.total_dropped(), 0);
        assert_eq!(b.capacity(), None);
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn drop_newest_rejects_the_arrival() {
        let mut b = FrameBuffer::bounded(2);
        assert_eq!(b.offer(t(0), 'a'), None);
        assert_eq!(b.offer(t(1), 'b'), None);
        assert_eq!(b.offer(t(2), 'c'), Some('c'));
        assert_eq!(b.total_dropped(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop(t(3)).unwrap().0, 'a');
        // Room again: the next offer is accepted.
        assert_eq!(b.offer(t(4), 'd'), None);
        assert_eq!(b.capacity(), Some(2));
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut b = FrameBuffer::bounded(0);
        assert_eq!(b.offer(t(0), 1u8), Some(1));
        assert_eq!(b.offer(t(1), 2u8), Some(2));
        assert_eq!(b.total_dropped(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn dropped_frames_skip_delay_statistics() {
        let mut b = FrameBuffer::bounded(1);
        b.offer(t(0), 'a');
        b.offer(t(1), 'b'); // dropped
        b.pop(t(10));
        assert_eq!(b.total_pushed(), 1);
        assert_eq!(b.total_popped(), 1);
    }
}
