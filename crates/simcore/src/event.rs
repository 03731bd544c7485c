//! Deterministic event queues.
//!
//! [`EventQueue`] is a priority queue keyed on [`SimTime`] with **stable FIFO
//! ordering for simultaneous events**: two events scheduled for the same
//! instant are popped in the order they were pushed. This determinism is what
//! lets every experiment in the workspace reproduce bit-identical results for
//! a given seed.
//!
//! [`LaneQueue`] is the same contract specialized for simulators whose
//! pending events are mostly one per *kind*: a fixed array of
//! single-entry lanes, popped by an argmin scan instead of heap sifting,
//! plus a binary-heap spill for the surplus. It is sequence-numbered
//! with the same global counter, so its pop order — including FIFO ties
//! — is identical to [`EventQueue`]'s for **every** push sequence, which
//! keeps the heap queue usable as a differential-test reference.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled in an [`EventQueue`], pairing a payload with its due
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant at which the event fires.
    pub at: SimTime,
    /// The payload.
    pub event: E,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and lowest
        // sequence number among ties) is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timed events.
///
/// # Example
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "decode done");
/// q.push(SimTime::from_nanos(10), "frame arrival");
/// q.push(SimTime::from_nanos(10), "timer");
///
/// let first = q.pop().unwrap();
/// assert_eq!((first.at, first.event), (SimTime::from_nanos(10), "frame arrival"));
/// // FIFO among simultaneous events:
/// assert_eq!(q.pop().unwrap().event, "timer");
/// assert_eq!(q.pop().unwrap().event, "decode done");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the backing heap reallocates. Simulators that know their
    /// steady-state event population preallocate here and keep the hot
    /// loop reallocation-free.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Reserves capacity for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulation time: the due time of the most recently popped
    /// event, or [`SimTime::ZERO`] if nothing has been popped yet.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time — the
    /// simulated past cannot be changed. Scheduling *at* the current time is
    /// allowed (zero-delay events).
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} in the past of {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time. Simultaneous events pop in push order. Returns `None` when
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some(Scheduled {
            at: entry.at,
            event: entry.event,
        })
    }

    /// The due time of the earliest pending event, if any, without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic min-priority queue of timed events, laid out as
/// `LANES` single-entry lanes plus a spill heap.
///
/// Simulators assign each event *kind* (next arrival, decode
/// completion, wake-up, …) a lane at push time. The overflow — a
/// second event of an occupied lane, or a lane index `≥ LANES` — lands
/// in the spill heap, whose minimum is an `O(1)` peek and whose pushes
/// and pops cost `O(log n)` however deep it grows. A pop is an argmin
/// scan over the `LANES` lane keys and the spill's minimum, so the
/// lanes themselves never pay for sifting.
///
/// Each lane is a packed `(time, sequence)` key plus a plain `E`
/// payload. The key alone says whether the lane is occupied: a free
/// lane holds the sentinel key `u128::MAX` and keeps the payload it
/// last held (or `E::default()`), which is never read. Hence the
/// `E: Copy + Default` bound: a pop copies the payload out instead of
/// taking an `Option<E>` and writing `None` back, a round trip through
/// the stack where a sampled profile found a store-forwarding stall.
///
/// The lane index is a **placement hint only**: it never affects
/// ordering. Every push draws from one global sequence counter and
/// pops are ordered by `(time, sequence)` exactly like [`EventQueue`],
/// so for any interleaving of pushes and pops — any lanes, any
/// collisions — the two queues produce identical `Scheduled` streams
/// (pinned by the differential tests in `tests/lane_differential.rs`).
///
/// # Example
///
/// ```
/// use simcore::event::LaneQueue;
/// use simcore::time::SimTime;
///
/// let mut q: LaneQueue<&str, 2> = LaneQueue::new();
/// q.push(0, SimTime::from_nanos(20), "decode done");
/// q.push(1, SimTime::from_nanos(10), "frame arrival");
/// q.push(1, SimTime::from_nanos(10), "timer"); // lane occupied: spills
///
/// assert_eq!(q.pop().unwrap().event, "frame arrival");
/// // FIFO among simultaneous events, across lanes and spill alike:
/// assert_eq!(q.pop().unwrap().event, "timer");
/// assert_eq!(q.pop().unwrap().event, "decode done");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct LaneQueue<E, const LANES: usize> {
    /// Packed `(at, seq)` sort key per lane — `at` in the high 64 bits,
    /// `seq` in the low 64 — so one integer comparison orders entries
    /// exactly like the `(at, seq)` tuple. [`EMPTY_KEY`] marks a free
    /// lane. The keys live in their own compact array so `pop`'s argmin
    /// scans one cache line of plain integers instead of walking full
    /// entries whose payloads can be large.
    keys: [u128; LANES],
    /// Event payloads per lane; meaningful exactly when the matching
    /// key is not [`EMPTY_KEY`] (a free lane's payload is stale).
    slots: [E; LANES],
    /// Overflow entries, a min-heap on `(at, seq)` through [`Entry`]'s
    /// inverted ordering (the one [`EventQueue`] uses), so the spill's
    /// candidate for the argmin is `spill.peek()`.
    spill: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

/// Key of a free lane. Sorts after every real packed key: `seq` is a
/// per-queue push counter, so a real key equals this sentinel only
/// after `u64::MAX` pushes, which cannot happen in practice
/// (debug-asserted in [`LaneQueue::push`]).
const EMPTY_KEY: u128 = u128::MAX;

/// Packs an `(at, seq)` pair into one integer preserving its order.
const fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

impl<E: Copy + Default, const LANES: usize> LaneQueue<E, LANES> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_spill_capacity(0)
    }

    /// Creates an empty queue whose spill heap holds `capacity` entries
    /// before reallocating. Simulators that know their worst-case
    /// overflow population preallocate here and keep the hot loop
    /// reallocation-free.
    #[must_use]
    pub fn with_spill_capacity(capacity: usize) -> Self {
        LaneQueue {
            keys: [EMPTY_KEY; LANES],
            slots: [E::default(); LANES],
            spill: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the due time of the most recently
    /// popped event, or [`SimTime::ZERO`] if nothing has been popped
    /// yet.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at instant `at`, preferring slot `lane`.
    ///
    /// If the lane is free the entry occupies it; if it is taken — or
    /// `lane ≥ LANES` — the entry joins the spill heap. Either way the
    /// event participates in the global `(time, sequence)` order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time — the
    /// simulated past cannot be changed. Scheduling *at* the current
    /// time is allowed (zero-delay events).
    pub fn push(&mut self, lane: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} in the past of {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq != u64::MAX, "sequence counter exhausted");
        if lane < LANES && self.keys[lane] == EMPTY_KEY {
            self.keys[lane] = pack_key(at, seq);
            self.slots[lane] = event;
        } else {
            self.spill.push(Entry { at, seq, event });
        }
    }

    /// Removes and returns the earliest event, advancing the clock to
    /// its due time. Simultaneous events pop in push order. Returns
    /// `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        // Empty lanes hold `EMPTY_KEY`, which loses every `<` comparison
        // against a real key, so they drop out of the argmin without a
        // separate occupancy test.
        let mut best = EMPTY_KEY;
        // `LANES` means "take from the spill heap" in the argmin below.
        let mut best_lane = LANES;
        for (i, &key) in self.keys.iter().enumerate() {
            if key < best {
                best = key;
                best_lane = i;
            }
        }
        if let Some(e) = self.spill.peek() {
            let key = pack_key(e.at, e.seq);
            if key < best {
                best = key;
                best_lane = LANES;
            }
        }
        if best == EMPTY_KEY {
            return None;
        }
        let (at, event) = if best_lane == LANES {
            let e = self.spill.pop().expect("argmin picked a spill entry");
            (e.at, e.event)
        } else {
            self.keys[best_lane] = EMPTY_KEY;
            (
                SimTime::from_nanos((best >> 64) as u64),
                self.slots[best_lane],
            )
        };
        self.now = at;
        Some(Scheduled { at, event })
    }

    /// The due time of the earliest pending event, if any, without
    /// popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let slot_min = self.keys.iter().copied().min().unwrap_or(EMPTY_KEY);
        let spill_min = self
            .spill
            .peek()
            .map_or(EMPTY_KEY, |e| pack_key(e.at, e.seq));
        let best = slot_min.min(spill_min);
        if best == EMPTY_KEY {
            None
        } else {
            Some(SimTime::from_nanos((best >> 64) as u64))
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY_KEY).count() + self.spill.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spill.is_empty() && self.keys.iter().all(|&k| k == EMPTY_KEY)
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.keys = [EMPTY_KEY; LANES];
        self.spill.clear();
    }
}

impl<E: Copy + Default, const LANES: usize> Default for LaneQueue<E, LANES> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn zero_delay_events_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.pop();
        q.push(q.now(), "b"); // same instant as current time is fine
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs_f64(1.0), 'x');
        q.push(SimTime::from_secs_f64(0.5), 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(0.5)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates_and_behaves_identically() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let cap = q.capacity();
        for i in 0..64 {
            q.push(SimTime::from_nanos(64 - i), i);
        }
        assert_eq!(q.capacity(), cap, "no growth within the preallocation");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let mut expected: Vec<u64> = (0..64).collect();
        expected.reverse();
        assert_eq!(order, expected);
        q.reserve(128);
        assert!(q.capacity() >= 128);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(30), 3);
        assert_eq!(q.pop().unwrap().event, 1);
        q.push(q.now() + SimDuration::from_nanos(10), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn lane_queue_pops_in_time_order_across_lanes() {
        let mut q: LaneQueue<i32, 3> = LaneQueue::new();
        q.push(2, SimTime::from_nanos(30), 3);
        q.push(0, SimTime::from_nanos(10), 1);
        q.push(1, SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn lane_queue_simultaneous_events_are_fifo_even_when_spilled() {
        // One lane, 100 simultaneous events: 99 spill. Pop order must
        // still be push order, exactly like the heap queue.
        let mut q: LaneQueue<i32, 1> = LaneQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(0, t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lane_queue_spilled_event_may_precede_the_slot_holder() {
        // The slot holds a LATER event than the spilled one: the argmin
        // must take the spill entry first.
        let mut q: LaneQueue<&str, 1> = LaneQueue::new();
        q.push(0, SimTime::from_nanos(50), "late slot");
        q.push(0, SimTime::from_nanos(10), "early spill");
        assert_eq!(q.pop().unwrap().event, "early spill");
        assert_eq!(q.pop().unwrap().event, "late slot");
    }

    #[test]
    fn lane_queue_out_of_range_lane_spills() {
        let mut q: LaneQueue<i32, 2> = LaneQueue::new();
        q.push(7, SimTime::from_nanos(10), 1);
        q.push(99, SimTime::from_nanos(10), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn lane_queue_clock_advances_on_pop() {
        let mut q: LaneQueue<(), 2> = LaneQueue::new();
        q.push(0, SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn lane_queue_scheduling_in_the_past_panics() {
        let mut q: LaneQueue<(), 2> = LaneQueue::new();
        q.push(0, SimTime::from_nanos(10), ());
        q.pop();
        q.push(1, SimTime::from_nanos(5), ());
    }

    #[test]
    fn lane_queue_zero_delay_events_allowed() {
        let mut q: LaneQueue<&str, 2> = LaneQueue::new();
        q.push(0, SimTime::from_nanos(10), "a");
        q.pop();
        q.push(0, q.now(), "b");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn lane_queue_peek_len_clear() {
        let mut q: LaneQueue<char, 2> = LaneQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(0, SimTime::from_secs_f64(1.0), 'x');
        q.push(0, SimTime::from_secs_f64(0.5), 'y'); // spills, is the min
        q.push(1, SimTime::from_secs_f64(0.75), 'z');
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(0.5)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn lane_queue_with_spill_capacity_stays_allocation_stable() {
        let mut q: LaneQueue<u64, 1> = LaneQueue::with_spill_capacity(16);
        let cap = q.spill.capacity();
        assert!(cap >= 16);
        for i in 0..16 {
            q.push(0, SimTime::from_nanos(i), i);
        }
        assert_eq!(q.spill.capacity(), cap, "no growth within preallocation");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    /// The differential contract in miniature: a mixed random workload
    /// through both queues pops identically. The heavyweight version
    /// (random lanes, collisions, interleaved pops) lives in
    /// `tests/lane_differential.rs`.
    #[test]
    fn lane_queue_matches_event_queue_on_a_mixed_schedule() {
        let mut heap = EventQueue::new();
        let mut lanes: LaneQueue<u32, 3> = LaneQueue::new();
        let times = [30u64, 10, 10, 50, 20, 20, 20, 40, 10, 60];
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_nanos(t);
            heap.push(at, i as u32);
            lanes.push(i % 4, at, i as u32);
        }
        loop {
            let (a, b) = (heap.pop(), lanes.pop());
            assert_eq!(a, b);
            assert_eq!(heap.now(), lanes.now());
            if a.is_none() {
                break;
            }
        }
    }
}
