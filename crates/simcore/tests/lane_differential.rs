//! Differential tests: [`LaneQueue`] against the [`BinaryHeap`]-backed
//! [`EventQueue`] reference.
//!
//! The lane scheduler replaced the heap queue in the simulator hot loop;
//! its contract is *identical pop order for every push sequence* — FIFO
//! ties at equal timestamps included — with the lane index acting as a
//! placement hint only. These tests drive both queues with the same
//! randomized operation streams (tight time ranges to force collisions,
//! lane indices past `LANES` to force spills, pops interleaved with
//! pushes) and require the full observable state to match after every
//! step.
//!
//! [`BinaryHeap`]: std::collections::BinaryHeap

use proptest::prelude::*;
use simcore::event::{EventQueue, LaneQueue};
use simcore::time::SimDuration;

const LANES: usize = 4;

/// One randomized queue operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `now + dt` into `lane`; `lane ≥ LANES` exercises the
    /// explicit spill path, `dt = 0` a zero-delay event.
    Push { lane: usize, dt: u64 },
    /// Pop one event from both queues and compare.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // dt drawn from a tiny range so equal timestamps are common and
        // the FIFO tie-break carries real weight.
        3 => (0usize..LANES + 2, 0u64..4).prop_map(|(lane, dt)| Op::Push { lane, dt }),
        2 => Just(Op::Pop),
    ]
}

/// Applies `ops` to a lane queue and the heap reference in lockstep,
/// checking that pops, clocks, lengths, and peeks never diverge, then
/// drains both and compares the tails. Panics on any divergence;
/// returns the most events that were pending at once.
fn run_differential(ops: &[Op]) -> usize {
    let mut lane_q: LaneQueue<usize, LANES> = LaneQueue::new();
    let mut heap_q: EventQueue<usize> = EventQueue::new();
    let mut peak = 0;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Push { lane, dt } => {
                // The clocks advance in lockstep, so either `now` works
                // as the base for a future-or-present timestamp.
                let at = lane_q.now() + SimDuration::from_nanos(dt);
                lane_q.push(lane, at, i);
                heap_q.push(at, i);
            }
            Op::Pop => {
                let a = lane_q.pop().map(|s| (s.at, s.event));
                let b = heap_q.pop().map(|s| (s.at, s.event));
                assert_eq!(a, b, "pop diverged at op {i}");
            }
        }
        assert_eq!(lane_q.len(), heap_q.len());
        assert_eq!(lane_q.is_empty(), heap_q.is_empty());
        assert_eq!(lane_q.peek_time(), heap_q.peek_time());
        assert_eq!(lane_q.now(), heap_q.now());
        peak = peak.max(lane_q.len());
    }
    loop {
        let a = lane_q.pop().map(|s| (s.at, s.event));
        let b = heap_q.pop().map(|s| (s.at, s.event));
        let done = a.is_none();
        assert_eq!(a, b, "drain diverged");
        if done {
            break;
        }
    }
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of pushes (colliding timestamps, spilling
    /// lanes) and pops produces identical `Scheduled` streams from the
    /// lane scheduler and the heap reference.
    #[test]
    fn lane_queue_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 1..200)) {
        run_differential(&ops);
    }
}

/// The simulator's own traffic, which the random streams above never
/// reach: an arrival every ~25 ms on lane 0, its decode completion on
/// lane 1, and at each idle entry two sleep commands on lane 3, due
/// 0.3 s and 30 s later. Leaving idle does not cancel the commands, so
/// the 30 s ones pile up in the spill, over a thousand pending at once
/// and spread across 30 s, while the rest keep pushing and popping
/// around them. The random cases (≤ 200 ops, `dt` < 4 ns) never build
/// a spill this deep or this spread out in time.
#[test]
fn lane_queue_matches_heap_reference_on_a_deep_spill() {
    use simcore::rng::SimRng;
    const MS: u64 = 1_000_000;
    /// Schedules `lane`'s event kind `dt` after the model's clock and
    /// records the push.
    fn push(model: &mut EventQueue<usize>, ops: &mut Vec<Op>, lane: usize, dt: u64) {
        model.push(model.now() + SimDuration::from_nanos(dt), lane);
        ops.push(Op::Push { lane, dt });
    }
    // A model queue plays the stream out to decide what each pop
    // triggers; its payload is the lane, which names the event kind.
    let mut model: EventQueue<usize> = EventQueue::new();
    let mut ops = Vec::new();
    let mut rng = SimRng::seed_from(0xDEE9_5911);
    push(&mut model, &mut ops, 0, 25 * MS);
    while model.now().as_nanos() < 40_000 * MS {
        let next = model.pop().expect("arrivals never stop");
        ops.push(Op::Pop);
        match next.event {
            // Arrival: decoding starts, and the next frame is due.
            0 => {
                let decode = 3 * MS + rng.next_u64() % (9 * MS);
                push(&mut model, &mut ops, 1, decode);
                let gap = 20 * MS + rng.next_u64() % (10 * MS);
                push(&mut model, &mut ops, 0, gap);
            }
            // Decode done with the buffer empty: the device idles.
            1 => {
                push(&mut model, &mut ops, 3, 300 * MS);
                push(&mut model, &mut ops, 3, 30_000 * MS);
            }
            // A sleep command, stale or not, is only popped.
            _ => {}
        }
    }
    let peak = run_differential(&ops);
    assert!(peak > 1_000, "only {peak} events were ever pending");
}

/// Heavier sweep for the nightly `--include-ignored` pass: much longer
/// operation streams, seeded deterministically so a failure reproduces.
#[test]
#[ignore = "heavy differential sweep; covered nightly via --include-ignored"]
fn lane_queue_matches_heap_reference_heavy() {
    use simcore::rng::SimRng;
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(0x1A9E_D1FF ^ seed);
        let ops: Vec<Op> = (0..5_000)
            .map(|_| {
                let r = rng.next_u64();
                if r % 5 < 3 {
                    Op::Push {
                        lane: ((r >> 8) % (LANES as u64 + 2)) as usize,
                        dt: (r >> 16) % 4,
                    }
                } else {
                    Op::Pop
                }
            })
            .collect();
        run_differential(&ops);
    }
}
