//! A frozen reference workload that measures how fast the host runs
//! right now.
//!
//! On a shared host the same fleet run can take 1.5× longer for seconds
//! or minutes at a time, with the process's own CPU time growing alike
//! (neighbours on the same physical core, not preemption). Timing each
//! fleet run next to this reference lets the benchmark report its
//! figures at one fixed host speed.
//!
//! The reference is a miniature of what a simulated device does —
//! build a frame trace with exponential inter-arrivals, copy it, replay
//! it through an event queue with per-event energy bookkeeping — written
//! here with the standard library alone. It shares no code with the
//! program, so a change to the program never changes the reference, and
//! it must itself never change: every recorded figure is relative to it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Devices one reference pass simulates.
const DEVICES: u64 = 8;
/// Frames of each reference device.
const FRAMES: usize = 30_000;
/// Seconds one single-threaded reference pass takes on a host at the
/// benchmark's nominal speed: the fastest passes on the 2-core x86-64
/// KVM guest the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.021;

#[derive(Clone, Copy)]
struct Frame {
    arrival: f64,
    cycles: f64,
    deadline: f64,
}

/// xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// One reference device; returns a checksum so nothing is optimized
/// away.
fn device(seed: u64) -> f64 {
    const POWER_W: [f64; 8] = [0.1, 0.35, 0.6, 0.9, 1.3, 1.8, 2.4, 3.0];
    const FREQ_HZ: [f64; 8] = [
        59.0e6, 73.7e6, 88.5e6, 103.2e6, 118.0e6, 132.7e6, 147.5e6, 162.2e6,
    ];
    let mut rng = Rng(seed | 1);
    let mut t = 0.0;
    let built: Vec<Frame> = (0..FRAMES)
        .map(|_| {
            t += -rng.unit().ln() * 0.026;
            let size = 200.0 + (rng.next() % 800) as f64;
            Frame {
                arrival: t,
                cycles: size * 2.5e3 * (0.8 + 0.4 * rng.unit()),
                deadline: t + 0.2,
            }
        })
        .collect();
    let frames = built.to_vec();

    let ns = |s: f64| (s * 1e9) as u64;
    let mut queue: BinaryHeap<Reverse<(u64, bool, usize)>> = BinaryHeap::new();
    let mut next = 0;
    while next < 16 {
        queue.push(Reverse((ns(frames[next].arrival), false, next)));
        next += 1;
    }
    let (mut energy_j, mut busy_until, mut rate, mut late) = (0.0f64, 0.0f64, 0.0f64, 0u32);
    while let Some(Reverse((at, done, i))) = queue.pop() {
        let now = at as f64 * 1e-9;
        let f = &frames[i];
        if done {
            late += u32::from(now > f.deadline);
            continue;
        }
        rate = 0.95 * rate + 0.05 / (now - busy_until).abs().max(1e-3);
        let level = ((rate / 5.0) as usize).min(7);
        let start = busy_until.max(now);
        busy_until = start + f.cycles / FREQ_HZ[level];
        energy_j += POWER_W[level] * (busy_until - start);
        queue.push(Reverse((ns(busy_until), true, i)));
        if next < frames.len() {
            queue.push(Reverse((ns(frames[next].arrival), false, next)));
            next += 1;
        }
    }
    energy_j + f64::from(late) + built[FRAMES / 2].arrival
}

/// Runs one reference pass on `threads` threads, which claim its devices
/// one at a time, and returns its wall time in seconds.
///
/// A cold set-up calibrates on every core, so its reference runs on
/// every core too: a busy neighbour on either core then slows both.
#[must_use]
pub fn pass_s(threads: usize) -> f64 {
    let next = AtomicU64::new(0);
    let claim = || loop {
        let d = next.fetch_add(1, Ordering::Relaxed);
        if d >= DEVICES {
            break;
        }
        black_box(device(black_box(d + 1)));
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(claim);
        }
        claim();
    });
    t0.elapsed().as_secs_f64()
}

/// `wall_s` rescaled to the nominal host speed, given a reference pass
/// on `threads` threads made next to it that took `reference_s`.
#[must_use]
pub fn at_nominal(wall_s: f64, reference_s: f64, threads: usize) -> f64 {
    wall_s * NOMINAL_S / (reference_s * threads as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic() {
        assert_eq!(device(3).to_bits(), device(3).to_bits());
        assert_ne!(device(3).to_bits(), device(4).to_bits());
    }

    #[test]
    fn a_slow_host_shortens_the_rescaled_wall() {
        assert_eq!(at_nominal(1.0, NOMINAL_S, 1), 1.0);
        assert!((at_nominal(1.5, 1.5 * NOMINAL_S, 1) - 1.0).abs() < 1e-12);
        assert!((at_nominal(1.0, 2.0 * NOMINAL_S, 1) - 0.5).abs() < 1e-12);
        // Two threads at nominal speed finish the pass in half the time.
        assert!((at_nominal(1.0, NOMINAL_S / 2.0, 2) - 1.0).abs() < 1e-12);
    }
}
