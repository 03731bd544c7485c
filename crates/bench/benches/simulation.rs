//! Benchmarks of the full-system simulator and its substrates:
//! end-to-end clip simulation throughput, frame-buffer operations, and
//! the TISMDP solver.
//!
//! Plain timing harness (no external benchmark framework, so the
//! workspace builds offline): each case runs a few warm-up iterations,
//! then reports the mean wall-clock time over the measured iterations.

use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::tismdp::{TismdpConfig, TismdpPolicy};
use framequeue::FrameBuffer;
use hardware::SmartBadge;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{self, Attachments};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<40} {:>12.3} µs/iter", per_iter * 1e6);
}

fn bench_full_system() {
    // 100 s of MP3 clip A under the ideal governor: ~4000 frames.
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    bench("simulate_mp3_clip_100s_ideal", 20, || {
        let mut rng = SimRng::seed_from(1);
        let trace = workload::Mp3Clip::table2()[0].generate(&mut rng);
        black_box(scenario::run_trace(&trace, &config, 1, Attachments::default()).expect("runs"));
    });

    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::Tismdp { delay_weight: 2.0 },
        ..SystemConfig::default()
    };
    bench("simulate_mp3_clip_100s_tismdp", 20, || {
        let mut rng = SimRng::seed_from(2);
        let trace = workload::Mp3Clip::table2()[0].generate(&mut rng);
        black_box(scenario::run_trace(&trace, &config, 2, Attachments::default()).expect("runs"));
    });
}

fn bench_frame_buffer() {
    bench("frame_buffer_push_pop_10k", 100, || {
        let mut buf: FrameBuffer<u64> = FrameBuffer::new();
        let mut t = SimTime::ZERO;
        for i in 0..10_000u64 {
            t += SimDuration::from_micros(37);
            buf.push(t, i);
            if i % 2 == 0 {
                t += SimDuration::from_micros(11);
                black_box(buf.pop(t));
            }
        }
        black_box(buf.len());
    });
}

fn bench_tismdp_solver() {
    let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
    let idle = IdleMixture::streaming_default().expect("static params");
    bench("tismdp_solve_48_buckets", 50, || {
        black_box(TismdpPolicy::solve(&costs, &idle, TismdpConfig::default()).expect("solves"));
    });
}

fn main() {
    bench_full_system();
    bench_frame_buffer();
    bench_tismdp_solver();
}
