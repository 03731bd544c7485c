//! Counting-allocator proof of the simulator hot loop's allocation
//! budget: after a warm-up run, a full simulation — construction, event
//! loop, end-of-trace drain, report assembly — performs a **fixed**
//! number of heap allocations, independent of how many clips (and hence
//! events) the workload contains. A per-event or per-clip allocation in
//! the kernel shows up here as a count that grows with the trace.
//!
//! This file holds exactly one `#[test]` so no concurrently running test
//! in the same binary can disturb the process-global counter.

#![deny(unsafe_op_in_unsafe_fn)]

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{self, Attachments};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation request.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn full_run_allocations_do_not_scale_with_workload() {
    // Max-performance governor and no DPM keep the policy layer out of
    // the picture (no calibration cache, no per-idle sleep planning), so
    // the measured region is the event kernel itself plus the fixed
    // construction/report scaffolding.
    let config = SystemConfig {
        governor: GovernorKind::MaxPerformance,
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    // Traces are pre-built: arrival generation is part of workload
    // construction, not of the measured run.
    let short = scenario::Workload::Mp3("A".into())
        .build(42)
        .expect("golden labels");
    let long = scenario::Workload::Mp3("ABC".into())
        .build(42)
        .expect("golden labels");
    assert!(
        long.frames().len() > 2 * short.frames().len(),
        "the long trace must carry materially more events"
    );

    // Warm-up: first run pays any lazy one-time setup.
    let warm = scenario::run_trace(&short, &config, 42, Attachments::default()).expect("warm run");
    assert!(warm.frames_completed > 0);

    let mut short_allocs = 0;
    let n_short = count_allocs(|| {
        let r =
            scenario::run_trace(&short, &config, 42, Attachments::default()).expect("short run");
        short_allocs = r.frames_completed;
        std::hint::black_box(&r);
    });
    let mut long_frames = 0;
    let n_long = count_allocs(|| {
        let r = scenario::run_trace(&long, &config, 42, Attachments::default()).expect("long run");
        long_frames = r.frames_completed;
        std::hint::black_box(&r);
    });
    assert!(long_frames > short_allocs, "long run decodes more frames");

    assert_eq!(
        n_short, n_long,
        "a full run's allocation count must not depend on the number of \
         clips: {n_short} allocs for 1 clip vs {n_long} for 3 — something \
         in the kernel allocates per event or per clip"
    );
}
