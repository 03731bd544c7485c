//! Counting-allocator proof of the simulator hot loop's allocation
//! budget: after a warm-up run, a full simulation — construction, event
//! loop, end-of-trace drain, report assembly — performs a **fixed**
//! number of heap allocations, independent of how many clips (and hence
//! events) the workload contains, under every DPM policy. A per-event,
//! per-idle-period or per-clip allocation in the kernel shows up here as
//! a count that grows with the trace.
//!
//! Only allocations made by a thread that opts in are counted, so the
//! test harness's own threads cannot disturb the count. The file holds
//! exactly one `#[test]`.

#![deny(unsafe_op_in_unsafe_fn)]

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{self, Attachments};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts the allocation requests of
/// threads that set [`COUNTED`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const`-initialized
    /// and drop-free, so reading it from inside the allocator never
    /// allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
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
    COUNTED.with(|c| c.set(true));
    // The max-performance governor keeps the calibration cache out of
    // the picture, so the measured region is the event kernel, the DPM
    // policy's per-idle planning and the fixed construction/report
    // scaffolding. Every DPM kind runs here, in one test, because every
    // counted thread adds to the same counter.
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

    for dpm in [
        "none",
        "timeout:1.0",
        "break-even",
        "adaptive",
        "predictive",
        "renewal",
        "tismdp",
    ] {
        let config = SystemConfig {
            governor: GovernorKind::MaxPerformance,
            dpm: DpmKind::parse(dpm).expect("known DPM kind"),
            ..SystemConfig::default()
        };

        // Warm-up: first run pays any lazy one-time setup.
        let warm =
            scenario::run_trace(&short, &config, 42, Attachments::default()).expect("warm run");
        assert!(warm.frames_completed > 0);

        let mut short_frames = 0;
        let n_short = count_allocs(|| {
            let r = scenario::run_trace(&short, &config, 42, Attachments::default())
                .expect("short run");
            short_frames = r.frames_completed;
            std::hint::black_box(&r);
        });
        let mut long_frames = 0;
        let n_long = count_allocs(|| {
            let r =
                scenario::run_trace(&long, &config, 42, Attachments::default()).expect("long run");
            long_frames = r.frames_completed;
            std::hint::black_box(&r);
        });
        assert!(
            long_frames > short_frames,
            "{dpm}: long run decodes more frames"
        );

        if matches!(dpm, "adaptive" | "tismdp") {
            // Stale sleep commands stay queued until due, and these
            // policies leave enough of them on the three-clip trace to
            // grow the event queue's spill heap by one doubling more:
            // one reallocation, not a per-event cost.
            assert!(
                n_short <= n_long && n_long <= n_short + 1,
                "{dpm}: {n_short} allocs for 1 clip vs {n_long} for 3 is more \
                 than one spill doubling apart — something in the kernel \
                 allocates per event or per clip"
            );
        } else {
            assert_eq!(
                n_short, n_long,
                "{dpm}: a full run's allocation count must not depend on the \
                 number of clips: {n_short} allocs for 1 clip vs {n_long} for 3 \
                 — something in the kernel allocates per event or per clip"
            );
        }
    }
}
