//! Counting-allocator proof of the calibration hot loop's allocation
//! budget: after one warm-up call per thread, `trial_statistic` performs
//! **zero** heap allocations per trial.
//!
//! Only allocations made by a thread that opts in are counted, so the
//! test harness's own threads (libtest's main thread is still allocating
//! around the spawn when the measured loop starts) cannot disturb the
//! count. The file holds exactly one `#[test]`, and the measured region
//! calls nothing but the trial kernel.

#![deny(unsafe_op_in_unsafe_fn)]

use detect::calibrate::{trial_statistic, CalibrationConfig};
use simcore::rng::SimRng;
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

#[test]
fn calibration_trials_allocate_zero_after_warmup() {
    COUNTED.with(|c| c.set(true));
    let config = CalibrationConfig::default();
    let root = SimRng::seed_from(0x00A1_10C8);

    // Warm-up: the first trial on this thread sizes the thread-local
    // scratch arena (window ring + staging buffer).
    let warm = trial_statistic(2.0, config, root.fork_indexed("warmup", 0));
    assert!(warm.is_finite());

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut acc = 0.0f64;
    for t in 0..500 {
        // RNG forking is arithmetic on the seed — no allocation — so the
        // measured region is exactly one full Monte-Carlo trial per
        // iteration: 100 batched Exp(1) draws, 100 window pushes, and
        // the kernelized maximize scan.
        acc += trial_statistic(2.0, config, root.fork_indexed("trial", t));
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    std::hint::black_box(acc);

    assert_eq!(
        after - before,
        0,
        "calibration inner loop allocated {} times over 500 trials",
        after - before
    );

    // Changing the window size is allowed to reallocate the arena once —
    // and then the loop is allocation-free again at the new size.
    let resized = CalibrationConfig {
        window: 60,
        k_step: 6,
        ..config
    };
    let _ = trial_statistic(2.0, resized, root.fork_indexed("resize-warmup", 0));
    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 0..100 {
        std::hint::black_box(trial_statistic(
            2.0,
            resized,
            root.fork_indexed("resized", t),
        ));
    }
    assert_eq!(ALLOCS.load(Ordering::SeqCst) - before, 0);
}
