//! Deterministic parallel execution engine.
//!
//! The workspace's evaluation loops — Monte-Carlo threshold calibration,
//! chaos sweeps, ablation grids, table reproductions — are embarrassingly
//! parallel: many independent work items, each a pure function of its
//! index (every item derives its randomness from an index-forked
//! [`SimRng`](crate::rng::SimRng) stream, never from a shared mutable
//! one). This module runs such loops on a scoped-thread job pool while
//! guaranteeing that the **result is bit-identical at any thread count**:
//!
//! * work items are claimed from an atomic counter, but every result is
//!   written into the slot of its item *index*, so assembly order is
//!   independent of scheduling;
//! * no work item may observe another's side effects — the closure only
//!   gets its index and item, and the engine imposes `Sync` on captured
//!   state.
//!
//! The pool is built on [`std::thread::scope`], so borrowed data can flow
//! into workers without `'static` bounds and no external crates are
//! needed (the workspace builds offline).
//!
//! # Choosing a thread count
//!
//! Callers pass a [`Jobs`] value. [`Jobs::Auto`] resolves to the
//! process-wide default, which is the machine's available parallelism
//! until overridden by [`set_default_jobs`] — the hook the `--jobs N`
//! command-line flag uses.
//!
//! # Example
//!
//! ```
//! use simcore::par::{par_map_indexed, Jobs};
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let seq = par_map_indexed(Jobs::Count(1), &inputs, |i, &x| x * x + i as u64);
//! let par = par_map_indexed(Jobs::Count(4), &inputs, |i, &x| x * x + i as u64);
//! assert_eq!(seq, par); // bit-identical at any thread count
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Requested degree of parallelism for a parallel loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jobs {
    /// Use the process-wide default (see [`set_default_jobs`]); falls
    /// back to the machine's available parallelism.
    Auto,
    /// Use exactly this many worker threads (clamped to ≥ 1).
    Count(usize),
}

impl Jobs {
    /// Resolves to a concrete thread count ≥ 1.
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Jobs::Auto => default_jobs(),
            Jobs::Count(n) => n.max(1),
        }
    }
}

/// Process-wide default job count; 0 means "not set, use the machine".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (1 if it cannot be determined).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the process-wide default used by [`Jobs::Auto`]. `0` restores
/// the "use the machine's available parallelism" behaviour.
///
/// Because every parallel loop in this module is bit-deterministic, the
/// setting affects wall-clock time only, never results — `--jobs` flags
/// route through here.
pub fn set_default_jobs(n: usize) {
    DEFAULT_JOBS.store(n, Ordering::Relaxed);
}

/// The process-wide default job count [`Jobs::Auto`] resolves to.
#[must_use]
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available_jobs(),
        n => n,
    }
}

/// One worker's share of a profiled parallel loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpan {
    /// Worker index within the loop, `0..threads`.
    pub worker: usize,
    /// Number of items this worker claimed and processed.
    pub items: usize,
    /// Wall time the worker spent inside the loop, nanoseconds.
    pub busy_ns: u64,
}

/// A span-style profile of one parallel loop execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParSpan {
    /// Worker threads the loop ran with (1 = inline sequential path).
    pub threads: usize,
    /// Total items mapped.
    pub items: usize,
    /// End-to-end wall time of the loop, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker activity, ordered by worker index.
    pub workers: Vec<WorkerSpan>,
}

/// Whether parallel loops record [`ParSpan`]s. Off by default; the
/// disabled cost is a single relaxed atomic load per loop.
static PROFILING: AtomicBool = AtomicBool::new(false);
static SPANS: OnceLock<Mutex<Vec<ParSpan>>> = OnceLock::new();

fn span_store() -> &'static Mutex<Vec<ParSpan>> {
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Enables or disables span profiling of parallel loops process-wide.
///
/// Profiling observes wall-clock time only — it never changes loop
/// results, which stay bit-identical at any thread count either way.
pub fn set_profiling(enabled: bool) {
    PROFILING.store(enabled, Ordering::Relaxed);
}

/// `true` if span profiling is currently enabled.
#[must_use]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Drains and returns every span recorded since the last call.
///
/// Poisoned-lock state is recovered, not propagated: a panic inside a
/// `catch_unwind`-supervised work item (the fleet engine's failure
/// containment) must never turn later profiling calls into cascading
/// panics.
#[must_use]
pub fn take_spans() -> Vec<ParSpan> {
    std::mem::take(&mut *span_store().lock().unwrap_or_else(|e| e.into_inner()))
}

fn record_span(span: ParSpan) {
    span_store()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(span);
}

/// Maps `f` over `items` on a scoped-thread job pool, returning results
/// in item order.
///
/// `f(i, &items[i])` must be a pure function of its arguments (plus any
/// `Sync` captured state); under that contract the output is identical
/// for every thread count, including the inline sequential path used
/// when one thread is requested.
///
/// Threads are capped at the item count; with a single job (or a single
/// item) no threads are spawned at all.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once the
/// scope joins).
pub fn par_map_indexed<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = jobs.resolve().min(n);
    let profile = PROFILING.load(Ordering::Relaxed);
    let loop_start = profile.then(Instant::now);
    if threads <= 1 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        if let Some(t0) = loop_start {
            let busy_ns = t0.elapsed().as_nanos() as u64;
            record_span(ParSpan {
                threads: 1,
                items: n,
                wall_ns: busy_ns,
                workers: vec![WorkerSpan {
                    worker: 0,
                    items: n,
                    busy_ns,
                }],
            });
        }
        return out;
    }
    // One slot per item: workers race only on *claiming* indices, never
    // on where a result lands, so assembly is scheduling-independent.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker_spans: Mutex<Vec<WorkerSpan>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (slots, next, f, worker_spans) = (&slots, &next, &f, &worker_spans);
            scope.spawn(move || {
                let worker_start = profile.then(Instant::now);
                let mut claimed = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                    claimed += 1;
                }
                if let Some(t0) = worker_start {
                    worker_spans
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(WorkerSpan {
                            worker,
                            items: claimed,
                            busy_ns: t0.elapsed().as_nanos() as u64,
                        });
                }
            });
        }
    });
    if let Some(t0) = loop_start {
        let mut workers = worker_spans.into_inner().unwrap_or_else(|e| e.into_inner());
        workers.sort_by_key(|w| w.worker);
        record_span(ParSpan {
            threads,
            items: n,
            wall_ns: t0.elapsed().as_nanos() as u64,
            workers,
        });
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Maps `f` over the index range `0..n` — the by-index variant of
/// [`par_map_indexed`] for loops that have no input slice (Monte-Carlo
/// trials, seed sweeps).
///
/// # Panics
///
/// Panics if `f` panics on any index.
pub fn par_map_range<R, F>(jobs: Jobs, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map_indexed(jobs, &indices, |_, &i| f(i))
}

/// Streams `map` over `range` in consecutive batches of `batch` items,
/// folding each batch's results into `acc` **in index order** — the
/// bounded-memory companion to [`par_map_range`] for fleet-scale loops
/// where materializing every result at once is wasteful.
///
/// Each batch is mapped on the parallel engine; the fold runs on the
/// calling thread between batches, so `fold(acc, i, map(i))` sees
/// indices strictly ascending. `after_batch(&acc, next_index)` runs once
/// per completed batch — the progress hook checkpointing callers (the
/// fleet engine) use to snapshot the accumulated prefix at
/// deterministic boundaries. A `batch` of 0 is treated as 1.
///
/// `range.start` need not be zero: a resumed caller passes the first
/// *unfinished* index and an accumulator pre-seeded with the finished
/// prefix. Because batch boundaries are a pure function of
/// `(range, batch)`, a resumed run revisits exactly the boundaries the
/// interrupted run would have hit.
///
/// Within each batch, items are claimed by workers in ascending
/// `(schedule(i), i)` order, so items sharing a key run back-to-back on
/// the same worker — the cohort-locality hook the fleet engine uses to
/// step identical-config devices as a group (shared threshold tables
/// and detector state stay hot in cache). A constant key claims in
/// plain index order. Scheduling is *only* about claim order: every
/// result still lands in the slot of its item index and the fold still
/// sees indices strictly ascending, so under the purity contract of
/// [`par_map_indexed`] the accumulator is bit-identical for every
/// `jobs` count **and every schedule key**.
///
/// The first error returned by `fold` or `after_batch` aborts the loop
/// immediately — remaining batches are never mapped — and is returned
/// to the caller.
///
/// # Errors
///
/// Returns the first error produced by `fold` or `after_batch`.
///
/// # Panics
///
/// Panics if `map` panics on any index.
#[allow(clippy::too_many_arguments)]
pub fn par_try_fold_range_batched_by<R, A, E, F, G, H, K>(
    jobs: Jobs,
    range: std::ops::Range<usize>,
    batch: usize,
    schedule: K,
    map: F,
    init: A,
    mut fold: G,
    mut after_batch: H,
) -> Result<A, E>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    G: FnMut(A, usize, R) -> Result<A, E>,
    H: FnMut(&A, usize) -> Result<(), E>,
    K: Fn(usize) -> u64,
{
    let batch = batch.max(1);
    let mut acc = init;
    let mut start = range.start;
    while start < range.end {
        let m = batch.min(range.end - start);
        // Claim order within the batch: stable sort by schedule key, so
        // equal-key items keep their relative index order and run
        // consecutively on whichever worker claims them.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&j| schedule(start + j));
        let mapped = par_map_indexed(jobs, &order, |_, &j| map(start + j));
        // Scatter back to index order before folding.
        let mut results: Vec<Option<R>> = (0..m).map(|_| None).collect();
        for (pos, r) in mapped.into_iter().enumerate() {
            results[order[pos]] = Some(r);
        }
        for (j, r) in results.into_iter().enumerate() {
            let r = r.expect("every offset scheduled exactly once");
            acc = fold(acc, start + j, r)?;
        }
        start += m;
        after_batch(&acc, start)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn jobs_resolve_is_at_least_one() {
        assert_eq!(Jobs::Count(0).resolve(), 1);
        assert_eq!(Jobs::Count(7).resolve(), 7);
        assert!(Jobs::Auto.resolve() >= 1);
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_indexed(Jobs::Count(8), &items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        // Index-forked RNG work items: the engine's intended usage.
        let work = |i: usize| -> f64 {
            let mut rng = SimRng::seed_from(42).fork_indexed("par-test", i as u64);
            (0..100).map(|_| rng.next_f64()).sum()
        };
        let seq = par_map_range(Jobs::Count(1), 64, work);
        for jobs in [2, 3, 8] {
            assert_eq!(seq, par_map_range(Jobs::Count(jobs), 64, work), "{jobs}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(Jobs::Count(4), &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(Jobs::Count(4), &[5u8], |_, &x| x), vec![5]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_range(Jobs::Count(64), 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_jobs_round_trips() {
        // Serialized with a lock-free global: restore afterwards so other
        // tests see the machine default.
        let before = default_jobs();
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        assert_eq!(Jobs::Auto.resolve(), 3);
        set_default_jobs(0);
        assert_eq!(default_jobs(), available_jobs());
        set_default_jobs(if before == available_jobs() {
            0
        } else {
            before
        });
    }

    /// Serializes the tests that drain or poison the global span store;
    /// without it they race on `take_spans`. The guard itself recovers
    /// from poisoning, since the poison test panics on purpose.
    static SPAN_STORE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn poisoned_span_store_recovers_instead_of_cascading() {
        let _serialize = SPAN_STORE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Poison the global span-store mutex the way a supervised device
        // panic would: panic while holding the lock, catch the unwind.
        let poison = std::panic::catch_unwind(|| {
            let _guard = span_store().lock().unwrap_or_else(|e| e.into_inner());
            panic!("poison the span store");
        });
        assert!(poison.is_err());
        // Regression: these panicked on `PoisonError` before the
        // `unwrap_or_else(into_inner)` recovery, turning every later
        // contained failure into a cascading abort.
        record_span(ParSpan {
            threads: 1,
            items: 12_345,
            wall_ns: 0,
            workers: Vec::new(),
        });
        let spans = take_spans();
        assert!(
            spans.iter().any(|s| s.items == 12_345),
            "span recorded after poisoning must survive"
        );
    }

    #[test]
    fn profiling_records_spans_without_changing_results() {
        let _serialize = SPAN_STORE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let work = |i: usize| -> f64 {
            let mut rng = SimRng::seed_from(7).fork_indexed("span-test", i as u64);
            (0..50).map(|_| rng.next_f64()).sum()
        };
        let baseline = par_map_range(Jobs::Count(3), 64, work);
        set_profiling(true);
        let profiled = par_map_range(Jobs::Count(3), 64, work);
        let sequential = par_map_range(Jobs::Count(1), 64, work);
        set_profiling(false);
        let spans = take_spans();
        assert_eq!(baseline, profiled, "profiling must not perturb results");
        assert_eq!(baseline, sequential);
        // Other tests may run concurrently; find our spans by shape.
        let par_span = spans
            .iter()
            .find(|s| s.threads == 3 && s.items == 64)
            .expect("parallel span recorded");
        assert_eq!(par_span.workers.len(), 3);
        assert_eq!(par_span.workers.iter().map(|w| w.items).sum::<usize>(), 64);
        assert!(par_span
            .workers
            .windows(2)
            .all(|w| w[0].worker < w[1].worker));
        let seq_span = spans
            .iter()
            .find(|s| s.threads == 1 && s.items == 64)
            .expect("sequential span recorded");
        assert_eq!(seq_span.workers.len(), 1);
        // Disabled again: no further spans accumulate.
        let _ = par_map_range(Jobs::Count(2), 8, |i| i);
        assert!(!take_spans().iter().any(|s| s.items == 8 && s.threads == 2));
    }

    /// Folds `work` over `range` into a `Vec`, asserting that the fold
    /// sees ascending indices and the batch hook the folded prefix.
    fn fold_all<K: Fn(usize) -> u64>(
        jobs: usize,
        range: std::ops::Range<usize>,
        batch: usize,
        key: K,
        work: impl Fn(usize) -> f64 + Sync,
        boundaries: &mut Vec<usize>,
    ) -> Vec<f64> {
        let start = range.start;
        let folded: Result<Vec<f64>, ()> = par_try_fold_range_batched_by(
            Jobs::Count(jobs),
            range,
            batch,
            key,
            work,
            Vec::new(),
            |mut acc, i, r| {
                assert_eq!(start + acc.len(), i, "fold must see ascending indices");
                acc.push(r);
                Ok(acc)
            },
            |acc, done| {
                assert_eq!(start + acc.len(), done);
                boundaries.push(done);
                Ok(())
            },
        );
        folded.expect("no errors")
    }

    #[test]
    fn batched_fold_matches_unbatched_map_and_fires_batch_hook() {
        let work = |i: usize| -> f64 {
            let mut rng = SimRng::seed_from(9).fork_indexed("fold-test", i as u64);
            (0..20).map(|_| rng.next_f64()).sum()
        };
        let reference = par_map_range(Jobs::Count(1), 100, work);
        for (jobs, batch) in [(1, 7), (4, 7), (4, 100), (8, 1), (3, 0)] {
            let mut boundaries = Vec::new();
            let folded = fold_all(jobs, 0..100, batch, |_| 0, work, &mut boundaries);
            assert_eq!(folded, reference, "jobs={jobs} batch={batch}");
            assert_eq!(*boundaries.last().expect("hook fired"), 100);
            assert!(boundaries.windows(2).all(|w| w[1] - w[0] <= batch.max(1)));
        }
        let mut boundaries = Vec::new();
        assert!(fold_all(4, 0..0, 16, |_| 0, work, &mut boundaries).is_empty());
        assert!(boundaries.is_empty(), "an empty range runs no batch");
    }

    #[test]
    fn schedule_key_changes_claim_order_but_never_results() {
        let work = |i: usize| -> f64 {
            let mut rng = SimRng::seed_from(11).fork_indexed("sched-test", i as u64);
            (0..20).map(|_| rng.next_f64()).sum()
        };
        let reference = par_map_range(Jobs::Count(1), 90, work);
        // Keys that interleave (cohort round-robin), reverse, and
        // collapse to a constant — none may perturb fold order/results.
        let keys: [fn(usize) -> u64; 3] = [|i| (i % 7) as u64, |i| u64::MAX - i as u64, |_| 42];
        for key in keys {
            for jobs in [1, 3, 8] {
                let folded = fold_all(jobs, 0..90, 16, key, work, &mut Vec::new());
                assert_eq!(folded, reference, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn try_fold_resumes_mid_range_and_stops_on_first_error() {
        let work = |i: usize| i * 2;
        // Resume: start at 6 with a pre-seeded prefix; boundaries land
        // where the batch grid dictates.
        let mut boundaries = Vec::new();
        let resumed = par_try_fold_range_batched_by(
            Jobs::Count(2),
            6..20,
            4,
            |i| (i % 3) as u64,
            work,
            (0..6).map(work).collect::<Vec<_>>(),
            |mut acc, _i, r| -> Result<_, String> {
                acc.push(r);
                Ok(acc)
            },
            |_acc, done| {
                boundaries.push(done);
                Ok(())
            },
        )
        .expect("no errors");
        assert_eq!(resumed, (0..20).map(work).collect::<Vec<_>>());
        assert_eq!(boundaries, [10, 14, 18, 20]);

        // A fold error aborts before later batches are mapped.
        let mapped = AtomicUsize::new(0);
        let failed: Result<usize, &str> = par_try_fold_range_batched_by(
            Jobs::Count(1),
            0..100,
            5,
            |_| 0,
            |i| {
                mapped.fetch_add(1, Ordering::Relaxed);
                i
            },
            0usize,
            |acc, _i, r| if r == 7 { Err("boom") } else { Ok(acc + r) },
            |_acc, _done| Ok(()),
        );
        assert_eq!(failed, Err("boom"));
        assert!(
            mapped.load(Ordering::Relaxed) <= 10,
            "later batches must not be mapped"
        );

        // An after_batch error aborts too.
        let failed: Result<usize, &str> = par_try_fold_range_batched_by(
            Jobs::Count(2),
            0..100,
            5,
            |_| 0,
            |i| i,
            0usize,
            |acc, _i, r| Ok(acc + r),
            |_acc, done| if done >= 10 { Err("stop") } else { Ok(()) },
        );
        assert_eq!(failed, Err("stop"));
    }

    #[test]
    fn panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            par_map_range(Jobs::Count(2), 8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}
