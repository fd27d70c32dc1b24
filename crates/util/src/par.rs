//! Deterministic data parallelism over scoped threads.
//!
//! The workspace's hot loops — per-user visibility maps, codebook sector
//! sweeps, pairwise IoU sweeps, multi-config experiment replication — are
//! embarrassingly parallel, but the workspace is intentionally
//! dependency-free (`DESIGN.md` §7), so `rayon` is not an option. This
//! module is the in-tree substitute: [`par_map`], [`par_map_indexed`] and
//! [`chunked`] fan work out over `std::thread::scope` workers and return
//! results **in input order**.
//!
//! ## The determinism contract
//!
//! Running under `VOLCAST_THREADS=1` and `VOLCAST_THREADS=N` must produce
//! **byte-identical** results. The module guarantees its half of that
//! contract by construction:
//!
//! - results are collected positionally (`out[i]` is `f(items[i])`),
//!   regardless of which worker computed them or in what order they
//!   finished;
//! - no reduction reorders floating-point operations — callers that fold
//!   over the returned `Vec` do so in input order on the calling thread.
//!
//! Callers own the other half: the mapped closure must be a pure function
//! of `(item, index)`. Per-item randomness must therefore derive its seed
//! from `(base_seed, item_index)` — use [`crate::rng::Rng::for_stream`],
//! the SplitMix64 stream splitter — or pre-draw all random parameters
//! sequentially *before* the parallel region, never share one mutable
//! generator across items.
//!
//! ## The worker budget
//!
//! The thread budget is lazily initialized, shared process-wide, and read
//! from `VOLCAST_THREADS` (default: available parallelism; `1` forces the
//! serial path for debugging). Workers themselves are *scoped* threads
//! spawned per region: a persistent pool cannot execute closures that
//! borrow the caller's stack without `unsafe` lifetime erasure, which this
//! crate forbids, and the spawn cost (tens of microseconds) is noise
//! against the millisecond-scale regions the workspace parallelizes. See
//! `DESIGN.md` §8 for the full rationale.
//!
//! Nested parallel regions do not oversubscribe: a `par_map` issued from
//! inside a worker runs serially on that worker.
//!
//! Because workers are scoped threads, their thread-local destructors run
//! before the region's `join()` returns — [`crate::obs`] relies on this
//! to flush each worker's metric sink into the global registry by the
//! time `par_map` hands results back to the caller.
//!
//! ```
//! use volcast_util::par;
//!
//! let squares = par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let labeled = par::par_map_indexed(&["a", "b"], |i, s| format!("{i}:{s}"));
//! assert_eq!(labeled, vec!["0:a", "1:b"]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker budget; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `true` while this thread is a worker inside a parallel region.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The worker budget for parallel regions.
///
/// Resolved lazily on first use: `VOLCAST_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (falling back
/// to 1). The resolved value is process-wide and stable afterwards; tests
/// and benches may override it with [`with_thread_count`] /
/// [`set_thread_count`].
pub fn thread_count() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = std::env::var("VOLCAST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // Racing initializers compute the same value unless the env changed
    // mid-race; first store wins either way, keeping the budget stable.
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Overrides the worker budget (clamped to at least 1).
///
/// Intended for benches that compare thread counts in-process; tests use
/// [`with_thread_count`], and production code the `VOLCAST_THREADS`
/// environment variable.
pub fn set_thread_count(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Serializes [`with_thread_count`] scopes process-wide.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the worker budget overridden to `n` (clamped to at least
/// 1), then restores the previous budget, also when `f` panics.
///
/// Scopes hold a process-wide lock for their whole duration, so tests that
/// compare thread counts under the parallel test harness cannot change
/// each other's budget mid-run. Scopes must not nest (the inner one would
/// wait on the outer one forever).
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_count(self.0);
        }
    }
    // A panicking scope poisons the lock; the budget is restored by then,
    // so the poison carries no broken state.
    let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(thread_count());
    set_thread_count(n);
    f()
}

/// `true` when the calling thread is itself a worker of an enclosing
/// parallel region (nested regions run serially).
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(|f| f.get())
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — same values, same
/// order — but computed by up to [`thread_count`] scoped workers. Panics
/// in `f` are propagated to the caller (the first observed panic payload
/// is resumed after all workers have been joined).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the item index passed to the closure.
///
/// The index is the key to deterministic per-item randomness: derive each
/// item's seed from `(base_seed, index)` via
/// [`crate::rng::Rng::for_stream`] and the output is independent of the
/// worker budget.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = thread_count().min(n);
    if workers <= 1 || in_parallel_region() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });

    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map: worker skipped an item"))
        .collect()
}

/// Applies `f` to every item of `items` **in place**, in parallel: the
/// mutable analogue of [`par_map_indexed`] for pre-allocated slots (e.g. a
/// GOP of per-frame codec arenas, each owning its scratch and output
/// buffers).
///
/// Work is split into contiguous chunks of `ceil(n / workers)` items, one
/// chunk per scoped worker, so each slot is touched by exactly one thread
/// and no result collection or copying happens. Determinism follows the
/// module contract: `f` must be a pure function of `(index, item)`, and
/// then the final slot states are independent of the worker budget —
/// chunking only decides *who* runs an item, never *what* it computes.
/// Nested calls from inside a parallel region run serially on the calling
/// worker; panics in `f` propagate to the caller after all workers joined.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = thread_count().min(n);
    if workers <= 1 || in_parallel_region() {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, run) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                for (j, item) in run.iter_mut().enumerate() {
                    f(ci * chunk + j, item);
                }
            });
        }
        // `scope` joins every worker before returning and re-raises the
        // first panic, matching par_map's propagation behaviour.
    });
}

/// Maps `f` over `items` in parallel with chunked scheduling: workers
/// claim contiguous runs of `chunk_size` items, which amortizes the
/// claim-an-item synchronization for very cheap `f`. Results are returned
/// in input order; `chunk_size` has no effect on values, only throughput.
pub fn chunked<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let chunk = chunk_size.max(1);
    let n_chunks = n.div_ceil(chunk);
    let workers = thread_count().min(n_chunks);
    if workers <= 1 || in_parallel_region() {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut parts: Vec<Option<Vec<R>>> = Vec::with_capacity(n_chunks);
    parts.resize_with(n_chunks, || None);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        local.push((c, items[start..end].iter().map(&f).collect()));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (c, rs) in pairs {
                        parts[c] = Some(rs);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });

    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    parts
        .into_iter()
        .flat_map(|part| part.expect("chunked: worker skipped a chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1, 2, 4, 8] {
            with_thread_count(threads, || {
                assert_eq!(par_map(&items, |&x| x.wrapping_mul(x) ^ 7), serial);
            });
        }
    }

    #[test]
    fn par_map_indexed_passes_indices_in_order() {
        with_thread_count(4, || {
            let items = vec!["x"; 100];
            let out = par_map_indexed(&items, |i, _| i);
            assert_eq!(out, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        with_thread_count(4, || {
            assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
            assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
            assert_eq!(chunked(&[] as &[u32], 8, |&x| x), Vec::<u32>::new());
        });
    }

    #[test]
    fn chunked_matches_map_for_all_chunk_sizes() {
        with_thread_count(4, || {
            let items: Vec<i64> = (-40..60).collect();
            let serial: Vec<i64> = items.iter().map(|&x| 3 * x - 1).collect();
            for chunk in [1, 2, 3, 7, 100, 1000] {
                assert_eq!(chunked(&items, chunk, |&x| 3 * x - 1), serial);
            }
            // chunk_size 0 is clamped, not a panic or a hang.
            assert_eq!(chunked(&items, 0, |&x| 3 * x - 1), serial);
        });
    }

    #[test]
    fn par_for_each_mut_matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..257u64).map(|x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1, 2, 4, 8] {
            with_thread_count(threads, || {
                let mut items: Vec<u64> = (0..257).collect();
                par_for_each_mut(&mut items, |i, x| {
                    assert_eq!(i as u64, *x);
                    *x = x.wrapping_mul(*x) ^ 7;
                });
                assert_eq!(items, serial, "threads={threads}");
            });
        }
    }

    #[test]
    fn par_for_each_mut_empty_and_singleton() {
        with_thread_count(4, || {
            let mut empty: Vec<u32> = Vec::new();
            par_for_each_mut(&mut empty, |_, _| unreachable!());
            let mut one = vec![5u32];
            par_for_each_mut(&mut one, |i, x| *x += i as u32 + 1);
            assert_eq!(one, vec![6]);
        });
    }

    #[test]
    fn par_for_each_mut_nested_runs_serially() {
        with_thread_count(4, || {
            let outer: Vec<u32> = (0..8).collect();
            let out = par_map(&outer, |&x| {
                let mut inner: Vec<u32> = (0..4).collect();
                par_for_each_mut(&mut inner, |_, y| {
                    assert!(in_parallel_region());
                    *y += x * 10;
                });
                inner.iter().sum::<u32>()
            });
            let expect: Vec<u32> = (0..8).map(|x| 4 * (x * 10) + 6).collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn par_for_each_mut_panics_propagate() {
        with_thread_count(4, || {
            let mut items: Vec<u32> = (0..64).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_for_each_mut(&mut items, |_, x| {
                    if *x == 33 {
                        panic!("boom at {x}");
                    }
                })
            }));
            assert!(result.is_err(), "panic must propagate");
        });
    }

    #[test]
    fn panics_propagate_to_caller() {
        with_thread_count(4, || {
            let items: Vec<u32> = (0..64).collect();
            let result = std::panic::catch_unwind(|| {
                par_map(&items, |&x| {
                    if x == 33 {
                        panic!("boom at {x}");
                    }
                    x
                })
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("boom at 33"), "unexpected payload {msg}");
        });
    }

    #[test]
    fn nested_regions_run_serially_and_correctly() {
        with_thread_count(4, || {
            let outer: Vec<u32> = (0..8).collect();
            let out = par_map(&outer, |&x| {
                assert!(thread_count() > 1);
                // The nested region must take the serial path on this worker.
                let inner: Vec<u32> = (0..4).collect();
                let nested = par_map(&inner, |&y| {
                    assert!(in_parallel_region());
                    x * 10 + y
                });
                nested.iter().sum::<u32>()
            });
            let expect: Vec<u32> = (0..8).map(|x| 4 * (x * 10) + 6).collect();
            assert_eq!(out, expect);
            // Back on the caller: not inside a region anymore.
            assert!(!in_parallel_region());
        });
    }

    #[test]
    fn regions_are_reusable_and_budget_is_stable() {
        with_thread_count(3, || {
            for round in 0..20 {
                let items: Vec<usize> = (0..50).collect();
                let out = par_map(&items, |&x| x + round);
                assert_eq!(out[49], 49 + round);
                assert_eq!(thread_count(), 3);
            }
        });
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
        with_thread_count(0, || assert_eq!(thread_count(), 1)); // clamped
    }

    #[test]
    fn panicking_scope_does_not_wedge_later_scopes() {
        let result = std::panic::catch_unwind(|| with_thread_count(5, || panic!("boom")));
        assert!(result.is_err());
        with_thread_count(2, || assert_eq!(thread_count(), 2));
    }
}
