//! Deterministic data parallelism for Monte Carlo sweeps.
//!
//! Every chip carries its own derived RNG streams, so per-chip work is
//! embarrassingly parallel *and* order-independent: results are written
//! back by index, making a parallel run bit-identical to a sequential
//! one. Built on `std::thread::scope` — no extra dependency needed.
//!
//! Observability: each worker records metrics into its own thread-local
//! `aro-obs` scratch registry; after the scope joins, the harvested
//! registries are folded into the calling thread **in worker-index order**,
//! so metric aggregates are byte-identical regardless of thread count.
//! Each worker's telemetry thread id is assigned on the spawning thread,
//! in chunk order, before the worker starts, so span events carry the same
//! thread ids on every run at one thread count.
//!
//! This crate sits below `aro-puf` in the dependency graph so that
//! `Population::fabricate` can fan out without `aro-puf` depending on the
//! experiment engine; the umbrella crate re-exports it as `par`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = size the pool from `available_parallelism` (the default).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent [`par_map_mut`] / [`par_build`] to use exactly
/// `threads` workers (1 = sequential); 0 restores automatic sizing.
/// Intended for determinism tests and benchmarking, not production tuning.
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The current thread override (0 = automatic).
#[must_use]
pub fn thread_override() -> usize {
    THREAD_OVERRIDE.load(Ordering::Relaxed)
}

/// Worker count for a job of `n` items under the current override.
fn pool_size(n: usize) -> usize {
    let forced = thread_override();
    if forced > 0 {
        forced.min(n.max(1))
    } else {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(n.max(1))
    }
}

/// Applies `f` to every element of `items` in parallel (scoped threads,
/// one chunk per available core), collecting results in input order.
///
/// Falls back to a sequential loop for small inputs where spawn overhead
/// would dominate. This is the crate's one fan-out: [`par_build`] runs
/// through it.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let forced = thread_override();
    let threads = pool_size(n);
    if threads <= 1 || (forced == 0 && n < 4) {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk_size = n.div_ceil(threads);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = items
            .chunks_mut(chunk_size)
            .zip(results.chunks_mut(chunk_size))
            .enumerate()
            .map(|(chunk_index, (item_chunk, result_chunk))| {
                let adopt_thread_id = aro_obs::span::assign_thread_id();
                scope.spawn(move || {
                    adopt_thread_id();
                    let base = chunk_index * chunk_size;
                    for (offset, (item, slot)) in item_chunk
                        .iter_mut()
                        .zip(result_chunk.iter_mut())
                        .enumerate()
                    {
                        *slot = Some(f(base + offset, item));
                    }
                    // Hand this worker's metrics back for deterministic
                    // aggregation on the spawning thread.
                    if aro_obs::enabled() {
                        aro_obs::take_scratch()
                    } else {
                        aro_obs::Registry::new()
                    }
                })
            })
            .collect();
        // Join and fold worker metrics in worker-index order — never
        // completion order — so every run folds in the same sequence.
        for worker in workers {
            let harvested = worker.join().expect("parallel worker panicked");
            aro_obs::merge_scratch(&harvested);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Builds `n` values by applying `f` to each index in parallel, returning
/// them in index order. The constructor counterpart of [`par_map_mut`]:
/// `f(i)` must derive everything it needs from `i` alone (e.g. an
/// index-derived RNG stream), which is what makes the parallel build
/// bit-identical to `(0..n).map(f).collect()`.
pub fn par_build<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // A `Vec<()>` allocates nothing: the units only carry the indices.
    par_map_mut(&mut vec![(); n], |i, ()| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that set the process-global thread override:
    /// a concurrent reset changes their worker count mid-test.
    fn override_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_are_in_input_order() {
        let mut items: Vec<usize> = (0..100).collect();
        let out = par_map_mut(&mut items, |i, item| {
            *item += 1;
            i * 10
        });
        assert_eq!(out, (0..100).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(items[0], 1);
        assert_eq!(items[99], 100);
    }

    #[test]
    fn matches_sequential_execution() {
        let mut a: Vec<u64> = (0..53).collect();
        let mut b = a.clone();
        let par = par_map_mut(&mut a, |i, x| {
            *x = x.wrapping_mul(2654435761);
            *x ^ i as u64
        });
        let seq: Vec<u64> = b
            .iter_mut()
            .enumerate()
            .map(|(i, x)| {
                *x = x.wrapping_mul(2654435761);
                *x ^ i as u64
            })
            .collect();
        assert_eq!(par, seq);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, |_, x| *x).is_empty());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, |_, x| *x * 2), vec![14]);
    }

    #[test]
    fn thread_override_preserves_results() {
        let _guard = override_lock();
        let base: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = base.iter().map(|x| x * 3).collect();
        for t in [1, 2, 8] {
            set_thread_override(t);
            let mut items = base.clone();
            assert_eq!(par_map_mut(&mut items, |_, x| *x * 3), expected);
        }
        set_thread_override(0);
    }

    #[test]
    fn parallel_mutation_is_visible() {
        let mut items = vec![0u64; 64];
        par_map_mut(&mut items, |i, x| {
            *x = i as u64;
        });
        assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn par_build_matches_sequential_build() {
        let _guard = override_lock();
        let seq: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        for t in [0, 1, 2, 8] {
            set_thread_override(t);
            let par = par_build(97, |i| (i as u64).wrapping_mul(0x9e3779b9));
            assert_eq!(par, seq, "par_build diverged at override {t}");
        }
        set_thread_override(0);
    }

    #[test]
    fn par_build_empty_and_tiny() {
        assert!(par_build(0, |i| i).is_empty());
        assert_eq!(par_build(2, |i| i * 5), vec![0, 5]);
    }

    #[test]
    fn worker_thread_ids_follow_chunk_order() {
        // Chunk 1 closes a span before chunk 0 opens one, so a thread
        // numbered at its first span event would give chunk 1 the lower
        // telemetry id. Two workers need the override: chunk 0 waits for
        // chunk 1's Release store with an Acquire load.
        let _guard = override_lock();
        set_thread_override(2);
        aro_obs::set_enabled(true);
        let capture = aro_obs::sink::install_memory();
        let chunk1_closed = AtomicBool::new(false);
        par_map_mut(&mut [0, 1], |i, _| {
            if i == 0 {
                while !chunk1_closed.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            drop(aro_obs::span(if i == 0 { "chunk0" } else { "chunk1" }));
            chunk1_closed.store(true, Ordering::Release);
        });
        aro_obs::sink::close();
        aro_obs::set_enabled(false);
        set_thread_override(0);
        let text = String::from_utf8(capture.lock().unwrap().clone()).unwrap();
        let thread_of = |name: &str| {
            text.lines()
                .map(|line| aro_obs::json::parse(line).unwrap())
                .find(|event| event.get("name").and_then(|n| n.as_str()) == Some(name))
                .and_then(|event| event.get("thread").and_then(|t| t.as_u64()))
                .expect("span event captured")
        };
        assert!(thread_of("chunk0") < thread_of("chunk1"), "{text}");
    }
}
