//! Scoped fork/join primitives: the hand-rolled thread pool.
//!
//! Every primitive here is a *scoped* pool: workers are spawned inside
//! `std::thread::scope`, borrow their inputs (and disjoint `&mut` output
//! chunks) directly, and are all joined before the call returns. There
//! is no `unsafe`, no channel plumbing, and no `'static` bound on the
//! work — the borrow checker proves race freedom from the chunk
//! decomposition itself.
//!
//! Two distribution strategies cover the workspace's workloads:
//!
//! * **Static chunking** ([`par_chunks_mut`]) — contiguous, balanced
//!   chunks of an output slice, one per worker. Right for uniform-cost
//!   items (rows of a sketch batch).
//! * **Dynamic task queue** ([`par_map`]) — workers claim task indices
//!   from an atomic counter. Right when per-item cost is uneven or
//!   unpredictable (pairwise tiles, whose pair counts differ on and off
//!   the diagonal; Monte-Carlo reps).
//!
//! Error determinism: when tasks can fail, the error returned is the one
//! at the **lowest task index** among all failures — exactly the error a
//! sequential `for` loop would have hit first — independent of thread
//! scheduling. To keep that guarantee, a failing run completes the
//! remaining tasks instead of aborting early; the failure path is not a
//! hot path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(worker_index)` on `workers` scoped threads; the calling thread
/// participates as worker 0, so `workers == 1` never spawns.
pub fn scope_workers<F: Fn(usize) + Sync>(workers: usize, f: F) {
    if workers <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        for w in 1..workers {
            scope.spawn(move || f(w));
        }
        f(0);
    });
}

/// Split `out` into at most `threads` balanced contiguous chunks and run
/// `f(chunk_offset, chunk)` on each, in parallel. Chunk boundaries
/// depend only on `out.len()` and the worker count, never on timing.
///
/// # Errors
/// The error from the lowest-offset failing chunk (which, because chunks
/// are contiguous and ascending, is the chunk containing the lowest
/// failing element), deterministically.
pub fn par_chunks_mut<T, E, F>(out: &mut [T], threads: usize, f: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    let n = out.len();
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return f(0, out);
    }
    // Balanced partition: the first `n % workers` chunks take one extra.
    let (base, extra) = (n / workers, n % workers);
    let failure: Mutex<Option<(usize, E)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        let (f, failure) = (&f, &failure);
        let mut rest = out;
        let mut offset = 0;
        let mut first_chunk = None;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let chunk_offset = offset;
            offset += len;
            if w == 0 {
                // The calling thread participates as a worker; spawning
                // only `workers − 1` threads keeps the host at exactly
                // `threads` busy workers.
                first_chunk = Some((chunk_offset, chunk));
                continue;
            }
            scope.spawn(move || {
                if let Err(e) = f(chunk_offset, chunk) {
                    record_lowest(failure, chunk_offset, e);
                }
            });
        }
        let (chunk_offset, chunk) = first_chunk.expect("workers >= 1");
        if let Err(e) = f(chunk_offset, chunk) {
            record_lowest(failure, chunk_offset, e);
        }
    });
    finish(failure)
}

/// Map `f` over `items` on up to `threads` workers with dynamic task
/// claiming, returning results in input order regardless of which worker
/// computed what.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    scope_workers(threads.min(n), |_| {
        let mut mine: Vec<(usize, U)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            mine.push((i, f(i, &items[i])));
        }
        // Heal rather than unwrap: entries are appended whole, so a
        // poisoned mutex still holds consistent pairs, and the scope
        // re-raises the original worker panic anyway — unwrapping here
        // would only replace its message with a less useful one.
        collected
            .lock()
            .unwrap_or_else(|poison| {
                collected.clear_poison();
                poison.into_inner()
            })
            .extend(mine);
    });
    let mut pairs = collected.into_inner().expect("worker panicked");
    debug_assert_eq!(pairs.len(), n, "every task claimed exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// Keep the failure with the lowest task index.
fn record_lowest<E>(failure: &Mutex<Option<(usize, E)>>, index: usize, e: E) {
    // Heal on poison: the slot is replaced atomically under the lock
    // (no partial writes), and losing it entirely would hide the first
    // failure behind a poisoning panic.
    let mut slot = failure.lock().unwrap_or_else(|poison| {
        failure.clear_poison();
        poison.into_inner()
    });
    if slot.as_ref().is_none_or(|&(prev, _)| index < prev) {
        *slot = Some((index, e));
    }
}

fn finish<E>(failure: Mutex<Option<(usize, E)>>) -> Result<(), E> {
    match failure.into_inner().expect("worker panicked") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_workers_runs_every_worker_once() {
        for workers in [1usize, 2, 3, 8] {
            let hits = AtomicU64::new(0);
            scope_workers(workers, |w| {
                hits.fetch_add(1 << (8 * w.min(7)), Ordering::Relaxed);
            });
            let h = hits.load(Ordering::Relaxed);
            for w in 0..workers.min(8) {
                assert_eq!((h >> (8 * w)) & 0xff, 1, "worker {w} of {workers}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_covers_the_slice_exactly() {
        for (n, threads) in [(0usize, 4usize), (1, 4), (5, 2), (16, 4), (17, 4), (3, 8)] {
            let mut out = vec![usize::MAX; n];
            par_chunks_mut(&mut out, threads, |offset, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = offset + i;
                }
                Ok::<(), ()>(())
            })
            .unwrap();
            let expected: Vec<usize> = (0..n).collect();
            assert_eq!(out, expected, "n = {n}, threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_error_is_the_lowest_chunk() {
        for threads in [2usize, 3, 8] {
            let mut out = vec![0u8; 20];
            let got = par_chunks_mut(&mut out, threads, |offset, chunk| {
                // Every chunk past the first fails with its offset.
                if offset + chunk.len() > 5 {
                    Err(offset)
                } else {
                    Ok(())
                }
            });
            let expected = got.unwrap_err();
            // Rerunning is deterministic.
            let mut again = vec![0u8; 20];
            let got2 = par_chunks_mut(&mut again, threads, |offset, chunk| {
                if offset + chunk.len() > 5 {
                    Err(offset)
                } else {
                    Ok(())
                }
            });
            assert_eq!(got2.unwrap_err(), expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1usize, 2, 4, 9] {
            let items: Vec<u64> = (0..97).collect();
            let doubled = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn par_map_matches_sequential_for_any_shape(
            n in 0usize..64,
            threads in 1usize..9,
        ) {
            let items: Vec<usize> = (0..n).collect();
            let seq: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
            let par = par_map(&items, threads, |_, &x| x * x + 1);
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn par_chunks_mut_matches_sequential_fill(
            n in 0usize..64,
            threads in 1usize..9,
        ) {
            let mut out = vec![0usize; n];
            par_chunks_mut(&mut out, threads, |offset, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (offset + i) * 3;
                }
                Ok::<(), ()>(())
            }).unwrap();
            let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
            prop_assert_eq!(out, expected);
        }
    }
}
