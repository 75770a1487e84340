//! Dependency-free data parallelism for the SecCloud workspace.
//!
//! The pairing-heavy operations (per-block sign-then-designate, per-block
//! storage audits, `DesignatedAgency::audit_many`, per-shard registry
//! commitments, CSP sub-task dispatch) are embarrassingly parallel, but
//! the build must stay offline-capable — no rayon, no crossbeam. This
//! crate supplies the two primitives those operations fan out through:
//! chunked, order-preserving maps over shared ([`parallel_map`]) or
//! exclusively owned ([`parallel_map_mut`]) items on `std::thread::scope`.
//!
//! ## Threading model
//!
//! * Each operation has one entry point that fans out internally; no
//!   caller picks a thread count. The worker count comes only from
//!   [`num_threads`]: the `SECCLOUD_THREADS` environment variable, else
//!   [`std::thread::available_parallelism`]. `SECCLOUD_THREADS=1` forces
//!   serial execution on the calling thread (useful for profiling).
//! * Output order always equals input order regardless of worker count —
//!   every item's result lands in its input slot, so parallel and serial
//!   execution are observationally identical for pure per-item closures.
//! * Workers receive contiguous chunks; per-item closures also get the
//!   item's *global* index (a shard number, a server slot), so no result
//!   depends on how the items were chunked.
//!
//! # Examples
//!
//! ```
//! let squares = seccloud_parallel::parallel_map(&[1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The configured worker count. An unset `SECCLOUD_THREADS` means the
/// machine's available parallelism (at least 1); a set value that parses
/// as a positive integer is used as is, and any other set value (`0`,
/// garbage) means 1 — serial.
pub fn num_threads() -> usize {
    match std::env::var("SECCLOUD_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` on up to [`num_threads`] scoped workers,
/// preserving input order. The closure receives `(global_index, item)`.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_threads(items, num_threads(), f)
}

/// [`parallel_map`]'s body with an explicit worker count (clamped to
/// `1..=items.len()`), so the tests can force several workers on any
/// host. `threads == 1` runs serially on the calling thread.
fn parallel_map_threads<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (w, (in_chunk, out_chunk)) in items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                let base = w * chunk;
                for (j, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                    *slot = Some(f(base + j, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Like [`parallel_map`], but each worker gets *mutable* access to its
/// items — the primitive for dispatching work onto a pool of stateful
/// targets (e.g. one simulated cloud server per slot), each owned by
/// exactly one worker for the duration of the call.
pub fn parallel_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = num_threads().clamp(1, n);
    if workers == 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (w, (in_chunk, out_chunk)) in items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                let base = w * chunk;
                for (j, (item, slot)) in in_chunk.iter_mut().zip(out_chunk.iter_mut()).enumerate() {
                    *slot = Some(f(base + j, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 103, 500] {
            let got = parallel_map_threads(&items, threads, |_, x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn indices_are_global() {
        let items = vec![(); 57];
        for threads in [1, 4, 57] {
            let got = parallel_map_threads(&items, threads, |i, _| i);
            assert_eq!(got, (0..57).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u8> = Vec::new();
        assert!(parallel_map_threads(&none, 8, |_, x| *x).is_empty());
        assert_eq!(parallel_map_threads(&[5u8], 8, |_, x| *x + 1), vec![6]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn map_mut_mutates_every_item_in_order() {
        let mut items: Vec<u64> = (0..67).collect();
        let returned = parallel_map_mut(&mut items, |i, x| {
            *x += 100;
            i
        });
        assert_eq!(items, (100..167).collect::<Vec<u64>>());
        assert_eq!(returned, (0..67).collect::<Vec<usize>>());
    }
}
