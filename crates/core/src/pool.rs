//! A small scoped thread pool for data-parallel construction work.
//!
//! Every parallel path in the workspace (the exact-DP endpoint sweeps, the
//! store's per-partition seals, compactions and merge piece extraction)
//! funnels through the two helpers here, so thread-count policy lives in
//! exactly one place.  (The store's batch ingest is *not* one of them: it
//! inserts on the calling thread — a pooled dispatch measured 0.81–1.12x.)
//!
//! * [`parallel_map`] — apply a function to every element of an owned `Vec`,
//!   returning results in input order;
//! * [`parallel_chunks`] — split an index range `[0, len)` into contiguous
//!   chunks and apply a function to each, returning per-chunk results in
//!   chunk order.
//!
//! ## Thread-count resolution
//!
//! [`num_threads`] resolves, in priority order: the process-wide programmatic
//! override ([`set_num_threads`]), the `PDS_THREADS` environment variable
//! (read once, at first use), and finally
//! [`std::thread::available_parallelism`].  Each helper also has a `*_with`
//! variant taking an explicit thread count, which is what deterministic
//! serial-vs-parallel equivalence tests use (the global override would leak
//! between concurrently running tests).
//!
//! ## Scoping and panic-propagation contract
//!
//! Both helpers are built on [`std::thread::scope`]:
//!
//! * **Scoping.**  Worker threads never outlive the call: every borrow passed
//!   in lives at least as long as the helper invocation, so closures may
//!   capture `&T` of the caller's locals without `'static` bounds or `Arc`s.
//!   No threads are pooled between calls — spawn cost is a few microseconds
//!   per worker and the helpers are meant for coarse-grained work (whole DP
//!   levels, whole partition seals), where that cost is noise.
//! * **Panic propagation.**  If a worker closure panics, the panic payload is
//!   re-raised on the calling thread when the scope joins (the behaviour of
//!   `std::thread::scope` itself); no result is returned and no panic is
//!   swallowed.  Helpers never unwind while holding internal locks other
//!   than the work-distribution mutex, whose poisoning cannot outlive the
//!   call.
//! * **Determinism.**  Work is distributed dynamically (an atomic cursor over
//!   fixed chunk boundaries) for load balance, but results are reassembled
//!   in input order, so the output is independent of scheduling.  Callers
//!   whose per-element work is itself deterministic therefore get identical
//!   results at every thread count — the property the serial-vs-concurrent
//!   store equivalence suite pins.
//!
//! With a resolved thread count of 1 (or trivially small inputs) the helpers
//! degenerate to a plain serial loop on the calling thread — no threads are
//! spawned, so single-thread performance matches hand-written serial code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `PDS_THREADS` environment variable, parsed once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Sets the process-wide worker-thread count used by [`num_threads`].
/// `Some(n)` forces `n` (clamped to at least 1); `None` restores the
/// environment/hardware default.  Prefer the explicit `*_with` helpers in
/// tests — this override is global.
pub fn set_num_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::SeqCst);
}

/// The worker-thread count parallel helpers use by default: the
/// [`set_num_threads`] override if set, else the `PDS_THREADS` environment
/// variable (read once at first use), else
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    let env = ENV_THREADS.get_or_init(|| {
        std::env::var("PDS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    });
    if let Some(n) = env {
        return *n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every element of `items` using [`num_threads`] workers,
/// returning results in input order.  See the module docs for the scoping,
/// panic and determinism contract.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(num_threads(), items, f)
}

/// [`parallel_map`] with an explicit worker-thread count (1 runs serially on
/// the calling thread).
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Hand out elements by index through an atomic cursor; each worker
    // returns (index, result) pairs which are reassembled in input order.
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= slots.len() {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("pool slot lock poisoned")
                            .take()
                            .expect("pool slot taken twice");
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise the worker's own panic payload so the original
                // message survives (the module-level contract).
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut ordered: Vec<Option<R>> = (0..slots.len()).map(|_| None).collect();
    for (i, r) in collected.drain(..).flatten() {
        ordered[i] = Some(r);
    }
    ordered
        .into_iter()
        .map(|r| r.expect("every index produced exactly one result"))
        .collect()
}

/// Splits `[0, len)` into contiguous chunks of at least `min_chunk` indices
/// (the final chunk may be smaller) and applies `f` to each chunk range on
/// [`num_threads`] workers, returning per-chunk results in chunk order.
pub fn parallel_chunks<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    parallel_chunks_with(num_threads(), len, min_chunk, f)
}

/// [`parallel_chunks`] with an explicit worker-thread count (1 runs serially
/// on the calling thread).
pub fn parallel_chunks_with<R, F>(threads: usize, len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let threads = threads.max(1);
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    if threads == 1 || len <= min_chunk {
        return vec![f(0..len)];
    }
    // At most 4 chunks per worker keeps dynamic balancing useful without
    // drowning small inputs in chunk overhead.
    let max_chunks = threads * 4;
    let chunk = min_chunk.max(len.div_ceil(max_chunks));
    let num_chunks = len.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(num_chunks))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let range = c * chunk..((c + 1) * chunk).min(len);
                        out.push((c, f(range)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise the worker's own panic payload so the original
                // message survives (the module-level contract).
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut ordered: Vec<Option<R>> = (0..num_chunks).map(|_| None).collect();
    for (c, r) in collected.drain(..).flatten() {
        ordered[c] = Some(r);
    }
    ordered
        .into_iter()
        .map(|r| r.expect("every chunk produced exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        for threads in [1, 2, 4, 7] {
            let items: Vec<usize> = (0..101).collect();
            let out = parallel_map_with(threads, items, |i| i * 3);
            assert_eq!(out, (0..101).map(|i| i * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_with(4, empty, |i| i).is_empty());
    }

    #[test]
    fn parallel_map_results_are_thread_count_independent() {
        let serial = parallel_map_with(1, (0..500).collect(), |i: usize| (i as f64).sqrt());
        for threads in [2, 3, 8] {
            let parallel =
                parallel_map_with(threads, (0..500).collect(), |i: usize| (i as f64).sqrt());
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn parallel_chunks_tile_the_range_exactly_once() {
        for (threads, len, min_chunk) in [(1, 10, 1), (4, 1000, 16), (3, 17, 5), (8, 64, 64)] {
            let chunks = parallel_chunks_with(threads, len, min_chunk, |r| r);
            let mut next = 0usize;
            for r in &chunks {
                assert_eq!(r.start, next, "threads={threads} len={len}");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len);
        }
        assert!(parallel_chunks_with(4, 0, 8, |r| r).is_empty());
    }

    #[test]
    fn parallel_chunks_respect_min_chunk() {
        let chunks = parallel_chunks_with(8, 100, 40, |r| r.len());
        for (i, &len) in chunks.iter().enumerate() {
            if i + 1 < chunks.len() {
                assert!(len >= 40);
            }
        }
    }

    #[test]
    fn worker_panics_propagate_to_the_caller_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(2, (0..64).collect::<Vec<usize>>(), |i| {
                assert!(i != 13, "boom at {i}");
                i
            })
        });
        let payload = result.unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(message.contains("boom at 13"), "payload lost: {message:?}");
    }

    #[test]
    fn thread_count_resolution_prefers_the_override() {
        // Serialised against other tests by touching only the override.
        set_num_threads(Some(3));
        assert_eq!(num_threads(), 3);
        set_num_threads(Some(0)); // clamps to 1
        assert_eq!(num_threads(), 1);
        set_num_threads(None);
        assert!(num_threads() >= 1);
    }
}
