//! A small scoped thread pool for data-parallel construction work.
//!
//! Every parallel path in the workspace (the store's per-partition seals,
//! compactions and merge piece extraction) funnels through [`parallel_map`],
//! so thread-count policy lives in exactly one place.  (Neither the store's
//! batch ingest nor the exact histogram DP is one of them: ingest inserts on
//! the calling thread — a pooled dispatch measured 0.81–1.12x — and the DP's
//! pruned argmin scan runs on the calling thread too.)
//!
//! * [`parallel_map`] — apply a function to every element of an owned `Vec`,
//!   returning results in input order.
//!
//! ## Thread-count resolution
//!
//! [`num_threads`] resolves, in priority order: the process-wide programmatic
//! override ([`set_num_threads`]), the `PDS_THREADS` environment variable
//! (read once, at first use), and finally
//! [`std::thread::available_parallelism`].
//!
//! ## Scoping and panic-propagation contract
//!
//! [`parallel_map`] is built on [`std::thread::scope`]:
//!
//! * **Scoping.**  Worker threads never outlive the call: every borrow passed
//!   in lives at least as long as the helper invocation, so closures may
//!   capture `&T` of the caller's locals without `'static` bounds or `Arc`s.
//!   No threads are pooled between calls — spawn cost is a few microseconds
//!   per worker and the helper is meant for coarse-grained work (whole
//!   partition seals), where that cost is noise.
//! * **Panic propagation.**  If a worker closure panics, the panic payload is
//!   re-raised on the calling thread when the scope joins (the behaviour of
//!   `std::thread::scope` itself); no result is returned and no panic is
//!   swallowed.  The helper never unwinds while holding internal locks other
//!   than the work-distribution mutex, whose poisoning cannot outlive the
//!   call.
//! * **Determinism.**  Work is distributed dynamically (an atomic cursor over
//!   the elements) for load balance, but results are reassembled
//!   in input order, so the output is independent of scheduling.  Callers
//!   whose per-element work is itself deterministic therefore get identical
//!   results at every thread count — the property the serial-vs-concurrent
//!   store equivalence suite pins.
//!
//! With a resolved thread count of 1 (or trivially small inputs) the helper
//! degenerates to a plain serial loop on the calling thread — no threads are
//! spawned, so single-thread performance matches hand-written serial code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `PDS_THREADS` environment variable, parsed once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Sets the process-wide worker-thread count used by [`num_threads`].
/// `Some(n)` forces `n` (clamped to at least 1); `None` restores the
/// environment/hardware default.  The override is process-wide.
pub fn set_num_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::SeqCst);
}

/// The worker-thread count [`parallel_map`] uses by default: the
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
fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
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
