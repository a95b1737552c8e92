//! A small work-stealing helper used to fan experiment runs out over the
//! available cores (the figure sweeps run thousands of independent
//! simulations). Only the outermost of nested calls fans out; see
//! [`parallel_map`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on `parallel_map`'s worker threads; a nested call that sees it
    /// runs serially instead of spawning another scope.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound on the resolved worker count: `RESCACHE_THREADS` values above
/// this clamp down to it. Spawning thousands of scoped threads only adds
/// scheduler pressure — `parallel_map` additionally never uses more workers
/// than it has items.
const MAX_WORKERS: usize = 512;

/// Resolves the worker count from a raw `RESCACHE_THREADS` value and the
/// host parallelism. Deterministic fallback rules, in order:
///
/// * unset → `host`;
/// * a positive integer → that value, clamped to [`MAX_WORKERS`];
/// * anything else (`0`, empty, non-numeric, overflowing) → `host`, exactly
///   as if the variable were unset.
///
/// `host` itself is clamped to `1..=MAX_WORKERS` so the result is always a
/// usable thread count.
fn resolve_workers(raw: Option<&str>, host: usize) -> usize {
    let fallback = host.clamp(1, MAX_WORKERS);
    match raw {
        None => fallback,
        Some(value) => match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => n.min(MAX_WORKERS),
            _ => fallback,
        },
    }
}

/// The number of worker threads `parallel_map` fans out over: the
/// `RESCACHE_THREADS` environment variable if set to a positive integer
/// (clamped to 512), otherwise `std::thread::available_parallelism()`.
/// Invalid values — `0`, empty, or unparsable — fall back to the host
/// parallelism exactly as if the variable were unset (see `resolve_workers`
/// for the precedence), with a one-time warning on stderr.
///
/// The override serves two audiences: scaling studies (pin the worker count
/// and measure, instead of inheriting whatever the host offers) and shared
/// CI/build boxes (cap the fan-out below the machine width). The value is
/// resolved and recorded **once per process** — the environment is read on
/// first call only, every later call returns the same value — and written to
/// `BENCH_sim_throughput.json` so every trajectory entry names the
/// parallelism it was measured at. Callers that fan out over fewer items
/// than workers use fewer threads (`parallel_map` caps at the item count).
pub fn effective_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let raw = std::env::var("RESCACHE_THREADS").ok();
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let resolved = resolve_workers(raw.as_deref(), host);
        if let Some(value) = raw {
            if !matches!(value.trim().parse::<usize>(), Ok(n) if n > 0) {
                eprintln!(
                    "RESCACHE_THREADS={value:?} is not a positive integer; \
                     falling back to host parallelism ({resolved})"
                );
            }
        }
        resolved
    })
}

/// Applies `f` to every item, in parallel, preserving the input order of the
/// results.
///
/// The closure runs on [`effective_workers`] worker threads (or fewer if
/// there are fewer items); items are handed out through a shared counter, so
/// uneven per-item cost balances naturally.
///
/// Result storage is lock-free: each worker accumulates `(index, value)`
/// pairs in a local buffer and the buffers are merged when the workers are
/// joined. The previous implementation funnelled every result through one
/// `Mutex<Vec<Option<R>>>`, which serialized the workers of wide sweeps on
/// result storage; with per-worker buffers the only shared write is the
/// atomic item counter.
///
/// Calls nest (the figure drivers map over applications while the runner maps
/// over configuration points), but only one level fans out: a call made from
/// inside a worker's closure maps its items inline on that worker. The
/// outermost call therefore bounds the whole sweep at [`effective_workers`]
/// threads, and every thread it spawns is joined before it returns. A
/// top-level call with a single item runs inline on the caller, so its
/// closure's own nested call still fans out.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = effective_workers().min(items.len());
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|marker| marker.set(true));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, f(&items[index])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .expect("parallel_map workers do not panic: the closure is required not to");
            for (index, value) in local {
                results[index] = Some(value);
            }
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: Vec<u64> = vec![];
        assert!(parallel_map(&items, |x| *x).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn handles_non_trivial_work() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |x| (0..=*x).sum::<u64>());
        assert_eq!(out[31], 496);
    }

    #[test]
    fn effective_workers_is_positive_and_stable() {
        // The value is computed once per process; with RESCACHE_THREADS unset
        // in the test environment it falls back to the host parallelism.
        let first = effective_workers();
        assert!(first >= 1);
        assert_eq!(effective_workers(), first);
    }

    #[test]
    fn resolve_workers_accepts_positive_integers() {
        assert_eq!(resolve_workers(Some("3"), 8), 3);
        assert_eq!(resolve_workers(Some(" 16 "), 8), 16, "whitespace trimmed");
        assert_eq!(resolve_workers(Some("1"), 8), 1);
    }

    #[test]
    fn resolve_workers_falls_back_deterministically_on_invalid_values() {
        // Zero, empty, garbage, negative and overflowing values all behave
        // exactly as if the variable were unset.
        for raw in [
            None,
            Some("0"),
            Some(""),
            Some("abc"),
            Some("-2"),
            Some("1e3"),
        ] {
            assert_eq!(resolve_workers(raw, 8), 8, "raw {raw:?}");
        }
        assert_eq!(
            resolve_workers(Some("18446744073709551616"), 4),
            4,
            "overflow falls back to host"
        );
    }

    #[test]
    fn resolve_workers_clamps_oversized_requests_and_hosts() {
        assert_eq!(resolve_workers(Some("1000000"), 8), MAX_WORKERS);
        assert_eq!(resolve_workers(None, 100_000), MAX_WORKERS);
        assert_eq!(resolve_workers(None, 0), 1, "degenerate host clamps up");
    }

    #[test]
    fn workers_beyond_item_count_are_harmless() {
        // `parallel_map` caps the fan-out at the item count, so a worker
        // request far above it still computes every item exactly once.
        let items: Vec<u64> = (0..3).collect();
        let out = parallel_map(&items, |x| x + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn nested_calls_complete() {
        // Nested calls run inline on the outer call's workers, so every inner
        // closure call lands on one of at most `effective_workers()` threads.
        let inner_threads = std::sync::Mutex::new(HashSet::new());
        let outer: Vec<u64> = (0..8).collect();
        let out = parallel_map(&outer, |x| {
            let inner: Vec<u64> = (0..4).collect();
            parallel_map(&inner, |y| {
                inner_threads
                    .lock()
                    .expect("no test closure panics")
                    .insert(std::thread::current().id());
                x * 10 + y
            })
            .into_iter()
            .sum::<u64>()
        });
        assert_eq!(out[1], 10 + 11 + 12 + 13);
        assert_eq!(out.len(), 8);
        assert_eq!(out, (0..8).map(|x| 40 * x + 6).collect::<Vec<_>>());
        let threads = inner_threads.into_inner().expect("no test closure panics");
        assert!(
            threads.len() <= effective_workers(),
            "{} threads ran inner closures, effective_workers() is {}",
            threads.len(),
            effective_workers()
        );
    }
}
