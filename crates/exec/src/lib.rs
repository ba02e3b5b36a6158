//! # gd-exec — scoped-thread fan-out for embarrassingly parallel sweeps
//!
//! The paper's experiments are dominated by exhaustive loops over
//! independent trials: 2¹⁶ perturbed executions per instruction (§IV,
//! Figure 2) and 99×99 glitch-parameter grids per cycle (§V, Tables
//! I–III). Every trial boots a fresh emulator, so the work partitions
//! trivially — the same scaling observation behind ARMORY's parallel
//! fault workers. This crate provides that partitioning with zero
//! external dependencies, built on [`std::thread::scope`].
//!
//! Guarantees:
//!
//! * **Deterministic, input-ordered merging** — results come back in the
//!   order of the input slice, regardless of which worker ran what, so
//!   parallel output is bit-for-bit identical to serial output whenever
//!   the per-item work is pure.
//! * **Bounded workers** — the worker count comes from the `GD_THREADS`
//!   environment variable, defaulting to
//!   [`std::thread::available_parallelism`]. An invalid value (zero or
//!   non-numeric) is rejected loudly instead of silently falling back —
//!   a typo'd `GD_THREADS=O1` must not quietly change the worker count.
//!   `GD_THREADS=1` (or a single chunk) short-circuits to a plain serial
//!   loop on the caller's thread, and [`with_threads`] pins the count
//!   programmatically for a scope (the campaign engine uses this for
//!   per-spec thread overrides).
//! * **Panic propagation that names the failing chunk** — a panicking
//!   worker aborts the fan-out and the panic is re-raised on the caller
//!   with the chunk index and item range attached.
//! * **No nested fan-out** — a call made from inside a worker runs
//!   serially, so layered drivers (a parallel table driver calling a
//!   parallel scan) degrade gracefully instead of oversubscribing.
//!
//! ```
//! let squares = gd_exec::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let sums = gd_exec::par_map_chunks(&[1u64, 2, 3, 4, 5], 2, |c| {
//!     c.items.iter().sum::<u64>()
//! });
//! assert_eq!(sums, vec![3, 7, 5]); // one result per chunk, input order
//! ```
//!
//! The crate also hosts [`check`], the deterministic property-test
//! harness the workspace uses instead of an external `proptest`
//! dependency (the repository must build fully offline).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod check;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use gd_obs::Timer;

/// `gd_obs` handles for the fan-out hot path, registered once (the
/// per-chunk cost is a relaxed atomic add).
struct ExecMetrics {
    /// `gd_exec_chunks_executed_total`
    chunks: Arc<gd_obs::Counter>,
    /// `gd_exec_serial_fallbacks_total`
    serial_fallbacks: Arc<gd_obs::Counter>,
    /// `gd_exec_worker_busy_us_total`
    busy_us: Arc<gd_obs::Counter>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        chunks: gd_obs::counter(
            "gd_exec_chunks_executed_total",
            "chunks executed by par_map_chunks, serial or parallel",
            &[],
        ),
        serial_fallbacks: gd_obs::counter(
            "gd_exec_serial_fallbacks_total",
            "par_map_chunks calls that ran serially (one worker, one chunk, or nested fan-out)",
            &[],
        ),
        busy_us: gd_obs::counter(
            "gd_exec_worker_busy_us_total",
            "microseconds fan-out workers (or the serial path) spent executing chunks",
            &[],
        ),
    })
}

thread_local! {
    /// Set inside fan-out workers so nested calls stay serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped programmatic worker-count override (see [`with_threads`]).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Validates a `GD_THREADS` value: a positive integer worker count.
///
/// # Errors
///
/// Returns a message naming the offending value when it is zero, empty,
/// or not an integer.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("GD_THREADS must be a positive integer, got 0".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("GD_THREADS must be a positive integer, got {value:?}")),
    }
}

/// The worker count used by [`par_map_chunks`]: the innermost
/// [`with_threads`] override if one is active, else `GD_THREADS`, else
/// [`std::thread::available_parallelism`] (1 if even that is unavailable).
///
/// # Panics
///
/// Panics when `GD_THREADS` is set but invalid (zero or non-numeric):
/// a mistyped thread count must surface, not silently change the worker
/// pool. Validate user input up front with [`parse_threads`].
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    match std::env::var("GD_THREADS") {
        Ok(v) => match parse_threads(&v) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        },
        Err(_) => default_threads(),
    }
}

/// Runs `f` with the worker count pinned to `n` on this thread, ignoring
/// `GD_THREADS`. The override is scoped (restored even on unwind) and
/// thread-local: fan-outs started by `f` use `n` workers, unrelated
/// threads are unaffected.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "with_threads requires a positive worker count");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

fn default_threads() -> usize {
    thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// One contiguous piece of the input slice handed to a chunk closure.
#[derive(Debug)]
pub struct Chunk<'a, T> {
    /// Index of `items[0]` within the original input slice.
    pub start: usize,
    /// The items of this chunk, in input order.
    pub items: &'a [T],
}

/// Maps `f` over `items` in chunks of `chunk_size`, in parallel, and
/// returns one result per chunk **in input order**.
///
/// The merge is deterministic: chunk `i` always covers
/// `items[i * chunk_size ..]` and its result always lands at index `i`,
/// so callers that fold the results associatively (tally counts, cell
/// merges) obtain output identical to a serial run.
///
/// Runs serially on the caller's thread when only one worker is
/// available ([`threads`] = 1, a single chunk, or a call from inside
/// another fan-out).
///
/// # Panics
///
/// Panics if `chunk_size == 0`, or if `f` panics — the panic is
/// propagated to the caller with the failing chunk named.
pub fn par_map_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&Chunk<'_, T>) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let workers = threads().min(n_chunks);
    let metrics = exec_metrics();
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        metrics.serial_fallbacks.inc();
        let timer = Timer::start();
        let out = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| f(&Chunk { start: i * chunk_size, items: c }))
            .collect();
        metrics.chunks.add(n_chunks as u64);
        metrics.busy_us.add(timer.elapsed_us());
        return out;
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    // Each worker pulls chunk indices from the shared counter and keeps
    // its results tagged with their chunk index; the merge below restores
    // input order regardless of scheduling.
    let per_worker: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    // Workers never idle — they pull chunks until the
                    // counter is exhausted and exit — so lifetime is
                    // busy-time.
                    let timer = Timer::start();
                    let mut executed = 0u64;
                    let mut out = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        let start = i * chunk_size;
                        let end = (start + chunk_size).min(items.len());
                        let chunk = Chunk { start, items: &items[start..end] };
                        match catch_unwind(AssertUnwindSafe(|| f(&chunk))) {
                            Ok(r) => {
                                executed += 1;
                                out.push((i, r));
                            }
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                let mut slot = failure.lock().unwrap();
                                if slot.is_none() {
                                    *slot = Some((i, payload));
                                }
                                break;
                            }
                        }
                    }
                    metrics.chunks.add(executed);
                    metrics.busy_us.add(timer.elapsed_us());
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught via catch_unwind"))
            .collect()
    });

    if let Some((i, payload)) = failure.into_inner().unwrap() {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(items.len());
        gd_obs::error!(
            "gd_exec",
            "chunk panicked; propagating",
            chunk = i,
            items = format_args!("{start}..{end}"),
        );
        resume_unwind(payload);
    }

    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "chunk {i} produced twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("every chunk ran exactly once")).collect()
}

/// Maps `f` over each item of `items` in parallel, returning the results
/// in input order. Chunking is automatic (a few chunks per worker, so a
/// slow item cannot stall the tail).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_size = items.len().div_ceil(threads().saturating_mul(4).max(1)).max(1);
    par_map_chunks(items, chunk_size, |c| c.items.iter().map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `GD_THREADS` is process-global: tests that mutate it, and tests
    /// whose fan-outs read it, serialize here.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_guard() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serial reference for the differential assertions below.
    fn serial_map_chunks<T, R>(
        items: &[T],
        chunk_size: usize,
        f: impl Fn(&Chunk<'_, T>) -> R,
    ) -> Vec<R> {
        items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| f(&Chunk { start: i * chunk_size, items: c }))
            .collect()
    }

    #[test]
    fn results_are_input_ordered() {
        let _guard = env_guard();
        let items: Vec<u32> = (0..10_000).collect();
        let out = par_map(&items, |&x| x * 2 + 1);
        let expect: Vec<u32> = items.iter().map(|&x| x * 2 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let _guard = env_guard();
        let out: Vec<u32> = par_map(&[], |&x: &u32| x);
        assert!(out.is_empty());
        let out: Vec<u64> = par_map_chunks(&[] as &[u32], 8, |c| c.items.len() as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_boundaries_partition_exactly() {
        let _guard = env_guard();
        for len in [1usize, 2, 7, 8, 9, 63, 64, 65, 1000] {
            for chunk in [1usize, 2, 3, 8, 64, 1024] {
                let items: Vec<usize> = (0..len).collect();
                let spans = par_map_chunks(&items, chunk, |c| (c.start, c.items.to_vec()));
                // Chunks tile the input: starts stride by chunk, contents
                // concatenate back to the original slice.
                let mut rebuilt = Vec::new();
                for (i, (start, body)) in spans.iter().enumerate() {
                    assert_eq!(*start, i * chunk, "len={len} chunk={chunk}");
                    assert!(body.len() <= chunk);
                    rebuilt.extend_from_slice(body);
                }
                assert_eq!(rebuilt, items, "len={len} chunk={chunk}");
            }
        }
    }

    #[test]
    fn matches_serial_reference_for_chunked_sums() {
        let _guard = env_guard();
        let items: Vec<u64> = (0..4_099).map(|x| x * 37 % 1_013).collect();
        let f = |c: &Chunk<'_, u64>| (c.start as u64) ^ c.items.iter().sum::<u64>();
        assert_eq!(par_map_chunks(&items, 128, f), serial_map_chunks(&items, 128, f));
    }

    #[test]
    fn gd_threads_one_is_equivalent() {
        let _guard = env_guard();
        let saved = std::env::var("GD_THREADS").ok();
        std::env::set_var("GD_THREADS", "1");
        let items: Vec<u32> = (0..513).collect();
        let out = par_map(&items, |&x| x.wrapping_mul(2_654_435_761));
        match saved {
            Some(v) => std::env::set_var("GD_THREADS", v),
            None => std::env::remove_var("GD_THREADS"),
        }
        let expect: Vec<u32> = items.iter().map(|&x| x.wrapping_mul(2_654_435_761)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn threads_parses_env_var() {
        let _guard = env_guard();
        let saved = std::env::var("GD_THREADS").ok();
        std::env::set_var("GD_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("GD_THREADS", " 8 ");
        assert_eq!(threads(), 8, "surrounding whitespace is tolerated");
        match saved {
            Some(v) => std::env::set_var("GD_THREADS", v),
            None => std::env::remove_var("GD_THREADS"),
        }
    }

    #[test]
    fn invalid_gd_threads_is_rejected_loudly() {
        let _guard = env_guard();
        let saved = std::env::var("GD_THREADS").ok();
        for bad in ["0", "not-a-number", "", "-2", "1.5"] {
            std::env::set_var("GD_THREADS", bad);
            let result = catch_unwind(threads);
            let payload = result.expect_err(&format!("GD_THREADS={bad:?} must be rejected"));
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("GD_THREADS must be a positive integer"),
                "error names the variable and the constraint: {msg}"
            );
        }
        match saved {
            Some(v) => std::env::set_var("GD_THREADS", v),
            None => std::env::remove_var("GD_THREADS"),
        }
    }

    #[test]
    fn parse_threads_validates() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads("  16\n"), Ok(16));
        for bad in ["0", "", "four", "-1", "3.0", "0x10"] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(err.contains("GD_THREADS"), "{err}");
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let _guard = env_guard();
        let saved = std::env::var("GD_THREADS").ok();
        std::env::set_var("GD_THREADS", "3");
        assert_eq!(threads(), 3);
        let (inner, nested) = with_threads(7, || (threads(), with_threads(2, threads)));
        assert_eq!((inner, nested), (7, 2), "overrides nest innermost-wins");
        assert_eq!(threads(), 3, "the override is scoped");
        // The override beats even an invalid env var (already validated
        // input must not be re-rejected)...
        std::env::set_var("GD_THREADS", "garbage");
        assert_eq!(with_threads(5, threads), 5);
        // ...and is restored on unwind.
        let _ = catch_unwind(|| with_threads(9, || panic!("boom")));
        std::env::set_var("GD_THREADS", "4");
        assert_eq!(threads(), 4, "unwinding clears the override");
        match saved {
            Some(v) => std::env::set_var("GD_THREADS", v),
            None => std::env::remove_var("GD_THREADS"),
        }
    }

    #[test]
    fn panic_propagates_to_caller() {
        let _guard = env_guard();
        let items: Vec<u32> = (0..1_000).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 777 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 777"), "original payload survives: {msg}");
    }

    #[test]
    fn nested_calls_run_serially_and_correctly() {
        let _guard = env_guard();
        let outer: Vec<u32> = (0..16).collect();
        let out = par_map(&outer, |&x| {
            let inner: Vec<u32> = (0..x + 1).collect();
            par_map(&inner, |&y| y + 1).into_iter().sum::<u32>()
        });
        let expect: Vec<u32> = outer.iter().map(|&x| (x + 1) * (x + 2) / 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fan_out_metrics_accumulate() {
        let _guard = env_guard();
        let metrics = exec_metrics();
        let (chunks0, serial0) = (metrics.chunks.get(), metrics.serial_fallbacks.get());
        let items: Vec<u32> = (0..64).collect();
        // Parallel: 8 chunks across 2 workers, all counted.
        let _ = with_threads(2, || par_map_chunks(&items, 8, |c| c.items.len()));
        assert!(metrics.chunks.get() >= chunks0 + 8, "parallel chunks counted");
        // Serial fallback: one worker, same chunk count.
        let _ = with_threads(1, || par_map_chunks(&items, 8, |c| c.items.len()));
        assert!(metrics.serial_fallbacks.get() > serial0, "serial fallback counted");
        assert!(metrics.chunks.get() >= chunks0 + 16, "serial chunks counted too");
        // Busy-time is timing-dependent; the counter only has to exist
        // and be monotone (it may legitimately read 0 µs here).
        let busy = metrics.busy_us.get();
        let _ = with_threads(2, || par_map_chunks(&items, 8, |c| c.items.len()));
        assert!(metrics.busy_us.get() >= busy);
    }

    #[test]
    fn many_more_chunks_than_workers() {
        let _guard = env_guard();
        let items: Vec<u64> = (0..10_007).collect();
        let sums = par_map_chunks(&items, 3, |c| c.items.iter().sum::<u64>());
        assert_eq!(sums.len(), 10_007usize.div_ceil(3));
        assert_eq!(sums.iter().sum::<u64>(), 10_006 * 10_007 / 2);
    }
}
