//! Deterministic data-parallel primitives for the linkage hot path.
//!
//! The registry mirror is unreachable in the build container, so `rayon`
//! cannot be vendored; this crate provides the narrow rayon-style surface
//! the pipeline needs (indexed parallel map, mutable chunk dispatch) on top
//! of `std::thread::scope`. Every combinator preserves input order, so the
//! parallel pipeline is **byte-identical** to the sequential one — the
//! parity tests in `hydra-core` assert exactly that.
//!
//! Thread count resolution: an in-process [`set_thread_override`] if set,
//! else the `HYDRA_THREADS` env var (clamped to ≥ 1), else
//! `std::thread::available_parallelism()`. With one thread every combinator
//! degrades to a plain sequential loop with zero spawn overhead, which
//! keeps single-core benchmarks honest. With `t` threads the caller is one
//! of the `t` workers and `t - 1` are spawned: a fan-out never waits on the
//! scheduler to place a thread before its first item runs, which keeps
//! short batches (tens of milliseconds) steady from one call to the next.

use std::sync::atomic::{AtomicUsize, Ordering};

/// In-process worker-count override (0 = unset). Tests use this instead of
/// mutating `HYDRA_THREADS` — `std::env::set_var` is a cross-thread hazard
/// under a concurrent test harness, an atomic is not. Because every
/// combinator is order-preserving, a leaked override can change *how much*
/// work runs in parallel in a concurrently running test, never its result.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the worker count process-wide (`None` restores env/host
/// resolution). Intended for tests and harnesses.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Resolve the worker-thread count ([`set_thread_override`], then the
/// `HYDRA_THREADS` env var, then the host's available parallelism).
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("HYDRA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Minimum items per worker before parallelism is worth the spawn cost.
const MIN_ITEMS_PER_THREAD: usize = 8;

/// Parallel indexed map preserving input order: equivalent to
/// `items.iter().map(f).collect()` with `f` receiving `(index, &item)`.
///
/// `f` must be deterministic in `(index, item)` for the byte-identical
/// guarantee to hold (all hot-path closures are).
pub fn par_map<T: Sync, U: Send, F>(items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (`1` forces the sequential
/// path — parity tests compare explicit counts).
pub fn par_map_threads<T: Sync, U: Send, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads
        .min(items.len() / MIN_ITEMS_PER_THREAD.max(1))
        .max(1);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Observability only — fan-out shape, never fed back into scheduling.
    hydra_obs::counter_add("par.fanout", 1);
    hydra_obs::observe("par.fanout.items", items.len() as u64);
    hydra_obs::gauge_set("par.threads", threads as i64);

    // Work-stealing over a shared atomic cursor in fixed-size blocks; each
    // worker writes results into its blocks' slots, so output order matches
    // input order regardless of scheduling.
    let n = items.len();
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);
    let block = (n / (threads * 4)).max(1);
    let slots = SendSlice(out.as_mut_ptr());

    let work = || loop {
        let start = cursor.fetch_add(block, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + block).min(n);
        for i in start..end {
            let v = f(i, &items[i]);
            // SAFETY: each index is claimed exactly once via the atomic
            // cursor, so no two threads write the same slot, and the scope
            // outlives all writes.
            unsafe { slots.write(i, v) };
        }
    };
    // The caller is one of the workers: it is already running on a core,
    // so only `threads - 1` spawns have to be placed by the scheduler.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });

    out.into_iter()
        .map(|v| v.expect("all slots filled by claimed blocks"))
        .collect()
}

/// Raw-pointer wrapper asserting cross-thread transferability; soundness is
/// argued at the single write per claimed index in [`par_map`].
struct SendSlice<U>(*mut Option<U>);
unsafe impl<U: Send> Sync for SendSlice<U> {}

impl<U> SendSlice<U> {
    /// SAFETY: `i` is in bounds and no other thread touches slot `i`.
    unsafe fn write(&self, i: usize, v: U) {
        *self.0.add(i) = Some(v);
    }
}

/// [`par_map_threads`] with per-item panic isolation: each `f(i, t)` runs under
/// `catch_unwind`, so one panicking item yields `Err(message)` in its slot
/// instead of tearing down the whole scope. Order is preserved, and because
/// the catch happens inside the worker closure no unwind ever crosses the
/// `thread::scope` boundary.
///
/// The panic payload is downcast to a `String` when it is one (the common
/// `panic!("…")` case); other payloads collapse to a fixed placeholder so
/// results stay deterministic.
pub fn par_map_catch_threads<T: Sync, U: Send, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<U, String>>
where
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(threads, items, |i, t| {
        // AssertUnwindSafe: on Err the caller only sees the message — the
        // value under construction is dropped with the unwound frame, and
        // callers (shard quarantine) discard any state `f` may have touched.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            }
        })
    })
}

/// Parallel flat-map preserving order: equivalent to
/// `items.iter().flat_map(|t| f(i, t)).collect()`.
pub fn par_flat_map<T: Sync, U: Send, F>(items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> Vec<U> + Sync,
{
    par_flat_map_threads(num_threads(), items, f)
}

/// [`par_flat_map`] with an explicit worker count.
pub fn par_flat_map_threads<T: Sync, U: Send, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> Vec<U> + Sync,
{
    let nested = par_map_threads(threads, items, f);
    let total: usize = nested.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for v in nested {
        out.extend(v);
    }
    out
}

/// Dispatch disjoint mutable chunks of `data` to worker threads:
/// `f(chunk_index, chunk)` where chunk `c` spans
/// `data[c*chunk_len .. (c+1)*chunk_len]` (last chunk may be short).
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_threads(num_threads(), data, chunk_len, f)
}

/// [`par_chunks_mut`] with an explicit worker count.
pub fn par_chunks_mut_threads<T: Send, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if threads <= 1 || data.len() <= chunk_len {
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let cursor = AtomicUsize::new(0);
    let cells: Vec<std::sync::Mutex<Option<(usize, &mut [T])>>> = chunks
        .into_iter()
        .map(|c| std::sync::Mutex::new(Some(c)))
        .collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= cells.len() {
            break;
        }
        let (c, chunk) = cells[i].lock().unwrap().take().expect("chunk claimed once");
        f(c, chunk);
    };
    // The caller works too, as in [`par_map_threads`].
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        let par = par_map(&items, |i, x| x * 3 + i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_small_input_stays_sequential() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, |_, x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map(&[] as &[u32], |_, x| x + 1), Vec::<u32>::new());
    }

    #[test]
    fn par_flat_map_preserves_order_and_lengths() {
        let items: Vec<usize> = (0..200).collect();
        let seq: Vec<usize> = items.iter().flat_map(|&x| vec![x; x % 4]).collect();
        let par = par_flat_map(&items, |_, &x| vec![x; x % 4]);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_chunks_mut_touches_every_slot_once() {
        let mut data = vec![0u32; 997];
        par_chunks_mut(&mut data, 64, |c, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (c * 64 + k) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn forced_multi_thread_is_identical() {
        // Even on a single-core host, forcing threads > 1 must not change
        // results (exercises the scoped-thread merge path).
        let items: Vec<u64> = (0..5000).collect();
        let par = par_map_threads(4, &items, |i, x| x.wrapping_mul(0x9E3779B9) ^ i as u64);
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(0x9E3779B9) ^ i as u64)
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let spawned = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..4000).collect();
        let note = || {
            let id = std::thread::current().id();
            if id != caller {
                spawned.lock().unwrap().insert(id);
            }
        };
        par_map_threads(4, &items, |_, _| note());
        assert!(spawned.lock().unwrap().len() <= 3);
        spawned.lock().unwrap().clear();
        let mut data = vec![0u8; 4000];
        par_chunks_mut_threads(4, &mut data, 10, |_, _| note());
        assert!(spawned.lock().unwrap().len() <= 3);
    }

    #[test]
    fn par_map_catch_isolates_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_catch_threads(4, &items, |_, &x| {
            if x % 37 == 5 {
                panic!("boom at {x}");
            }
            x * 2
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            let x = items[i];
            match r {
                Err(msg) => {
                    assert_eq!(x % 37, 5);
                    assert_eq!(msg, &format!("boom at {x}"));
                }
                Ok(v) => assert_eq!(*v, x * 2),
            }
        }
    }

    #[test]
    fn thread_override_controls_resolution() {
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(Some(0)); // clamped to ≥ 1
        assert_eq!(num_threads(), 1);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }
}
