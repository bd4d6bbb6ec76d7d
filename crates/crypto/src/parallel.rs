//! Chunked data-parallel map over scoped OS threads.
//!
//! This is the workspace's one shared "embarrassingly parallel loop"
//! primitive: the input is split into contiguous chunks, one per worker,
//! each worker writes its results into its own output vector (no shared
//! mutable state, no locks), and `std::thread::scope` joins everything
//! before returning. It lives in the crypto crate — the root of the crate
//! graph — so the Setchain servers' batched element/signature validation
//! and the chunked codec can use it without a dependency cycle.

use std::num::NonZeroUsize;

/// Inputs shorter than this are mapped sequentially: below it, thread spawn
/// overhead dominates any speedup.
pub const MIN_PARALLEL_LEN: usize = 256;

/// Number of worker threads to use by default: the available parallelism,
/// uncapped. Keeping tiny inputs off the spawning path is the job of
/// [`parallel_map_min`]'s length threshold, not of this value.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item of `items`, producing the results in order.
///
/// With `threads <= 1` or fewer than [`MIN_PARALLEL_LEN`] items this
/// degenerates to a sequential map (same results, no spawning). The function
/// must be pure with respect to the slice: results are
/// position-for-position identical to `items.iter().map(f).collect()`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_min(items, threads, MIN_PARALLEL_LEN, f)
}

/// [`parallel_map`] with an explicit sequential-fallback threshold.
///
/// `MIN_PARALLEL_LEN` is calibrated for cheap per-item work (one HMAC, one
/// signature check). Callers whose items are individually expensive — e.g.
/// `setchain-compress` compressing 64 KiB chunks — pass a smaller `min_len`
/// so even a handful of items fans out across cores.
pub fn parallel_map_min<T, R, F>(items: &[T], threads: usize, min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < min_len.max(2) {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let chunk_len = items.len().div_ceil(workers);
    let mut chunk_results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        // One contiguous input chunk per worker; each worker produces its own
        // output vector (no shared mutable state), and the chunks are
        // concatenated in order afterwards.
        let mut handles = Vec::with_capacity(workers);
        for chunk in items.chunks(chunk_len) {
            let f = &f;
            handles.push(scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()));
        }
        for handle in handles {
            chunk_results.push(handle.join().expect("validation worker panicked"));
        }
    });
    let mut results = Vec::with_capacity(items.len());
    for chunk in chunk_results {
        results.extend(chunk);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_below_and_above_threshold() {
        for len in [0usize, 10, MIN_PARALLEL_LEN - 1, MIN_PARALLEL_LEN, 5000] {
            let items: Vec<u64> = (0..len as u64).collect();
            let par = parallel_map(&items, 8, |x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let seq: Vec<u64> = items
                .iter()
                .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            assert_eq!(par, seq, "len={len}");
        }
    }

    #[test]
    fn single_thread_and_oversubscription_work() {
        let items: Vec<u32> = (0..300).collect();
        assert_eq!(parallel_map(&items, 1, |x| x + 1).len(), 300);
        assert_eq!(parallel_map(&items, 1024, |x| x + 1)[299], 300);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn explicit_min_len_fans_out_small_inputs() {
        // Below MIN_PARALLEL_LEN, but parallel_map_min with min_len=2 takes
        // the spawning path and must still produce in-order results.
        let items: Vec<u64> = (0..7).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(parallel_map_min(&items, 4, 2, |x| x * 3), seq);
        // min_len is clamped to at least 2: a single item never spawns.
        assert_eq!(parallel_map_min(&items[..1], 4, 0, |x| x * 3), vec![0]);
    }
}
