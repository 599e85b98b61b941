//! Thread-count knob and scheduling helpers for parallel training.
//!
//! Training parallelism in this workspace has two independent levels:
//!
//! 1. **Segment-parallel** — the GL family's per-segment local models are
//!    independent given the segmentation, so they are fanned across scoped
//!    threads with [`parallel_largest_first`]: a work queue ordered by
//!    per-segment sample count (largest first), which keeps the stragglers
//!    from serializing the tail. Each worker owns one [`Scratch`].
//! 2. **Data-parallel** — inside one model, each minibatch is split into
//!    fixed-size row shards whose gradients are reduced in ascending shard
//!    order (see `trainer::sharded_forward_backward`), so the trained
//!    weights are bit-identical for any thread count.
//!
//! The process-wide knob ([`set_train_threads`]) feeds both levels; a
//! [`TrainConfig`](crate::trainer::TrainConfig) can override it per run via
//! its `threads` field. Because every parallel path is deterministic by
//! construction, changing the knob never changes a trained model — only how
//! long training takes.

use crate::scratch::Scratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide training thread count; 0 means "one per available core".
static TRAIN_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The cores this process may use, read from the OS once and then cached.
///
/// `std::thread::available_parallelism` re-reads the cgroup CPU quota on
/// every call (its docs say it "should not be called from hot code"),
/// which is a large share of a lone estimate; the batched inference paths
/// ask on every call. A changed CPU limit therefore takes effect on
/// restart. No result depends on the value: every parallel path
/// here is thread-count independent (DESIGN §6).
// clippy.toml bans the per-call read everywhere else in favour of this.
#[allow(clippy::disallowed_methods)]
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Overrides the process-wide training thread count (`0` restores the
/// default of one thread per available core). The `exp` CLI exposes this
/// as `--train-threads`.
pub fn set_train_threads(n: usize) {
    TRAIN_THREADS.store(n, Ordering::Relaxed);
}

/// The effective process-wide training thread count: the knob, or
/// [`available_cores`] when it is 0.
pub fn train_threads() -> usize {
    match TRAIN_THREADS.load(Ordering::Relaxed) {
        0 => available_cores(),
        n => n,
    }
}

/// Resolves a per-run thread override: `0` falls back to the process-wide
/// knob, anything else wins.
pub fn resolve_threads(cfg_threads: usize) -> usize {
    if cfg_threads == 0 {
        train_threads()
    } else {
        cfg_threads
    }
}

/// Runs `work(i, scratch)` for every `i in 0..weights.len()` across up to
/// `threads` scoped workers and returns the results in index order.
///
/// Jobs are dispatched from a shared queue ordered by `weights[i]`
/// descending (ties broken by index, so the queue order is deterministic):
/// the most expensive jobs start first and cheap ones fill the gaps, which
/// bounds the makespan at (longest job + balanced remainder) instead of
/// whatever a contiguous chunking happens to produce. Each worker owns one
/// [`Scratch`] for the lifetime of the queue.
///
/// Results are independent of the thread count by construction: each index
/// is processed exactly once and the output vector is assembled by index,
/// so `threads = 1` and `threads = 8` return identical values whenever
/// `work` itself is deterministic per index.
// `expect` propagates worker panics to the caller (the standard
// `join()` idiom); every slot is filled before the loop ends.
#[allow(clippy::expect_used)]
pub fn parallel_largest_first<R, F>(weights: &[usize], threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Scratch) -> R + Sync,
{
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut scratch = Scratch::new();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for &i in &order {
            out[i] = Some(work(i, &mut scratch));
        }
        return out.into_iter().map(|r| r.expect("job ran")).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (order, cursor, work) = (&order, &cursor, &work);
                s.spawn(move || {
                    let mut scratch = Scratch::new();
                    let mut got = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        got.push((i, work(i, &mut scratch)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel training worker panicked"))
            .collect()
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Fans keyed jobs carrying exclusive borrows across up to `threads`
/// scoped workers with a static largest-first round-robin assignment.
///
/// Unlike [`parallel_largest_first`], each job here owns its payload `T`
/// (typically an `&mut` borrow of one model plus its inputs), so work
/// items cannot be handed out through a shared queue — instead jobs are
/// sorted by weight descending (key ascending on ties) and dealt
/// round-robin, which balances heavy jobs across workers while staying
/// reproducible. Results come back sorted by key, so any downstream
/// floating-point reduction performed in that order is bit-identical for
/// every thread count.
// `expect` propagates worker panics to the caller (the standard
// `join()` idiom).
#[allow(clippy::expect_used)]
pub fn fan_exclusive<T: Send, R: Send>(
    mut jobs: Vec<(usize, T, usize)>,
    threads: usize,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<(usize, R)> {
    jobs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    let threads = threads.clamp(1, jobs.len().max(1));
    let mut out: Vec<(usize, R)> = if threads <= 1 {
        jobs.into_iter()
            .map(|(key, t, _)| (key, work(key, t)))
            .collect()
    } else {
        // Round-robin deal: worker w takes jobs w, w+T, w+2T, … of the
        // largest-first order.
        let mut per_worker: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (key, t, _)) in jobs.into_iter().enumerate() {
            per_worker[i % threads].push((key, t));
        }
        let work = &work;
        std::thread::scope(|s| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .map(|mine| {
                    s.spawn(move || {
                        mine.into_iter()
                            .map(|(key, t)| (key, work(key, t)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                // cardest-lint: allow(serving-panic-reachability): standard join() idiom — re-raise a worker panic on the caller thread
                .flat_map(|h| h.join().expect("fan_exclusive worker panicked"))
                .collect()
        })
    };
    out.sort_by_key(|&(key, _)| key);
    out
}

/// Splits a row-major buffer of `rows × row_width` floats into contiguous
/// row chunks and runs `work(first_row, chunk)` for each across scoped
/// threads (the blocked GEMM's row-partitioned parallel path).
///
/// Chunk boundaries are aligned to multiples of `align` rows so the
/// micro-kernel keeps full tiles except at the true tail. Because every
/// output row is produced wholly by one worker and row results do not
/// depend on which chunk a row landed in, the output is bit-identical for
/// every `threads` value.
pub fn parallel_row_chunks<F>(
    out: &mut [f32],
    row_width: usize,
    rows: usize,
    threads: usize,
    align: usize,
    work: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_width);
    let threads = threads.clamp(1, rows.max(1));
    if threads <= 1 || rows == 0 || row_width == 0 {
        work(0, out);
        return;
    }
    let align = align.max(1);
    let chunk_rows = rows.div_ceil(threads).div_ceil(align) * align;
    // `scope` joins every worker and re-raises any panic at scope exit.
    std::thread::scope(|s| {
        for (ci, chunk) in out.chunks_mut(chunk_rows * row_width).enumerate() {
            let work = &work;
            s.spawn(move || work(ci * chunk_rows, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_first_returns_results_in_index_order() {
        let weights = [3usize, 50, 1, 20];
        for threads in [1, 2, 8] {
            let out = parallel_largest_first(&weights, threads, |i, _| i * 10);
            assert_eq!(out, vec![0, 10, 20, 30], "threads={threads}");
        }
    }

    #[test]
    fn largest_first_covers_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
        let weights: Vec<usize> = (0..37).map(|i| (i * 7) % 13).collect();
        parallel_largest_first(&weights, 8, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = parallel_largest_first(&[], 4, |_, _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn fan_exclusive_visits_each_job_once_and_sorts_by_key() {
        let mut owned: Vec<u32> = (0..23).collect();
        for threads in [1, 2, 8] {
            let jobs: Vec<(usize, &mut u32, usize)> = owned
                .iter_mut()
                .enumerate()
                .map(|(i, v)| (i, v, (i * 5) % 7))
                .collect();
            let out = fan_exclusive(jobs, threads, |key, v| {
                *v += 1;
                key * 2
            });
            let keys: Vec<usize> = out.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, (0..23).collect::<Vec<_>>(), "threads={threads}");
            assert!(out.iter().all(|&(k, r)| r == k * 2));
        }
        // Three passes over 23 jobs → every slot bumped exactly 3 times.
        assert!(owned.iter().enumerate().all(|(i, &v)| v == i as u32 + 3));
    }

    #[test]
    fn row_chunks_cover_all_rows_for_any_thread_count() {
        let rows = 37;
        let width = 3;
        for threads in [1, 2, 5, 8, 64] {
            let mut buf = vec![0.0f32; rows * width];
            parallel_row_chunks(&mut buf, width, rows, threads, 4, |r0, chunk| {
                for (local, row) in chunk.chunks_exact_mut(width).enumerate() {
                    row.fill((r0 + local) as f32);
                }
            });
            for r in 0..rows {
                assert!(
                    buf[r * width..(r + 1) * width]
                        .iter()
                        .all(|&x| x == r as f32),
                    "row {r} wrong at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn thread_knob_round_trips() {
        set_train_threads(3);
        assert_eq!(train_threads(), 3);
        assert_eq!(resolve_threads(0), 3);
        assert_eq!(resolve_threads(5), 5);
        set_train_threads(0);
        assert!(train_threads() >= 1);
        assert_eq!(train_threads(), available_cores());
    }
}
