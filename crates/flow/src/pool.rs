//! A hand-rolled order-preserving worker pool.
//!
//! The build environment vendors no `rayon`, so the flow brings its own
//! executor: N scoped `std::thread` workers self-schedule chunks of the
//! job index space off a shared atomic cursor (chunked work sharing — the
//! same load-balancing effect as work stealing for an indexed job list,
//! without per-worker deques), stream `(index, result)` pairs back over an
//! mpsc channel, and the caller slots results by index. The output vector
//! is therefore in *job order* regardless of which worker ran what when:
//! an N-thread map is element-for-element identical to a 1-thread map, the
//! property the SNA flow's determinism guarantee rests on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Number of chunks each worker should expect to claim on a balanced
/// workload. Smaller chunks balance better when job costs vary (cluster
/// solve times span ~an order of magnitude with aggressor count and wire
/// length); larger chunks amortize cursor contention. 4 per worker is the
/// classic guided-scheduling compromise.
const CHUNKS_PER_WORKER: usize = 4;

/// Execution metrics of one pool run, reported out-of-band: the mapped
/// results are bit-identical whether or not anyone looks at these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Nanoseconds each worker spent inside job closures (busy time).
    pub worker_busy_nanos: Vec<u64>,
    /// Jobs completed per worker.
    pub worker_jobs: Vec<usize>,
    /// Chunks claimed off the shared cursor per worker.
    pub worker_chunks: Vec<usize>,
    /// Wall time of each job (ns), in job order.
    pub job_nanos: Vec<u64>,
    /// Wall time of the whole map (ns).
    pub wall_nanos: u64,
}

/// Map `f` over `items` on `threads` workers, preserving item order in the
/// output. `f(i, &items[i])` must be a pure function of its arguments (plus
/// internally-synchronized shared state) for the determinism guarantee to
/// mean anything; the pool itself never reorders results.
///
/// `threads` is clamped to `1..=items.len()`; with one thread the map runs
/// inline on the caller with zero scheduling overhead, so `threads = 1` is
/// the exact serial semantics, not a degenerate pool.
pub fn parallel_map_ordered<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_ordered_metered(threads, items, f).0
}

/// As [`parallel_map_ordered`], additionally reporting per-worker and
/// per-job timing as [`PoolMetrics`]. The two Instant reads per job are
/// noise against cluster-solve costs, so the plain API is just a wrapper
/// that drops the metrics.
pub fn parallel_map_ordered_metered<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, PoolMetrics)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), PoolMetrics::default());
    }
    let t_wall = Instant::now();
    let threads = threads.clamp(1, n);
    let mut metrics = PoolMetrics {
        job_nanos: vec![0; n],
        ..PoolMetrics::default()
    };
    if threads == 1 {
        let out = items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let t = Instant::now();
                let r = f(i, it);
                metrics.job_nanos[i] = t.elapsed().as_nanos() as u64;
                r
            })
            .collect();
        metrics.worker_busy_nanos = vec![metrics.job_nanos.iter().sum()];
        metrics.worker_jobs = vec![n];
        metrics.worker_chunks = vec![1];
        metrics.wall_nanos = t_wall.elapsed().as_nanos() as u64;
        return (out, metrics);
    }
    let chunk = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R, u64)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut worker_stats = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let (mut busy, mut jobs, mut chunks) = (0u64, 0usize, 0usize);
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        chunks += 1;
                        let end = (start + chunk).min(n);
                        for (off, item) in items[start..end].iter().enumerate() {
                            let i = start + off;
                            let t = Instant::now();
                            let r = f(i, item);
                            let ns = t.elapsed().as_nanos() as u64;
                            busy += ns;
                            jobs += 1;
                            // The receiver lives for the whole scope, so send
                            // only fails if the caller's collection loop
                            // panicked; bail quietly rather than double-panic.
                            if tx.send((i, r, ns)).is_err() {
                                return (busy, jobs, chunks);
                            }
                        }
                    }
                    (busy, jobs, chunks)
                })
            })
            .collect();
        drop(tx); // the scope's clones keep the channel open as needed
        for (i, r, ns) in rx {
            slots[i] = Some(r);
            metrics.job_nanos[i] = ns;
        }
        for h in handles {
            worker_stats.push(h.join().expect("pool worker panicked"));
        }
    });
    for (busy, jobs, chunks) in worker_stats {
        metrics.worker_busy_nanos.push(busy);
        metrics.worker_jobs.push(jobs);
        metrics.worker_chunks.push(chunks);
    }
    metrics.wall_nanos = t_wall.elapsed().as_nanos() as u64;
    let out = slots
        .into_iter()
        .map(|slot| slot.expect("every job index produces exactly one result"))
        .collect();
    (out, metrics)
}

/// The thread count to use when the caller passes 0 ("auto"): the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count a run asks for as `requested`: `0` means
/// [`auto_threads`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        auto_threads()
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let serial = parallel_map_ordered(1, &items, |i, &x| i * 1000 + x * x);
        for threads in [2, 3, 4, 8, 64] {
            let par = parallel_map_ordered(threads, &items, |i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..57).collect();
        parallel_map_ordered(4, &items, |i, _| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_ordered::<_, u32, _>(4, &empty, |_, &x| x).is_empty());
        // More threads than items: clamped, still one result per item.
        assert_eq!(parallel_map_ordered(16, &[7u32, 9], |_, &x| x + 1), [8, 10]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map_ordered(4, &items, |_, _| {
            // Sleeping forces the scheduler to run the other workers even
            // on a single hardware thread, so one worker cannot race
            // through every chunk before the rest are scheduled.
            std::thread::sleep(std::time::Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(
            ids.lock().unwrap().len() >= 2,
            "work must be spread across workers"
        );
    }

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn metered_map_accounts_every_job_to_exactly_one_worker() {
        let items: Vec<usize> = (0..41).collect();
        for threads in [1, 4] {
            let (out, m) = parallel_map_ordered_metered(threads, &items, |_, &x| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                x * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
            assert_eq!(m.worker_busy_nanos.len(), threads);
            assert_eq!(m.worker_jobs.iter().sum::<usize>(), items.len());
            assert!(m.worker_chunks.iter().sum::<usize>() >= 1);
            assert_eq!(m.job_nanos.len(), items.len());
            assert!(m.job_nanos.iter().all(|&ns| ns > 0));
            // Busy time is the sum of the per-job walls, give or take
            // bookkeeping; wall covers the whole map.
            assert!(m.wall_nanos > 0);
            assert!(m.worker_busy_nanos.iter().sum::<u64>() >= m.job_nanos.iter().sum::<u64>());
        }
    }
}
