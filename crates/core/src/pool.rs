//! One deterministic work-claiming pool for every parallel site in the
//! workspace.
//!
//! Jobs `0..n` are claimed off a single atomic counter by up to `threads`
//! scoped workers, so a fast worker drains what a slow one never claims.
//! Which worker runs which job depends on scheduling; what a caller gets
//! back does not, provided it merges per-worker state exactly (integer
//! sums, maxima, job-indexed slots). [`map`] does the job-indexed case
//! for the caller; [`claim`] hands back the per-worker states, in worker
//! order, for the callers that fold their own.
//!
//! The workspace vendors its dependencies and has no rayon;
//! `std::thread::scope` carries the borrows of the closures.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The default worker count: all available hardware parallelism, or 1
/// when the platform cannot tell.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs jobs `0..n` on up to `threads` workers claiming off one atomic
/// counter, and returns each worker's state **in worker order**.
///
/// `threads` is clamped to `[1, n]`; with one worker everything runs
/// inline on the calling thread, with no spawn. Worker `w` starts from
/// `init(w)` and folds each job it claims through `work(&mut state, job)`.
/// A [`ControlFlow::Break`] from any job stops every worker from claiming
/// further jobs (jobs already claimed run to the end). A panicking job is
/// re-raised on the caller with its original payload.
///
/// # Examples
///
/// ```
/// use std::ops::ControlFlow;
/// use multihonest_core::pool;
///
/// // Per-worker partial sums, merged exactly: the total is the same for
/// // every thread count.
/// let partials = pool::claim(100, 4, |_| 0u64, |sum, job| {
///     *sum += job as u64;
///     ControlFlow::Continue(())
/// });
/// assert_eq!(partials.iter().sum::<u64>(), 4950);
/// ```
pub fn claim<S, I, W>(n: usize, threads: usize, init: I, work: W) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> ControlFlow<()> + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = |w: usize| {
        let mut state = init(w);
        while !stop.load(Ordering::Acquire) {
            let job = next.fetch_add(1, Ordering::Relaxed);
            if job >= n {
                break;
            }
            if work(&mut state, job).is_break() {
                stop.store(true, Ordering::Release);
            }
        }
        state
    };
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let worker = &worker;
                scope.spawn(move || worker(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Runs `f(job)` for jobs `0..n` on up to `threads` workers (see
/// [`claim`]) and returns the results **in job order**, whatever the
/// parallelism.
///
/// # Examples
///
/// ```
/// use multihonest_core::pool;
///
/// assert_eq!(pool::map(5, 3, |job| job * job), vec![0, 1, 4, 9, 16]);
/// ```
pub fn map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let done = claim(
        n,
        threads,
        |_| Vec::new(),
        |out, job| {
            out.push((job, f(job)));
            ControlFlow::Continue(())
        },
    );
    for (job, value) in done.into_iter().flatten() {
        slots[job] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("claim runs every job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::panic::{catch_unwind, AssertUnwindSafe};

    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// `n ∈ {0, 1, threads − 1, ≫ threads}` for each thread count.
    fn cases() -> impl Iterator<Item = (usize, usize)> {
        THREADS.into_iter().flat_map(|threads| {
            [0, 1, threads - 1, 50 * threads + 7]
                .into_iter()
                .map(move |n| (n, threads))
        })
    }

    #[test]
    fn map_returns_results_in_job_order() {
        for (n, threads) in cases() {
            let expected: Vec<usize> = (0..n).map(|job| 3 * job + 1).collect();
            assert_eq!(
                map(n, threads, |job| 3 * job + 1),
                expected,
                "{n}/{threads}"
            );
        }
    }

    #[test]
    fn claim_visits_each_job_exactly_once() {
        for (n, threads) in cases() {
            let states = claim(
                n,
                threads,
                |w| (w, Vec::new()),
                |(_, jobs), job| {
                    jobs.push(job);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(states.len(), threads.clamp(1, n.max(1)), "{n}/{threads}");
            let workers: Vec<usize> = states.iter().map(|(w, _)| *w).collect();
            assert_eq!(workers, (0..states.len()).collect::<Vec<_>>());
            let mut union: Vec<usize> = states.into_iter().flat_map(|(_, jobs)| jobs).collect();
            union.sort_unstable();
            assert_eq!(union, (0..n).collect::<Vec<_>>(), "{n}/{threads}");
        }
    }

    #[test]
    fn a_break_stops_every_worker() {
        for (n, threads) in cases().filter(|&(n, threads)| n > threads) {
            // Job 0 is claimed first and breaks; every other job holds
            // its worker until that break is under way, so workers that
            // ignored it would go on to drain the whole queue.
            let broke = AtomicBool::new(false);
            let states = claim(
                n,
                threads,
                |_| 0usize,
                |ran, job| {
                    *ran += 1;
                    if job == 0 {
                        broke.store(true, Ordering::Release);
                        return ControlFlow::Break(());
                    }
                    while !broke.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    ControlFlow::Continue(())
                },
            );
            let ran: usize = states.iter().sum();
            assert!(ran < n, "{ran} of {n} jobs ran on {threads} workers");
            if threads == 1 {
                assert_eq!(ran, 1);
            }
        }
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_with_its_message() {
        for (n, threads) in cases().filter(|&(n, threads)| n > 1 && threads > 1) {
            let bad = n / 2;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map(n, threads, |job| {
                    assert_ne!(job, bad, "job {job} failed");
                    job
                })
            }))
            .expect_err("the panic propagates");
            let message = caught
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(message.contains(&format!("job {bad} failed")), "{message}");
        }
    }
}
