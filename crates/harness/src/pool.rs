//! A thread pool for experiment cells.
//!
//! Cells are coarse (one full trace-driven simulation each) and their
//! durations vary by an order of magnitude across policies, so static
//! chunking would leave workers idle behind one long Belady cell. Jobs
//! wait in one shared queue in submission order, and each worker takes
//! the next job whenever it finishes one. Cells take milliseconds to
//! seconds, so the one lock is never contended, and jobs *start* in
//! submission order: cells a caller submitted back to back (those sharing
//! one recorded stream, say) run together, never spread across the whole
//! batch.
//!
//! Scheduling order is nondeterministic; **result order is not**: outputs
//! are returned in submission order regardless of which worker ran what,
//! which is what lets callers emit byte-identical result files at any
//! `--jobs` level.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A unit of work for [`run_jobs`].
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Runs `jobs` on up to `threads` workers and returns their outputs in
/// submission order.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread — the serial fast path has no pool overhead at all.
///
/// # Panics
///
/// Re-raises the panic of any job that panicked.
pub fn run_jobs<'env, T: Send + 'env>(threads: usize, jobs: Vec<Job<'env, T>>) -> Vec<T> {
    let n_jobs = jobs.len();
    if n_jobs == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n_jobs);
    if workers == 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue: Mutex<VecDeque<(usize, Job<'env, T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let queue = &queue;
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n_jobs));
    let results_ref = &results;
    let outcome = crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move |_| {
                // No job ever enqueues more work, so an empty queue is a
                // stable exit condition. The pop is its own statement so
                // the lock is released before the job runs.
                loop {
                    let next = queue.lock().expect("queue lock").pop_front();
                    let Some((idx, job)) = next else { break };
                    let out = job();
                    results_ref.lock().expect("results lock").push((idx, out));
                }
            });
        }
    });
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
    let mut out = results.into_inner().expect("results lock");
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'env, T, F: FnOnce() -> T + Send + 'env>(f: F) -> Job<'env, T> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 7] {
            let jobs: Vec<Job<'_, usize>> = (0..64)
                .map(|i| {
                    boxed(move || {
                        // Skew durations so completion order differs from
                        // submission order under real parallelism.
                        if i % 8 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(3));
                        }
                        i * i
                    })
                })
                .collect();
            let out = run_jobs(threads, jobs);
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_, ()>> = (0..100)
            .map(|_| {
                let c = &counter;
                boxed(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        run_jobs(4, jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn workers_steal_from_a_loaded_neighbour() {
        // One long job pins a worker; the other workers must take the 31
        // cheap jobs queued behind it for the run to finish quickly.
        let jobs: Vec<Job<'_, usize>> = (0..32)
            .map(|i| {
                boxed(move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    i
                })
            })
            .collect();
        let started = std::time::Instant::now();
        let out = run_jobs(4, jobs);
        assert_eq!(out.len(), 32);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "stealing failed; run serialized"
        );
    }

    #[test]
    fn empty_workers_stealing_from_each_other_do_not_deadlock() {
        // Endgame regression: when the queue drains, every worker finds
        // it empty at once and must exit rather than wait on a lock (a
        // queue guard held past its statement would serialize or wedge
        // them); many tiny jobs across many workers makes that window
        // hot.
        for _ in 0..200 {
            let jobs: Vec<Job<'_, usize>> = (0..16).map(|i| boxed(move || i)).collect();
            let out = run_jobs(7, jobs);
            assert_eq!(out, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        let data = [1u64, 2, 3];
        let jobs: Vec<Job<'_, u64>> = data.iter().map(|v| boxed(move || v * 10)).collect();
        assert_eq!(run_jobs(2, jobs), vec![10, 20, 30]);
    }

    #[test]
    fn empty_and_single() {
        assert!(run_jobs::<u8>(4, Vec::new()).is_empty());
        assert_eq!(run_jobs(4, vec![boxed(|| 7u8)]), vec![7]);
    }

    #[test]
    fn job_panics_propagate() {
        let jobs: Vec<Job<'_, ()>> = vec![boxed(|| panic!("cell died")), boxed(|| ())];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(2, jobs)));
        assert!(err.is_err());
    }
}
