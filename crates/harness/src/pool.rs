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

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `run` on each of `items` on up to `threads` workers and returns
/// the outputs in submission order.
///
/// With `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread — the serial fast path has no pool overhead at all.
///
/// # Panics
///
/// Re-raises the panic of an item whose run panicked, with that run's own
/// payload (the first worker's, if runs on several workers panicked).
pub fn run_jobs<I: Send, T: Send>(
    threads: usize,
    items: Vec<I>,
    run: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let n_items = items.len();
    let workers = threads.max(1).min(n_items);
    if workers <= 1 {
        return items.into_iter().map(run).collect();
    }
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    // No run ever enqueues more work, so an empty queue is a stable exit
    // condition. The pop is its own statement so the lock is released
    // before the item runs.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("queue lock").pop_front();
            let Some((idx, item)) = next else { break };
            done.push((idx, run(item)));
        }
        done
    };
    // Every handle is joined inside the scope: a scoped thread left
    // unjoined would make the scope raise its own panic in place of the
    // worker's payload.
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n_items);
    for joined in per_worker {
        out.extend(joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// The message of a caught panic's `payload`: the `&str` or `String` that
/// `panic!` carries, or a fixed placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 7] {
            let out = run_jobs(threads, (0..64).collect(), |i: usize| {
                // Skew durations so completion order differs from
                // submission order under real parallelism.
                if i.is_multiple_of(8) {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                i * i
            });
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        run_jobs(4, vec![(); 100], |()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn workers_steal_from_a_loaded_neighbour() {
        // One long job pins a worker; the other workers must take the 31
        // cheap jobs queued behind it for the run to finish quickly.
        let started = std::time::Instant::now();
        let out = run_jobs(4, (0..32).collect(), |i: usize| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        });
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
            let out = run_jobs(7, (0..16).collect(), |i: usize| i);
            assert_eq!(out, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        let data = [1u64, 2, 3];
        let scale = 10;
        assert_eq!(
            run_jobs(2, data.iter().collect(), |v| v * scale),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn empty_and_single() {
        assert!(run_jobs(4, Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(run_jobs(4, vec![7u8], |x| x), vec![7]);
    }

    #[test]
    fn job_panics_propagate() {
        // The worker's own payload comes back, not a generic scope panic.
        for threads in [1, 2, 7] {
            let err = std::panic::catch_unwind(|| {
                run_jobs(threads, (0..8).collect(), |i: usize| {
                    assert!(i != 3, "cell died")
                })
            })
            .expect_err("a job panicked");
            assert_eq!(
                panic_message(err.as_ref()),
                "cell died",
                "threads = {threads}"
            );
        }
    }
}
