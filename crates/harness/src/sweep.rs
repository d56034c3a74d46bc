//! The sweep session: cells in, deterministic results out.
//!
//! A [`SweepSession`] owns the run-wide pieces — thread budget, the
//! optional resume journal, the stats of every content key it has run,
//! and the per-cell metric log — while each experiment driver submits
//! batches of [`SweepCell`]s and receives their stats back **in
//! submission order**, whatever the scheduler did. That ordering contract
//! is what lets the drivers build their result tables exactly as the old
//! serial loops did, byte for byte.

use crate::manifest::Manifest;
use crate::pool::{run_jobs, Job};
use crate::report::{CellMetric, CellOutcome, SweepReport};
use popt_sim::HierarchyStats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One schedulable unit: a uniquely-named simulation closure and the
/// content key of what it computes.
pub struct SweepCell<'env> {
    id: String,
    key: String,
    run: Box<dyn FnOnce() -> HierarchyStats + Send + 'env>,
}

impl<'env> SweepCell<'env> {
    /// Wraps a simulation closure under a sweep-unique cell id (the
    /// convention is `{experiment}/{scale}/{graph}/{policy}`) and the
    /// content key of its result: cells with equal keys compute equal
    /// stats, so a session runs each key once.
    pub fn new(
        id: impl Into<String>,
        key: impl Into<String>,
        run: impl FnOnce() -> HierarchyStats + Send + 'env,
    ) -> Self {
        SweepCell {
            id: id.into(),
            key: key.into(),
            run: Box::new(run),
        }
    }
}

/// A run-wide orchestration context.
#[derive(Debug)]
pub struct SweepSession {
    threads: usize,
    manifest: Option<Mutex<Manifest>>,
    metrics: Mutex<Vec<CellMetric>>,
    seen: Mutex<BTreeSet<String>>,
    done: Mutex<BTreeMap<String, HierarchyStats>>,
    fault: Option<String>,
}

/// What a job reports back: its submission index, key and outcome.
type Ran = (usize, String, Result<HierarchyStats, String>);

impl SweepSession {
    /// A serial session: cells run inline, no journal.
    pub fn serial() -> Self {
        SweepSession::parallel(1)
    }

    /// A session running up to `threads` cells concurrently.
    pub fn parallel(threads: usize) -> Self {
        SweepSession {
            threads: threads.max(1),
            manifest: None,
            metrics: Mutex::new(Vec::new()),
            seen: Mutex::new(BTreeSet::new()),
            done: Mutex::new(BTreeMap::new()),
            fault: None,
        }
    }

    /// Fault injection for failure-path tests: any cell whose id contains
    /// `pattern` panics instead of simulating, exercising the same code
    /// path as a genuine simulation panic. Such a cell always runs; it
    /// never takes another cell's stats.
    #[must_use]
    pub fn with_fault(mut self, pattern: impl Into<String>) -> Self {
        self.fault = Some(pattern.into());
        self
    }

    /// Attaches a resume journal: cells it already records are skipped and
    /// every newly completed cell is journaled.
    #[must_use]
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.manifest = Some(Mutex::new(manifest));
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of cells, returning stats in submission order. A cell
    /// is **resumed** if the journal records its id; **shared** if the
    /// session has its key's stats (from any earlier cell) or an earlier
    /// cell of the batch runs its key, in which case it is journaled
    /// under its own id; and **executed** otherwise. Executed cells start
    /// in submission order.
    ///
    /// A panicking cell does not abort its batch: the panic is caught, the
    /// cell and the batch's other cells of its key are recorded as
    /// [`CellOutcome::Failed`], and every other cell still runs and
    /// journals. Only then does the batch re-raise, so a resumed sweep
    /// after a fix re-simulates nothing but the cells that failed.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate cell id (two distinct simulations under one
    /// id would corrupt resume), on a journal write failure, or — after
    /// the rest of the batch completed — if any cell panicked.
    pub fn run_cells(&self, cells: Vec<SweepCell<'_>>) -> Vec<HierarchyStats> {
        {
            let mut seen = lock(&self.seen);
            for cell in &cells {
                assert!(
                    seen.insert(cell.id.clone()),
                    "duplicate cell id {:?}: cell ids must be sweep-unique",
                    cell.id
                );
            }
        }
        let mut results: Vec<Option<HierarchyStats>> = vec![None; cells.len()];
        // Journaled cells first: their stats serve every cell of their key.
        let mut fresh = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let journaled = self
                .manifest
                .as_ref()
                .and_then(|m| lock(m).completed(&cell.id).copied());
            match journaled {
                Some(stats) => {
                    lock(&self.done).entry(cell.key).or_insert(stats);
                    self.log(cell.id, CellOutcome::Resumed, Duration::ZERO, &stats);
                    results[i] = Some(stats);
                }
                None => fresh.push((i, cell)),
            }
        }
        // The batch's first cell of each unknown key runs; later cells of
        // that key follow it.
        let mut leaders: BTreeMap<String, usize> = BTreeMap::new();
        let mut followers: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
        let mut jobs: Vec<Job<'_, Ran>> = Vec::new();
        for (i, cell) in fresh {
            if !self.faulted(&cell.id) {
                if let Some(stats) = lock(&self.done).get(&cell.key).copied() {
                    self.share(cell.id, &stats);
                    results[i] = Some(stats);
                    continue;
                }
                if let Some(leader) = leaders.get(&cell.key) {
                    followers.entry(*leader).or_default().push((i, cell.id));
                    continue;
                }
                leaders.insert(cell.key.clone(), i);
            }
            jobs.push(self.job(i, cell));
        }
        let mut failures: Vec<String> = Vec::new();
        for (i, key, outcome) in run_jobs(self.threads, jobs) {
            let sharers = followers.remove(&i).unwrap_or_default();
            match outcome {
                Ok(stats) => {
                    lock(&self.done).insert(key, stats);
                    results[i] = Some(stats);
                    for (j, id) in sharers {
                        self.share(id, &stats);
                        results[j] = Some(stats);
                    }
                }
                Err(msg) => {
                    failures.push(msg);
                    for (_, id) in sharers {
                        failures.push(format!("{id}: shares the key of a failed cell"));
                        lock(&self.metrics).push(CellMetric::failed(id, Duration::ZERO));
                    }
                }
            }
        }
        assert!(
            failures.is_empty(),
            "{} cell(s) failed (completed cells are journaled): {}",
            failures.len(),
            failures.join("; ")
        );
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Whether fault injection targets cell `id`.
    fn faulted(&self, id: &str) -> bool {
        self.fault.as_deref().is_some_and(|pat| id.contains(pat))
    }

    /// The job that simulates cell `i` of a batch, journals and logs it.
    fn job<'a>(&'a self, i: usize, cell: SweepCell<'a>) -> Job<'a, Ran> {
        Box::new(move || {
            let SweepCell { id, key, run } = cell;
            let faulted = self.faulted(&id);
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if faulted {
                    panic!("injected fault for cell {id:?}");
                }
                run()
            }));
            let wall = started.elapsed();
            match outcome {
                Ok(stats) => {
                    self.journal(&id, &stats);
                    self.log(id, CellOutcome::Executed, wall, &stats);
                    (i, key, Ok(stats))
                }
                Err(payload) => {
                    let msg = format!("{id}: {}", panic_message(payload.as_ref()));
                    lock(&self.metrics).push(CellMetric::failed(id, wall));
                    (i, key, Err(msg))
                }
            }
        })
    }

    /// Journals and logs a cell that took another cell's `stats`.
    fn share(&self, id: String, stats: &HierarchyStats) {
        self.journal(&id, stats);
        self.log(id, CellOutcome::Shared, Duration::ZERO, stats);
    }

    fn journal(&self, id: &str, stats: &HierarchyStats) {
        if let Some(m) = &self.manifest {
            lock(m)
                .record(id, *stats)
                .expect("journal write failed; sweep is not resumable");
        }
    }

    fn log(&self, id: String, outcome: CellOutcome, wall: Duration, stats: &HierarchyStats) {
        lock(&self.metrics).push(CellMetric::new(id, outcome, wall, stats));
    }

    /// Number of cells so far whose result materialized as `outcome`.
    pub fn count(&self, outcome: CellOutcome) -> usize {
        lock(&self.metrics)
            .iter()
            .filter(|m| m.outcome == outcome)
            .count()
    }

    /// Finishes the sweep: canonicalizes the journal (making it
    /// byte-comparable across runs) and returns the aggregated report.
    ///
    /// # Errors
    ///
    /// Propagates journal rewrite failures.
    pub fn finish(self) -> std::io::Result<SweepReport> {
        if let Some(m) = &self.manifest {
            lock(m).canonicalize()?;
        }
        Ok(SweepReport::new(
            self.metrics.into_inner().expect("metrics lock"),
        ))
    }
}

/// Locks a session mutex. A panicking cell never holds one (cells run
/// outside every lock), so poisoning means a bug in this module.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("sweep session lock")
}

/// Renders a caught panic payload (`&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-harness-test/sweep")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("manifest.jsonl")
    }

    fn stats(n: u64) -> HierarchyStats {
        HierarchyStats {
            instructions: n,
            ..Default::default()
        }
    }

    fn cells(count: u64, ran: &AtomicUsize) -> Vec<SweepCell<'_>> {
        (0..count)
            .map(|i| {
                SweepCell::new(format!("t/{i:02}"), format!("k/{i:02}"), move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    stats(i * 10)
                })
            })
            .collect()
    }

    #[test]
    fn results_in_submission_order_serial_and_parallel() {
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let session = SweepSession::parallel(threads);
            let out = session.run_cells(cells(9, &ran));
            assert_eq!(
                out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
                (0..9).map(|i| i * 10).collect::<Vec<_>>()
            );
            assert_eq!(ran.load(Ordering::Relaxed), 9);
            assert_eq!(session.count(CellOutcome::Executed), 9);
        }
    }

    #[test]
    fn journaled_cells_are_not_rerun() {
        let path = scratch("resume");
        let ran = AtomicUsize::new(0);
        {
            let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
            session.run_cells(cells(6, &ran));
            session
                .finish()
                .unwrap()
                .write(path.parent().unwrap())
                .unwrap();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 6);
        // Second run over the same journal: nothing executes.
        let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run_cells(cells(6, &ran));
        assert_eq!(ran.load(Ordering::Relaxed), 6, "no re-execution");
        assert_eq!(session.count(CellOutcome::Executed), 0);
        assert_eq!(session.count(CellOutcome::Resumed), 6);
        assert_eq!(
            out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
            (0..6).map(|i| i * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_journal_runs_only_the_remainder() {
        let path = scratch("partial");
        let ran = AtomicUsize::new(0);
        {
            // First run completes only cells 0..3 (simulate a kill by
            // submitting a prefix).
            let session = SweepSession::serial().with_manifest(Manifest::open(&path).unwrap());
            let prefix: Vec<SweepCell<'_>> = cells(6, &ran).into_iter().take(3).collect();
            session.run_cells(prefix);
            // No finish(): the "killed" run never canonicalized.
        }
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        let session = SweepSession::parallel(3).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run_cells(cells(6, &ran));
        assert_eq!(out.len(), 6);
        assert_eq!(ran.load(Ordering::Relaxed), 6, "exactly 3 more executions");
        assert_eq!(session.count(CellOutcome::Executed), 3);
        assert_eq!(session.count(CellOutcome::Resumed), 3);
    }

    /// A cell `id` of key `key` that counts its runs in `ran`.
    fn keyed<'a>(id: &str, key: &str, n: u64, ran: &'a AtomicUsize) -> SweepCell<'a> {
        SweepCell::new(id, key, move || {
            ran.fetch_add(1, Ordering::Relaxed);
            stats(n)
        })
    }

    #[test]
    fn an_in_batch_duplicate_runs_once_and_is_journaled_under_both_ids() {
        let path = scratch("in-batch-duplicate");
        let ran = AtomicUsize::new(0);
        let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run_cells(vec![
            keyed("d/a", "k/same", 7, &ran),
            keyed("d/b", "k/other", 8, &ran),
            keyed("d/c", "k/same", 99, &ran),
        ]);
        assert_eq!(
            out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
            [7, 8, 7],
            "the duplicate takes its leader's stats"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(session.count(CellOutcome::Executed), 2);
        assert_eq!(session.count(CellOutcome::Shared), 1);
        let report = session.finish().unwrap();
        let shared = &report.rows()[2];
        assert_eq!(
            (shared.cell.as_str(), shared.outcome, shared.wall),
            ("d/c", CellOutcome::Shared, Duration::ZERO)
        );
        let journal = Manifest::open(&path).unwrap();
        for id in ["d/a", "d/c"] {
            assert_eq!(journal.completed(id).map(|s| s.instructions), Some(7));
        }
    }

    #[test]
    fn completed_and_journaled_keys_serve_later_batches() {
        let path = scratch("later-batches");
        let ran = AtomicUsize::new(0);
        {
            let session = SweepSession::serial().with_manifest(Manifest::open(&path).unwrap());
            session.run_cells(vec![keyed("l/a", "k/a", 1, &ran)]);
            let out = session.run_cells(vec![
                keyed("l/b", "k/b", 2, &ran),
                keyed("l/a2", "k/a", 99, &ran),
            ]);
            assert_eq!(
                out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
                [2, 1]
            );
            assert_eq!(session.count(CellOutcome::Shared), 1);
            assert_eq!(ran.load(Ordering::Relaxed), 2);
        }
        // A new session resumes `l/a` by id; its stats then serve key
        // `k/a` for a cell the journal has never seen.
        let session = SweepSession::serial().with_manifest(Manifest::open(&path).unwrap());
        let out = session.run_cells(vec![
            keyed("l/a3", "k/a", 99, &ran),
            keyed("l/a", "k/a", 99, &ran),
        ]);
        assert_eq!(
            out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
            [1, 1]
        );
        assert_eq!(ran.load(Ordering::Relaxed), 2, "nothing ran");
        assert_eq!(session.count(CellOutcome::Resumed), 1);
        assert_eq!(session.count(CellOutcome::Shared), 1);
    }

    #[test]
    fn a_duplicate_of_a_failing_cell_fails_with_it() {
        let ran = AtomicUsize::new(0);
        let session = SweepSession::parallel(2);
        let batch = vec![
            SweepCell::new("f/boom", "k/boom", || panic!("injected")),
            keyed("f/ok", "k/ok", 1, &ran),
            keyed("f/boom-twin", "k/boom", 2, &ran),
        ];
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_cells(batch)));
        let msg = *err
            .expect_err("batch re-raises")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("2 cell(s) failed"), "got: {msg}");
        assert!(msg.contains("f/boom-twin"), "the twin is named: {msg}");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the twin never ran");
        assert_eq!(session.count(CellOutcome::Failed), 2);
        assert_eq!(session.count(CellOutcome::Executed), 1);
        // The failed key left no stats behind: a later cell of it runs.
        let out = session.run_cells(vec![keyed("f/retry", "k/boom", 3, &ran)]);
        assert_eq!(out[0].instructions, 3);
    }

    #[test]
    fn a_faulted_cell_never_shares() {
        let ran = AtomicUsize::new(0);
        let session = SweepSession::serial().with_fault("x/b");
        session.run_cells(vec![keyed("x/a", "k/same", 1, &ran)]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_cells(vec![keyed("x/b", "k/same", 1, &ran)])
        }));
        assert!(
            err.is_err(),
            "the injected fault fires despite the known key"
        );
        assert_eq!(session.count(CellOutcome::Shared), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_ids_are_rejected() {
        let session = SweepSession::serial();
        session.run_cells(vec![
            SweepCell::new("same", "k/1", || stats(1)),
            SweepCell::new("same", "k/2", || stats(2)),
        ]);
    }

    #[test]
    fn failing_cell_does_not_abort_its_batch() {
        // The failing cell is submitted FIRST so the serial path would
        // historically have skipped everything after it; now every other
        // cell completes and journals before the batch re-raises.
        let path = scratch("failing-cell");
        let ran = AtomicUsize::new(0);
        {
            let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
            let mut batch = vec![SweepCell::new("t/boom", "k/boom", || panic!("injected"))];
            batch.extend(cells(4, &ran));
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_cells(batch)));
            let msg = *err
                .expect_err("batch re-raises")
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("1 cell(s) failed"), "got: {msg}");
            assert!(msg.contains("t/boom"), "failure names the cell: {msg}");
            assert_eq!(ran.load(Ordering::Relaxed), 4, "healthy cells all ran");
            assert_eq!(session.count(CellOutcome::Failed), 1);
            assert_eq!(session.count(CellOutcome::Executed), 4);
        }
        // The journal carries the four completed cells: a resumed run
        // re-simulates only the fixed cell.
        let ran2 = AtomicUsize::new(0);
        let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let mut batch = vec![SweepCell::new("t/boom", "k/boom", || {
            ran2.fetch_add(1, Ordering::Relaxed);
            stats(99)
        })];
        batch.extend(cells(4, &ran2));
        let out = session.run_cells(batch);
        assert_eq!(out.len(), 5);
        assert_eq!(ran2.load(Ordering::Relaxed), 1, "only the fixed cell runs");
        assert_eq!(session.count(CellOutcome::Resumed), 4);
    }

    #[test]
    fn injected_fault_takes_the_failure_path() {
        let ran = AtomicUsize::new(0);
        let session = SweepSession::serial().with_fault("t/02");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_cells(cells(4, &ran))
        }));
        assert!(err.is_err());
        assert_eq!(session.count(CellOutcome::Failed), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "non-matching cells ran");
    }

    #[test]
    fn report_covers_all_batches() {
        let session = SweepSession::serial();
        session.run_cells(vec![SweepCell::new("a/1", "k/1", || stats(1))]);
        session.run_cells(vec![SweepCell::new("b/1", "k/2", || stats(2))]);
        let report = session.finish().unwrap();
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.count(CellOutcome::Executed), 2);
    }
}
