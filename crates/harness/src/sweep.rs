//! The sweep session: cells in, deterministic results out.
//!
//! A [`SweepSession`] owns the run-wide pieces — thread budget, the
//! optional resume journal, and the per-cell metric log — while each
//! experiment driver submits batches of [`SweepCell`]s and receives their
//! stats back **in submission order**, whatever the scheduler did. That
//! ordering contract is what lets the drivers build their result tables
//! exactly as the old serial loops did, byte for byte.

use crate::manifest::Manifest;
use crate::pool::{run_jobs, Job};
use crate::report::{CellMetric, CellOutcome, SweepReport};
use popt_sim::HierarchyStats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// One schedulable unit: a uniquely-named simulation closure.
pub struct SweepCell<'env> {
    id: String,
    group: Option<u64>,
    run: Box<dyn FnOnce() -> HierarchyStats + Send + 'env>,
}

impl<'env> SweepCell<'env> {
    /// Wraps a simulation closure under a sweep-unique cell id (the
    /// convention is `{experiment}/{scale}/{graph}/{policy}`).
    pub fn new(id: impl Into<String>, run: impl FnOnce() -> HierarchyStats + Send + 'env) -> Self {
        SweepCell {
            id: id.into(),
            group: None,
            run: Box::new(run),
        }
    }

    /// Puts the cell in scheduling group `group`: the cells of one group
    /// in a batch run back to back (see [`SweepSession::run_cells`]).
    #[must_use]
    pub fn in_group(mut self, group: u64) -> Self {
        self.group = Some(group);
        self
    }

    /// The cell id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl std::fmt::Debug for SweepCell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCell")
            .field("id", &self.id)
            .field("group", &self.group)
            .finish()
    }
}

/// A run-wide orchestration context.
#[derive(Debug)]
pub struct SweepSession {
    threads: usize,
    manifest: Option<Mutex<Manifest>>,
    metrics: Mutex<Vec<CellMetric>>,
    seen: Mutex<BTreeSet<String>>,
    fault: Option<String>,
}

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
            fault: None,
        }
    }

    /// Fault injection for failure-path tests: any cell whose id contains
    /// `pattern` panics instead of simulating, exercising the same code
    /// path as a genuine simulation panic.
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

    /// Runs a batch of cells, returning stats in submission order.
    ///
    /// Cells the journal already records are *not* re-simulated — their
    /// recorded stats are spliced into the result at the right position.
    /// The rest start in submission order, except that the cells of one
    /// [group](SweepCell::in_group) start back to back, where the group's
    /// first cell was submitted.
    ///
    /// A panicking cell no longer aborts its batch mid-flight: the panic
    /// is caught, the cell is recorded as [`CellOutcome::Failed`], and
    /// every *other* cell still runs (and journals) to completion. Only
    /// then does the batch re-raise, so a resumed sweep after a fix
    /// re-simulates nothing but the cells that actually failed.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate cell id (two distinct simulations under one
    /// id would corrupt resume), on a journal write failure, or — after
    /// the rest of the batch completed — if any cell panicked.
    pub fn run_cells(&self, cells: Vec<SweepCell<'_>>) -> Vec<HierarchyStats> {
        {
            let mut seen = self.seen.lock().expect("seen-id set");
            for cell in &cells {
                assert!(
                    seen.insert(cell.id.clone()),
                    "duplicate cell id {:?}: cell ids must be sweep-unique",
                    cell.id
                );
            }
        }
        let mut results: Vec<Option<HierarchyStats>> = Vec::with_capacity(cells.len());
        // (start rank, submission index, cell): a group starts where its
        // first cell was submitted.
        let mut pending: Vec<(usize, usize, SweepCell<'_>)> = Vec::new();
        let mut first_of_group: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let resumed = self.manifest.as_ref().and_then(|m| {
                m.lock()
                    .expect("manifest lock")
                    .completed(&cell.id)
                    .copied()
            });
            match resumed {
                Some(stats) => {
                    self.metrics
                        .lock()
                        .expect("metrics lock")
                        .push(CellMetric::new(
                            cell.id,
                            CellOutcome::Resumed,
                            std::time::Duration::ZERO,
                            &stats,
                        ));
                    results.push(Some(stats));
                }
                None => {
                    results.push(None);
                    let rank = cell
                        .group
                        .map_or(i, |g| *first_of_group.entry(g).or_insert(i));
                    pending.push((rank, i, cell));
                }
            }
        }
        pending.sort_by_key(|&(rank, ..)| rank);
        let jobs: Vec<Job<'_, (usize, Result<HierarchyStats, String>)>> = pending
            .into_iter()
            .map(|(_, i, cell)| {
                let manifest = self.manifest.as_ref();
                let metrics = &self.metrics;
                let fault = self.fault.as_deref();
                let job: Job<'_, (usize, Result<HierarchyStats, String>)> = Box::new(move || {
                    let id = cell.id.clone();
                    let started = Instant::now();
                    let run = cell.run;
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            if fault.is_some_and(|pat| id.contains(pat)) {
                                panic!("injected fault for cell {id:?}");
                            }
                            run()
                        }));
                    let wall = started.elapsed();
                    match outcome {
                        Ok(stats) => {
                            if let Some(m) = manifest {
                                m.lock()
                                    .expect("manifest lock")
                                    .record(&cell.id, stats)
                                    .expect("journal write failed; sweep is not resumable");
                            }
                            metrics.lock().expect("metrics lock").push(CellMetric::new(
                                cell.id,
                                CellOutcome::Executed,
                                wall,
                                &stats,
                            ));
                            (i, Ok(stats))
                        }
                        Err(payload) => {
                            let msg = panic_message(payload.as_ref());
                            metrics
                                .lock()
                                .expect("metrics lock")
                                .push(CellMetric::failed(cell.id.clone(), wall));
                            (i, Err(format!("{}: {msg}", cell.id)))
                        }
                    }
                });
                job
            })
            .collect();
        let mut failures: Vec<String> = Vec::new();
        for (i, outcome) in run_jobs(self.threads, jobs) {
            match outcome {
                Ok(stats) => results[i] = Some(stats),
                Err(msg) => failures.push(msg),
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

    /// Number of cells that failed (panicked) so far.
    pub fn failed(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|m| m.outcome == CellOutcome::Failed)
            .count()
    }

    /// Number of cells simulated so far (excludes journal replays).
    pub fn executed(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|m| m.outcome == CellOutcome::Executed)
            .count()
    }

    /// Number of cells replayed from the journal so far.
    pub fn resumed(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|m| m.outcome == CellOutcome::Resumed)
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
            m.lock().expect("manifest lock").canonicalize()?;
        }
        Ok(SweepReport::new(
            self.metrics.into_inner().expect("metrics lock"),
        ))
    }
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
                SweepCell::new(format!("t/{i:02}"), move || {
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
            assert_eq!(session.executed(), 9);
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
        assert_eq!(session.executed(), 0);
        assert_eq!(session.resumed(), 6);
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
        assert_eq!(session.executed(), 3);
        assert_eq!(session.resumed(), 3);
    }

    #[test]
    fn grouped_cells_run_back_to_back_in_submission_order() {
        let ran = Mutex::new(Vec::new());
        let groups = [Some(7), None, Some(3), Some(7), Some(3), None, Some(7)];
        let batch = groups
            .iter()
            .enumerate()
            .map(|(i, &group)| {
                let ran = &ran;
                let cell = SweepCell::new(format!("g/{i}"), move || {
                    ran.lock().unwrap().push(i);
                    stats(i as u64)
                });
                match group {
                    Some(g) => cell.in_group(g),
                    None => cell,
                }
            })
            .collect();
        let out = SweepSession::serial().run_cells(batch);
        assert_eq!(
            *ran.lock().unwrap(),
            [0, 3, 6, 1, 2, 4, 5],
            "each group runs where its first cell was submitted"
        );
        assert_eq!(
            out.iter().map(|s| s.instructions).collect::<Vec<_>>(),
            (0..7).collect::<Vec<u64>>()
        );
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_ids_are_rejected() {
        let session = SweepSession::serial();
        session.run_cells(vec![
            SweepCell::new("same", || stats(1)),
            SweepCell::new("same", || stats(2)),
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
            let mut batch = vec![SweepCell::new("t/boom", || panic!("injected"))];
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
            assert_eq!(session.failed(), 1);
            assert_eq!(session.executed(), 4);
        }
        // The journal carries the four completed cells: a resumed run
        // re-simulates only the fixed cell.
        let ran2 = AtomicUsize::new(0);
        let session = SweepSession::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let mut batch = vec![SweepCell::new("t/boom", || {
            ran2.fetch_add(1, Ordering::Relaxed);
            stats(99)
        })];
        batch.extend(cells(4, &ran2));
        let out = session.run_cells(batch);
        assert_eq!(out.len(), 5);
        assert_eq!(ran2.load(Ordering::Relaxed), 1, "only the fixed cell runs");
        assert_eq!(session.resumed(), 4);
    }

    #[test]
    fn injected_fault_takes_the_failure_path() {
        let ran = AtomicUsize::new(0);
        let session = SweepSession::serial().with_fault("t/02");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_cells(cells(4, &ran))
        }));
        assert!(err.is_err());
        assert_eq!(session.failed(), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "non-matching cells ran");
    }

    #[test]
    fn report_covers_all_batches() {
        let session = SweepSession::serial();
        session.run_cells(vec![SweepCell::new("a/1", || stats(1))]);
        session.run_cells(vec![SweepCell::new("b/1", || stats(2))]);
        let report = session.finish().unwrap();
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.executed(), 2);
    }
}
