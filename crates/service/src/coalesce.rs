//! In-flight request coalescing.
//!
//! Cells are identified by the same stable content hash the artifact
//! cache uses ([`popt_harness::hash::hash_str`] over a canonical,
//! versioned descriptor). While a cell is queued or running, every
//! further submission of the same descriptor *joins* the existing job
//! instead of enqueuing a duplicate — N clients, one simulation. A
//! finished job leaves the in-flight map; resubmitting it later starts a
//! fresh run (which replays from the resume manifest, so it is cheap).
//!
//! Hot-path scope: locks recover from poisoning, nothing here panics.

use popt_harness::hash::hash_str;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What a completed cell reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellSummary {
    /// Harness cells simulated in this run.
    pub executed: u64,
    /// Harness cells replayed from the resume manifest.
    pub resumed: u64,
    /// Harness cells that took the stats of an equal cell of this run.
    pub shared: u64,
    /// LLC streams recorded (kernel + L1/L2 passes run).
    pub streams_recorded: u64,
    /// LLC replays run, one per executed cell.
    pub streams_replayed: u64,
}

/// Lifecycle of one coalesced cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in the bounded queue.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished successfully.
    Done(CellSummary),
    /// The runner failed or the deadline expired before execution.
    Failed(String),
}

impl JobState {
    /// The stable state label used in status responses.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// One coalesced unit of work, shared between every sweep that submitted
/// it and the worker executing it.
#[derive(Debug)]
pub struct CellJob {
    experiment: String,
    scale: String,
    descriptor: String,
    hash: u64,
    state: Mutex<JobState>,
    /// Latest deadline across all subscribers; `None` = unbounded.
    deadline: Mutex<Option<Instant>>,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CellJob {
    /// A fresh queued job for `descriptor` (hashed here, once).
    pub fn new(
        experiment: impl Into<String>,
        scale: impl Into<String>,
        descriptor: impl Into<String>,
        deadline: Option<Instant>,
    ) -> Arc<Self> {
        let descriptor = descriptor.into();
        let hash = hash_str(&descriptor);
        Arc::new(CellJob {
            experiment: experiment.into(),
            scale: scale.into(),
            descriptor,
            hash,
            state: Mutex::new(JobState::Queued),
            deadline: Mutex::new(deadline),
        })
    }

    /// The experiment name the runner receives.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The scale name the runner receives.
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// The canonical versioned descriptor (the coalescing identity).
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The descriptor's stable content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// A snapshot of the current state.
    pub fn state(&self) -> JobState {
        relock(&self.state).clone()
    }

    /// Transitions the job (workers only).
    pub fn set_state(&self, next: JobState) {
        *relock(&self.state) = next;
    }

    /// Extends the deadline when a new subscriber joins: the job must
    /// survive long enough for its most patient requester, so `None`
    /// (unbounded) wins and otherwise the later instant does.
    pub fn extend_deadline(&self, other: Option<Instant>) {
        let mut deadline = relock(&self.deadline);
        *deadline = match (*deadline, other) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
    }

    /// Whether the deadline passed before `now` (an expired job is
    /// skipped at dequeue and reported failed).
    pub fn expired(&self, now: Instant) -> bool {
        relock(&self.deadline).is_some_and(|d| d < now)
    }
}

/// What admission decided for one requested cell.
#[derive(Debug)]
pub enum Admission {
    /// No identical cell is in flight; the caller must enqueue this job.
    New(Arc<CellJob>),
    /// Joined an identical in-flight cell; nothing to enqueue.
    Coalesced(Arc<CellJob>),
}

/// The in-flight registry keyed by descriptor hash.
#[derive(Debug, Default)]
pub struct Coalescer {
    inflight: Mutex<BTreeMap<u64, Arc<CellJob>>>,
    coalesced: AtomicU64,
}

impl Coalescer {
    /// An empty registry.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Admits a prospective job: returns the identical in-flight job if
    /// one exists (extending its deadline to cover the newcomer), else
    /// registers `job` as in flight.
    pub fn admit(&self, job: Arc<CellJob>) -> Admission {
        let mut inflight = relock(&self.inflight);
        if let Some(existing) = inflight.get(&job.hash()) {
            let existing = Arc::clone(existing);
            drop(inflight);
            existing.extend_deadline(*relock(&job.deadline));
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Admission::Coalesced(existing);
        }
        inflight.insert(job.hash(), Arc::clone(&job));
        Admission::New(job)
    }

    /// Removes a job from the in-flight map (after it reached a terminal
    /// state, or to roll back an admission whose enqueue was rejected).
    pub fn retire(&self, hash: u64) {
        relock(&self.inflight).remove(&hash);
    }

    /// Jobs currently queued or running.
    pub fn inflight(&self) -> usize {
        relock(&self.inflight).len()
    }

    /// Total submissions that joined an existing in-flight cell.
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(desc: &str) -> Arc<CellJob> {
        CellJob::new("fig2", "tiny", desc, None)
    }

    #[test]
    fn identical_descriptors_coalesce() {
        let c = Coalescer::new();
        let first = match c.admit(job("cell/v1/fig2/tiny")) {
            Admission::New(j) => j,
            Admission::Coalesced(_) => unreachable!("empty registry"),
        };
        let second = match c.admit(job("cell/v1/fig2/tiny")) {
            Admission::Coalesced(j) => j,
            Admission::New(_) => unreachable!("must coalesce"),
        };
        assert!(Arc::ptr_eq(&first, &second), "one shared job");
        assert_eq!(c.coalesced_total(), 1);
        assert_eq!(c.inflight(), 1);
    }

    #[test]
    fn distinct_descriptors_do_not_coalesce() {
        let c = Coalescer::new();
        c.admit(job("cell/v1/fig2/tiny"));
        match c.admit(job("cell/v1/fig7/tiny")) {
            Admission::New(_) => {}
            Admission::Coalesced(_) => unreachable!("different cells"),
        }
        assert_eq!(c.coalesced_total(), 0);
        assert_eq!(c.inflight(), 2);
    }

    #[test]
    fn retired_jobs_admit_fresh_runs() {
        let c = Coalescer::new();
        let j = job("cell/v1/fig2/tiny");
        let hash = j.hash();
        c.admit(j);
        c.retire(hash);
        assert_eq!(c.inflight(), 0);
        match c.admit(job("cell/v1/fig2/tiny")) {
            Admission::New(_) => {}
            Admission::Coalesced(_) => unreachable!("previous run retired"),
        }
    }

    #[test]
    fn coalescing_extends_the_deadline() {
        let c = Coalescer::new();
        let now = Instant::now();
        let early = CellJob::new("fig2", "tiny", "d", Some(now));
        c.admit(Arc::clone(&early));
        // A more patient subscriber joins: the job must outlive it.
        let late = CellJob::new("fig2", "tiny", "d", Some(now + Duration::from_secs(3600)));
        c.admit(late);
        assert!(
            !early.expired(now + Duration::from_secs(60)),
            "deadline extended past the early subscriber's"
        );
        // An unbounded subscriber makes the job unbounded.
        c.admit(CellJob::new("fig2", "tiny", "d", None));
        assert!(!early.expired(now + Duration::from_secs(1 << 20)));
    }

    #[test]
    fn expiry_is_checked_against_the_latest_deadline() {
        let now = Instant::now();
        let j = CellJob::new("fig2", "tiny", "d", Some(now));
        assert!(j.expired(now + Duration::from_millis(1)));
        assert!(!j.expired(now));
        let unbounded = CellJob::new("fig2", "tiny", "d", None);
        assert!(!unbounded.expired(now + Duration::from_secs(1 << 20)));
    }

    #[test]
    fn state_transitions_and_labels() {
        let j = job("d");
        assert_eq!(j.state().label(), "queued");
        assert!(!j.state().is_terminal());
        j.set_state(JobState::Running);
        assert_eq!(j.state().label(), "running");
        j.set_state(JobState::Done(CellSummary {
            executed: 3,
            resumed: 1,
            ..CellSummary::default()
        }));
        assert!(j.state().is_terminal());
        j.set_state(JobState::Failed("boom".into()));
        assert_eq!(j.state().label(), "failed");
    }
}
