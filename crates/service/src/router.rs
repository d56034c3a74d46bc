//! Endpoint dispatch and the shared daemon state.
//!
//! [`ServiceState`] owns everything the endpoints touch — the admission
//! queue, the coalescer, the metrics block, and the sweep registry — and
//! [`ServiceState::handle`] maps `(method, path, body)` to a [`Response`].
//! The server module is a thin transport around this, which is what makes
//! the daemon testable without sockets.
//!
//! Endpoints:
//!
//! * `POST /v1/sweeps` — submit a sweep; `202` with a sweep id, `400` on
//!   validation errors, `429` + `Retry-After` when the queue is full,
//!   `503` while draining.
//! * `GET /v1/sweeps/{id}` — per-cell status for one submission.
//! * `GET /v1/healthz` — liveness.
//! * `GET /v1/metrics` — Prometheus text exposition.
//! * `POST /v1/shutdown` — request a graceful drain (the portable
//!   stand-in for SIGTERM; tests and the CI smoke job use it).

use crate::coalesce::{Admission, CellJob, Coalescer, JobState};
use crate::json::{encode, error_body, object, parse_submit, string};
use crate::metrics::{Gauges, Metrics};
use crate::queue::{BoundedQueue, PushError};
use crate::CellRunner;
use popt_harness::json::Value;
use popt_harness::pool::panic_message;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// An HTTP response, transport-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Retry-After` header (seconds), set on `429`.
    pub retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
            retry_after: None,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Response::json(status, error_body(message))
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// One registered submission: the cells it subscribed to (possibly shared
/// with other sweeps via coalescing).
#[derive(Debug)]
struct Sweep {
    scale: String,
    cells: Vec<(String, Arc<CellJob>)>,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the endpoints and workers share.
pub struct ServiceState {
    runner: Arc<dyn CellRunner>,
    queue: BoundedQueue<Arc<CellJob>>,
    coalescer: Coalescer,
    metrics: Metrics,
    sweeps: Mutex<BTreeMap<String, Sweep>>,
    next_sweep: AtomicU64,
    /// Serializes admission so a coalescer rollback after a full queue
    /// cannot race a concurrent submit that joined the doomed jobs.
    submit_lock: Mutex<()>,
    shutdown: AtomicBool,
}

impl ServiceState {
    /// Fresh state around `runner` with the given queue capacity.
    pub fn new(runner: Arc<dyn CellRunner>, queue_depth: usize) -> Self {
        ServiceState {
            runner,
            queue: BoundedQueue::new(queue_depth),
            coalescer: Coalescer::new(),
            metrics: Metrics::new(),
            sweeps: Mutex::new(BTreeMap::new()),
            next_sweep: AtomicU64::new(0),
            submit_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The admission queue (workers pop from it; the server closes it).
    pub fn queue(&self) -> &BoundedQueue<Arc<CellJob>> {
        &self.queue
    }

    /// Whether a graceful shutdown has been requested via the API.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown (also used by the SIGTERM handler).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Total submissions that joined an in-flight cell.
    pub fn coalesced_total(&self) -> u64 {
        self.coalescer.coalesced_total()
    }

    /// Dispatches one request.
    pub fn handle(&self, method: &str, path: &str, body: &str) -> Response {
        match (method, path) {
            ("POST", "/v1/sweeps") => self.submit(body),
            ("GET", "/v1/healthz") => self.healthz(),
            ("GET", "/v1/metrics") => self.metrics_text(),
            ("POST", "/v1/shutdown") => {
                self.request_shutdown();
                Response::json(200, encode(&object([("status", string("draining"))])))
            }
            ("GET", p) => match p.strip_prefix("/v1/sweeps/") {
                Some(id) if !id.is_empty() && !id.contains('/') => self.status(id),
                _ => Response::error(404, "no such endpoint"),
            },
            (_, "/v1/sweeps" | "/v1/healthz" | "/v1/metrics" | "/v1/shutdown") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "no such endpoint"),
        }
    }

    fn healthz(&self) -> Response {
        let status = if self.shutdown_requested() || self.queue.is_closed() {
            "draining"
        } else {
            "ok"
        };
        Response::json(200, encode(&object([("status", string(status))])))
    }

    fn metrics_text(&self) -> Response {
        let gauges = Gauges {
            queue_depth: self.queue.depth() as u64,
            queue_capacity: self.queue.capacity() as u64,
            inflight: self.coalescer.inflight() as u64,
        };
        let text = self.metrics.render(
            gauges,
            self.runner.cache_counters(),
            self.coalescer.coalesced_total(),
        );
        Response::text(200, text)
    }

    fn submit(&self, body: &str) -> Response {
        let request = match parse_submit(body) {
            Ok(r) => r,
            Err(msg) => {
                Metrics::bump(&self.metrics.rejected_invalid);
                return Response::error(400, &msg);
            }
        };
        // Validate every cell before admitting any: a sweep with one
        // unknown experiment is rejected whole.
        let mut descriptors = Vec::with_capacity(request.experiments.len());
        for experiment in &request.experiments {
            match self.runner.descriptor(experiment, &request.scale) {
                Ok(d) => descriptors.push(d),
                Err(msg) => {
                    Metrics::bump(&self.metrics.rejected_invalid);
                    return Response::error(400, &msg);
                }
            }
        }
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));

        let guard = relock(&self.submit_lock);
        let mut cells = Vec::with_capacity(descriptors.len());
        let mut fresh = Vec::new();
        for (experiment, descriptor) in request.experiments.iter().zip(descriptors) {
            let job = CellJob::new(
                experiment.clone(),
                request.scale.clone(),
                descriptor,
                deadline,
            );
            let job = match self.coalescer.admit(job) {
                Admission::New(job) => {
                    fresh.push(Arc::clone(&job));
                    job
                }
                Admission::Coalesced(job) => job,
            };
            cells.push((experiment.clone(), job));
        }
        if let Err(err) = self
            .queue
            .try_push_all(fresh.iter().map(Arc::clone).collect())
        {
            // Roll back only the jobs this submission introduced; cells it
            // merely joined stay in flight for their original subscribers.
            for job in &fresh {
                self.coalescer.retire(job.hash());
            }
            drop(guard);
            return match err {
                PushError::Full => {
                    Metrics::bump(&self.metrics.rejected_full);
                    let mut shed = Response::error(429, "admission queue full; retry later");
                    shed.retry_after = Some(1);
                    shed
                }
                PushError::Closed => Response::error(503, "daemon is draining; resubmit later"),
            };
        }
        drop(guard);

        Metrics::bump(&self.metrics.submits);
        let id = format!(
            "sw-{:06}",
            self.next_sweep.fetch_add(1, Ordering::Relaxed) + 1
        );
        let cell_count = cells.len() as u64;
        relock(&self.sweeps).insert(
            id.clone(),
            Sweep {
                scale: request.scale,
                cells,
            },
        );
        let body = object([
            ("id", string(id.clone())),
            ("status_url", string(format!("/v1/sweeps/{id}"))),
            ("cells", Value::Num(cell_count)),
        ]);
        Response::json(202, encode(&body))
    }

    fn status(&self, id: &str) -> Response {
        let sweeps = relock(&self.sweeps);
        let Some(sweep) = sweeps.get(id) else {
            return Response::error(404, "unknown sweep id");
        };
        let mut overall = "done";
        let mut cells = Vec::with_capacity(sweep.cells.len());
        for (experiment, job) in &sweep.cells {
            let state = job.state();
            let mut fields = vec![
                ("experiment", string(experiment.clone())),
                ("descriptor", string(job.descriptor())),
                ("state", string(state.label())),
            ];
            match &state {
                JobState::Done(summary) => {
                    fields.push(("executed", Value::Num(summary.executed)));
                    fields.push(("resumed", Value::Num(summary.resumed)));
                    fields.push(("shared", Value::Num(summary.shared)));
                }
                JobState::Failed(msg) => fields.push(("error", string(msg.clone()))),
                JobState::Queued | JobState::Running => {}
            }
            match (&state, overall) {
                (JobState::Failed(_), _) => overall = "failed",
                (JobState::Queued | JobState::Running, "done") => overall = "running",
                _ => {}
            }
            cells.push(Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ));
        }
        let body = object([
            ("id", string(id)),
            ("scale", string(sweep.scale.clone())),
            ("state", string(overall)),
            ("cells", Value::Array(cells)),
        ]);
        Response::json(200, encode(&body))
    }

    /// Executes one dequeued job to a terminal state. Called by the
    /// worker threads; a panicking runner marks the job failed instead of
    /// unwinding into the pool.
    pub fn execute(&self, job: &Arc<CellJob>) {
        if job.expired(Instant::now()) {
            job.set_state(JobState::Failed(
                "deadline exceeded before execution".into(),
            ));
            Metrics::bump(&self.metrics.cells_expired);
            self.coalescer.retire(job.hash());
            return;
        }
        job.set_state(JobState::Running);
        let started = Instant::now();
        let runner = Arc::clone(&self.runner);
        let (experiment, scale) = (job.experiment().to_string(), job.scale().to_string());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            runner.run(&experiment, &scale)
        }));
        self.metrics.observe_latency(started.elapsed());
        let next = match outcome {
            Ok(Ok(summary)) => {
                Metrics::bump(&self.metrics.cells_completed);
                self.metrics.count_streams(&summary);
                JobState::Done(summary)
            }
            Ok(Err(msg)) => {
                Metrics::bump(&self.metrics.cells_failed);
                JobState::Failed(msg)
            }
            Err(payload) => {
                Metrics::bump(&self.metrics.cells_failed);
                JobState::Failed(format!("runner panicked: {}", panic_message(&*payload)))
            }
        };
        job.set_state(next);
        self.coalescer.retire(job.hash());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellSummary;
    use popt_harness::CacheCounters;

    /// A runner that knows two experiments and can be told to fail or
    /// panic per experiment name.
    struct StubRunner;

    impl CellRunner for StubRunner {
        fn descriptor(&self, experiment: &str, scale: &str) -> Result<String, String> {
            match experiment {
                "fig2" | "fig7" | "boom" | "panic" => Ok(format!("cell/v1/{experiment}/{scale}")),
                other => Err(format!("unknown experiment {other:?}")),
            }
        }

        fn run(&self, experiment: &str, _scale: &str) -> Result<CellSummary, String> {
            match experiment {
                "boom" => Err("runner exploded".into()),
                "panic" => panic!("stub panic"),
                _ => Ok(CellSummary {
                    executed: 2,
                    resumed: 0,
                    shared: 0,
                    streams_recorded: 1,
                    streams_replayed: 2,
                }),
            }
        }

        fn cache_counters(&self) -> CacheCounters {
            CacheCounters {
                graph_hits: 1,
                graph_builds: 2,
                matrix_hits: 3,
                matrix_builds: 4,
            }
        }
    }

    fn state(depth: usize) -> ServiceState {
        ServiceState::new(Arc::new(StubRunner), depth)
    }

    fn drain_and_execute(s: &ServiceState) {
        // Single-threaded: pop only while items are visibly queued, so
        // the blocking pop never actually blocks.
        while s.queue.depth() > 0 {
            if let Some(job) = s.queue.pop() {
                s.execute(&job);
            }
        }
    }

    #[test]
    fn submit_then_status_reaches_done() {
        let s = state(8);
        let r = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\",\"fig7\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(r.status, 202, "{}", r.body);
        assert!(r.body.contains("\"id\":\"sw-000001\""), "{}", r.body);
        drain_and_execute(&s);
        let st = s.handle("GET", "/v1/sweeps/sw-000001", "");
        assert_eq!(st.status, 200);
        assert!(st.body.contains("\"state\":\"done\""), "{}", st.body);
        assert!(st.body.contains("\"executed\":2"), "{}", st.body);
    }

    #[test]
    fn duplicate_cells_coalesce_to_one_queued_job() {
        let s = state(8);
        for _ in 0..4 {
            let r = s.handle(
                "POST",
                "/v1/sweeps",
                "{\"experiments\":[\"fig2\"],\"scale\":\"tiny\"}",
            );
            assert_eq!(r.status, 202);
        }
        assert_eq!(s.queue.depth(), 1, "one simulation for four clients");
        assert_eq!(s.coalesced_total(), 3, "N clients, N-1 coalesced");
        drain_and_execute(&s);
        for id in ["sw-000001", "sw-000004"] {
            let st = s.handle("GET", &format!("/v1/sweeps/{id}"), "");
            assert!(st.body.contains("\"state\":\"done\""), "{id}: {}", st.body);
        }
    }

    #[test]
    fn full_queue_sheds_with_429_and_retry_after() {
        let s = state(1);
        assert_eq!(
            s.handle(
                "POST",
                "/v1/sweeps",
                "{\"experiments\":[\"fig2\"],\"scale\":\"tiny\"}",
            )
            .status,
            202
        );
        let shed = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig7\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(shed.status, 429);
        assert_eq!(shed.retry_after, Some(1));
        // The shed sweep's job was rolled back, so once the queue drains
        // the identical resubmission is admitted as new work.
        drain_and_execute(&s);
        let retry = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig7\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(retry.status, 202);
        let metrics = s.handle("GET", "/v1/metrics", "").body;
        assert!(
            metrics.contains("popt_rejected_total{reason=\"queue_full\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn shed_submission_preserves_joined_cells() {
        let s = state(1);
        s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\"],\"scale\":\"tiny\"}",
        );
        // Joins fig2 (coalesced) but introduces fig7, which does not fit.
        let shed = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\",\"fig7\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(shed.status, 429);
        assert_eq!(s.coalescer.inflight(), 1, "fig2 still in flight");
        drain_and_execute(&s);
        let st = s.handle("GET", "/v1/sweeps/sw-000001", "");
        assert!(st.body.contains("\"state\":\"done\""), "{}", st.body);
    }

    #[test]
    fn invalid_submissions_get_400_and_count() {
        let s = state(8);
        assert_eq!(s.handle("POST", "/v1/sweeps", "nope").status, 400);
        let r = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"mystery\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(r.status, 400);
        assert!(r.body.contains("unknown experiment"), "{}", r.body);
        let metrics = s.handle("GET", "/v1/metrics", "").body;
        assert!(
            metrics.contains("popt_rejected_total{reason=\"invalid\"} 2"),
            "{metrics}"
        );
    }

    #[test]
    fn failed_and_panicking_cells_report_failed() {
        let s = state(8);
        s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"boom\",\"panic\",\"fig2\"],\"scale\":\"tiny\"}",
        );
        drain_and_execute(&s);
        let st = s.handle("GET", "/v1/sweeps/sw-000001", "").body;
        assert!(st.contains("\"state\":\"failed\""), "{st}");
        assert!(st.contains("runner exploded"), "{st}");
        assert!(st.contains("runner panicked: stub panic"), "{st}");
        assert!(
            st.contains("\"executed\":2"),
            "healthy cell still ran: {st}"
        );
        let metrics = s.handle("GET", "/v1/metrics", "").body;
        assert!(
            metrics.contains("popt_cells_total{outcome=\"failed\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("popt_cells_total{outcome=\"completed\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn expired_deadline_skips_execution() {
        let s = state(8);
        s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\"],\"scale\":\"tiny\",\"deadline_ms\":0}",
        );
        std::thread::sleep(Duration::from_millis(5));
        drain_and_execute(&s);
        let st = s.handle("GET", "/v1/sweeps/sw-000001", "").body;
        assert!(st.contains("deadline exceeded"), "{st}");
        let metrics = s.handle("GET", "/v1/metrics", "").body;
        assert!(
            metrics.contains("popt_cells_total{outcome=\"deadline_expired\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn healthz_reports_draining_after_shutdown() {
        let s = state(8);
        assert!(s.handle("GET", "/v1/healthz", "").body.contains("ok"));
        let r = s.handle("POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        assert!(s.shutdown_requested());
        assert!(s.handle("GET", "/v1/healthz", "").body.contains("draining"));
    }

    #[test]
    fn draining_daemon_rejects_submissions_with_503() {
        let s = state(8);
        s.queue.close();
        let r = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(r.status, 503);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = state(8);
        assert_eq!(s.handle("GET", "/v1/nope", "").status, 404);
        assert_eq!(s.handle("GET", "/v1/sweeps/none", "").status, 404);
        assert_eq!(s.handle("DELETE", "/v1/healthz", "").status, 405);
        assert_eq!(s.handle("GET", "/v1/sweeps/a/b", "").status, 404);
    }

    #[test]
    fn metrics_expose_cache_counters() {
        let s = state(8);
        let body = s.handle("GET", "/v1/metrics", "").body;
        assert!(
            body.contains("popt_cache_requests_total{kind=\"matrix\",outcome=\"build\"} 4"),
            "{body}"
        );
        assert!(body.contains("popt_queue_capacity 8"), "{body}");
    }

    #[test]
    fn metrics_sum_the_completed_cells_stream_counts() {
        let s = state(8);
        let r = s.handle(
            "POST",
            "/v1/sweeps",
            "{\"experiments\":[\"fig2\",\"fig7\",\"boom\"],\"scale\":\"tiny\"}",
        );
        assert_eq!(r.status, 202, "{}", r.body);
        drain_and_execute(&s);
        let body = s.handle("GET", "/v1/metrics", "").body;
        // Two completed cells of one recording and two replays each; the
        // failed one reports nothing.
        for needle in [
            "popt_llc_streams_total{kind=\"recorded\"} 2",
            "popt_llc_streams_total{kind=\"replayed\"} 4",
        ] {
            assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
        }
    }
}
