//! Loopback acceptance tests for the daemon: coalescing, load shedding,
//! and graceful drain, all over real sockets with a gated stub runner so
//! every race is controlled.

use popt_service::{client, CellRunner, CellSummary, Service, ServiceConfig};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A runner whose `"slow"` experiment blocks until the test releases it;
/// everything else completes immediately.
struct GatedRunner {
    released: Mutex<bool>,
    cv: Condvar,
}

impl GatedRunner {
    fn new() -> Arc<Self> {
        Arc::new(GatedRunner {
            released: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl CellRunner for GatedRunner {
    fn descriptor(&self, experiment: &str, scale: &str) -> Result<String, String> {
        Ok(format!("cell/v1/{experiment}/{scale}"))
    }

    fn run(&self, experiment: &str, _scale: &str) -> Result<CellSummary, String> {
        if experiment == "slow" {
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.cv.wait(released).unwrap();
            }
        }
        Ok(CellSummary {
            executed: 1,
            resumed: 0,
            ..CellSummary::default()
        })
    }
}

fn start(runner: Arc<GatedRunner>, jobs: usize, queue_depth: usize) -> Service {
    Service::start(
        runner,
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            queue_depth,
        },
    )
    .expect("bind loopback")
}

fn submit_one(addr: std::net::SocketAddr, experiment: &str) -> client::ClientResponse {
    client::submit(addr, &[experiment.to_string()], "tiny", None).expect("submit")
}

fn metrics(addr: std::net::SocketAddr) -> String {
    client::request(addr, "GET", "/v1/metrics", None)
        .expect("metrics")
        .body
}

/// Polls until the named sweep's body satisfies `pred`.
fn wait_for(addr: std::net::SocketAddr, path: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = client::request(addr, "GET", path, None).expect("poll").body;
        if pred(&body) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out polling {path}: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_duplicate_submissions_run_one_simulation() {
    let runner = GatedRunner::new();
    let service = start(Arc::clone(&runner), 1, 16);
    let addr = service.local_addr();

    // First client: the worker picks the cell up and blocks on the gate.
    assert_eq!(submit_one(addr, "slow").status, 202);
    // Three more clients for the identical cell while it is in flight.
    for _ in 0..3 {
        assert_eq!(submit_one(addr, "slow").status, 202);
    }
    let m = metrics(addr);
    assert!(m.contains("popt_coalesced_total 3"), "N-1 coalesced: {m}");
    assert!(
        m.contains("popt_inflight_cells 1"),
        "one simulation for four clients: {m}"
    );

    runner.release();
    for id in ["sw-000001", "sw-000002", "sw-000003", "sw-000004"] {
        let body = wait_for(addr, &format!("/v1/sweeps/{id}"), |b| {
            b.contains("\"state\":\"done\"")
        });
        assert!(body.contains("\"executed\":1"), "{body}");
    }
    let m = metrics(addr);
    assert!(
        m.contains("popt_cells_total{outcome=\"completed\"} 1"),
        "exactly one execution: {m}"
    );
    assert!(m.contains("popt_submits_total 4"), "{m}");
    service.shutdown().unwrap();
}

#[test]
fn full_queue_sheds_429_then_drains_and_accepts_again() {
    let runner = GatedRunner::new();
    let service = start(Arc::clone(&runner), 1, 1);
    let addr = service.local_addr();

    // Occupy the single worker and wait until the cell left the queue.
    assert_eq!(submit_one(addr, "slow").status, 202);
    wait_for(addr, "/v1/sweeps/sw-000001", |b| {
        b.contains("\"state\":\"running\"")
    });
    // Fill the queue (capacity 1), then overflow it.
    assert_eq!(submit_one(addr, "a").status, 202);
    let shed = submit_one(addr, "b");
    assert_eq!(shed.status, 429);
    assert_eq!(shed.retry_after, Some(1), "429 carries Retry-After");
    let m = metrics(addr);
    assert!(
        m.contains("popt_rejected_total{reason=\"queue_full\"} 1"),
        "{m}"
    );
    assert!(m.contains("popt_queue_depth 1"), "{m}");

    // Releasing the gate drains the queue; the retried submission lands.
    runner.release();
    wait_for(addr, "/v1/sweeps/sw-000002", |b| {
        b.contains("\"state\":\"done\"")
    });
    let retry = submit_one(addr, "b");
    assert_eq!(retry.status, 202, "drained queue admits the retry");
    let id = client::sweep_id(&retry).unwrap();
    client::wait_sweep(addr, &id, Duration::from_secs(30)).unwrap();
    service.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_drains_the_backlog() {
    let runner = GatedRunner::new();
    let service = start(Arc::clone(&runner), 1, 8);
    let addr = service.local_addr();
    let state = Arc::clone(service.state());

    // A held cell plus a backlog of three fast ones.
    assert_eq!(submit_one(addr, "slow").status, 202);
    let backlog = client::submit(
        addr,
        &["a".to_string(), "b".to_string(), "c".to_string()],
        "tiny",
        None,
    )
    .unwrap();
    assert_eq!(backlog.status, 202);

    // Request a drain over the API, then let the worker finish.
    let r = client::request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    runner.release();
    service.run().expect("drain exits cleanly");

    // Every queued cell finished before exit: that is the drain contract.
    let status = state.handle("GET", "/v1/sweeps/sw-000002", "");
    assert!(
        status.body.contains("\"state\":\"done\""),
        "backlog drained: {}",
        status.body
    );
    assert_eq!(state.queue().depth(), 0);
}
