//! End-to-end daemon acceptance: sweeps submitted over loopback produce
//! result CSVs byte-identical to the offline `experiments sweep`, and a
//! restarted daemon resumes from its manifests instead of re-simulating.

use popt_cli::exec::StreamCounters;
use popt_cli::serve::ExperimentCellRunner;
use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use popt_harness::ArtifactCache;
use popt_service::{client, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/popt-cli-test/service")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(out: &Path, jobs: usize) -> Service {
    let cache = Arc::new(ArtifactCache::open(out.join("cache")).unwrap());
    let runner = Arc::new(ExperimentCellRunner::new(out.to_path_buf(), cache, None));
    Service::start(
        runner,
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            queue_depth: 16,
        },
    )
    .expect("bind loopback")
}

/// Figure CSVs keyed by file name (the comparable sweep output).
fn result_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name.ends_with(".csv") && !name.starts_with("sweep_report") {
            out.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    out
}

#[test]
fn daemon_sweep_matches_offline_sweep_byte_for_byte() {
    let selection = ["fig2", "fig7"];
    // Offline reference: one sweep per experiment, as the daemon runs one
    // session per request (a single sweep of both would share fig7's DRRIP
    // cells with fig2's).
    let offline = scratch("offline");
    let mut streams = StreamCounters::default();
    for experiment in selection {
        let summary = run_sweep(&SweepOptions {
            scale: Scale::Tiny,
            jobs: 2,
            out: offline.clone(),
            only: vec![experiment.to_string()],
            inject_fail: None,
        })
        .unwrap();
        streams.recorded += summary.streams.recorded;
        streams.replayed += summary.streams.replayed;
    }

    // The same selection through the daemon.
    let served = scratch("daemon");
    let service = start_daemon(&served, 2);
    let addr = service.local_addr();

    let health = client::request(addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    let accepted = client::submit(
        addr,
        &selection.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "tiny",
        None,
    )
    .unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = client::sweep_id(&accepted).unwrap();
    let outcome = client::wait_sweep(addr, &id, Duration::from_secs(300)).unwrap();
    assert!(
        outcome.body.contains("\"state\":\"done\""),
        "{}",
        outcome.body
    );

    let m = client::request(addr, "GET", "/v1/metrics", None)
        .unwrap()
        .body;
    for family in [
        "popt_queue_depth",
        "popt_queue_capacity 16",
        "popt_inflight_cells",
        "popt_cells_total{outcome=\"completed\"} 2",
        "popt_cache_requests_total{kind=\"matrix\",outcome=\"build\"}",
        "popt_cell_latency_seconds_count 2",
    ] {
        assert!(m.contains(family), "missing {family} in:\n{m}");
    }
    // The daemon's cells share LLC streams exactly as the offline sweeps'
    // do: fewer kernel + L1/L2 passes than cells.
    assert!(
        0 < streams.recorded && streams.recorded < streams.replayed,
        "{streams:?}"
    );
    for family in [
        format!(
            "popt_llc_streams_total{{kind=\"recorded\"}} {}",
            streams.recorded
        ),
        format!(
            "popt_llc_streams_total{{kind=\"replayed\"}} {}",
            streams.replayed
        ),
    ] {
        assert!(m.contains(&family), "missing {family} in:\n{m}");
    }

    let reference = result_csvs(&offline);
    let produced = result_csvs(&served);
    assert!(!reference.is_empty());
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        produced.keys().collect::<Vec<_>>(),
        "same result files"
    );
    for (name, bytes) in &reference {
        assert_eq!(
            bytes, &produced[name],
            "{name} from the daemon must match the offline sweep byte-for-byte"
        );
    }

    service.shutdown().expect("graceful shutdown");

    // A restarted daemon on the same output directory resumes from the
    // per-cell manifests: resubmitting simulates nothing.
    let service = start_daemon(&served, 2);
    let addr = service.local_addr();
    let again = client::submit(addr, &["fig2".to_string()], "tiny", None).unwrap();
    assert_eq!(again.status, 202);
    let id = client::sweep_id(&again).unwrap();
    let outcome = client::wait_sweep(addr, &id, Duration::from_secs(300)).unwrap();
    assert!(
        outcome.body.contains("\"executed\":0"),
        "restart resumes instead of re-simulating: {}",
        outcome.body
    );
    assert!(
        outcome.body.contains("\"state\":\"done\""),
        "{}",
        outcome.body
    );
    service.shutdown().expect("second shutdown");
}

#[test]
fn daemon_reports_failed_cells_without_dying() {
    let out = scratch("failing");
    let cache = Arc::new(ArtifactCache::open(out.join("cache")).unwrap());
    // Inject a fault into fig2's urand cells: the daemon must survive,
    // report the cell failed, and keep serving.
    let runner = Arc::new(ExperimentCellRunner::new(
        out.clone(),
        cache,
        Some("fig2/tiny/urand".to_string()),
    ));
    let service = Service::start(
        runner,
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_depth: 16,
        },
    )
    .unwrap();
    let addr = service.local_addr();

    let accepted = client::submit(addr, &["fig2".to_string()], "tiny", None).unwrap();
    let id = client::sweep_id(&accepted).unwrap();
    let outcome = client::wait_sweep(addr, &id, Duration::from_secs(300)).unwrap();
    assert!(
        outcome.body.contains("\"state\":\"failed\""),
        "{}",
        outcome.body
    );
    assert!(
        client::request(addr, "GET", "/v1/healthz", None)
            .unwrap()
            .body
            .contains("\"status\":\"ok\""),
        "daemon survives a failing cell"
    );
    let m = client::request(addr, "GET", "/v1/metrics", None)
        .unwrap()
        .body;
    assert!(m.contains("popt_cells_total{outcome=\"failed\"} 1"), "{m}");
    service.shutdown().unwrap();
}
