//! The three workloads. Each builds its inputs from the seed, sets up
//! at least [`SETUPS`] times, runs one untimed warm-up operation,
//! measures, and checks every output it produced against a reference.
//! The daemon's suite graphs are fixed, so there the seed only orders the
//! experiments.
//!
//! * `policy-zoo` — one operation is a full policy row: PageRank on a
//!   seeded Kronecker graph under all eleven baselines, Belady, T-OPT and
//!   P-OPT, each through the production cell path. Stresses the
//!   simulator's policy hot path and the L1/L2 work every cell repeats.
//! * `cold-popt` — one operation is a P-OPT cell for each of the five
//!   kernels with no artifact cache, so every Rereference Matrix is built
//!   from scratch. Stresses popt-core preprocessing and the P-OPT policy.
//! * `daemon` — one closed-loop client sends single-experiment sweeps, in
//!   a seeded order cycling through the registry, to an in-process
//!   popt-service daemon whose artifact cache is warm but whose resume
//!   journals are cleared before each request, so every request simulates
//!   its cells again. One operation is one request, from submission until
//!   its status reads terminal. Stresses the service's request path, the
//!   cell runner with its trace replay, and the daemon-wide artifact
//!   cache. The daemon runs one worker, so a request never waits on a
//!   core that another tenant of a small host holds.

use crate::{calib, layers, measure, Args, Report, SplitMix, Timings, SETUPS, SETUP_SPAN};
use popt_cli::experiments::EXPERIMENTS;
use popt_cli::runner::{simulate, PolicySpec};
use popt_cli::serve::ExperimentCellRunner;
use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use popt_graph::generators::{rmat, RmatParams};
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_graph::Graph;
use popt_harness::json::Value;
use popt_harness::ArtifactCache;
use popt_kernels::App;
use popt_service::{client, Service, ServiceConfig};
use popt_sim::{HierarchyConfig, HierarchyStats, PolicyKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First argument of the hidden child mode that runs one sweep.
pub const SWEEP_CHILD: &str = "--sweep-child";

/// Status poll interval of the daemon client.
const POLL: Duration = Duration::from_millis(1);

/// Longest a daemon request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// The seeded input of `policy-zoo` and `cold-popt`: a Graph500 Kronecker
/// R-MAT graph of 2^14 vertices and 8 edges per vertex, whose irregular
/// data overflows the miniature hierarchy's LLC the way the paper's
/// inputs overflow the full-size one.
fn seeded_graph(seed: u64) -> Graph {
    rmat(14, 8 << 14, RmatParams::KRONECKER, seed)
}

/// The registry's suite inputs at tiny scale, under PageRank.
fn suite_inputs() -> Vec<(App, Graph)> {
    SuiteGraph::ALL
        .iter()
        .map(|&w| (App::Pagerank, suite_graph(w, SuiteScale::Tiny)))
        .collect()
}

/// Sets up [`SETUPS`] times, and more while [`SETUP_SPAN`] has not passed,
/// with a reference run between set-ups. Returns the last result with
/// every set-up's timing.
fn set_up<T>(mut f: impl FnMut(usize) -> Result<T, String>) -> Result<(T, Timings), String> {
    let mut times = Timings::default();
    let mut last = None;
    let start = Instant::now();
    let mut before = calib::reference();
    let mut i = 0;
    while i < SETUPS || start.elapsed() < SETUP_SPAN {
        let t = Instant::now();
        last = Some(f(i)?);
        let wall = t.elapsed();
        let after = calib::reference();
        times.record(&[wall], before, after);
        before = after;
        i += 1;
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Reports a failed check on stderr and passes its verdict through.
fn check(ok: bool, what: &str) -> bool {
    if !ok {
        eprintln!("perfbench: check failed: {what}");
    }
    ok
}

/// Per-crate layer metrics when tracing, nothing otherwise.
fn maybe_probe(
    args: &Args,
    work: &Path,
    build: &dyn Fn() -> Vec<(App, Graph)>,
) -> Result<Vec<crate::Metric>, String> {
    if args.trace {
        layers::probe(build, work)
    } else {
        Ok(Vec::new())
    }
}

/// Every LLC policy of the zoo, in figure order.
fn zoo_specs() -> Vec<PolicySpec> {
    PolicyKind::ALL
        .iter()
        .map(|&k| PolicySpec::Baseline(k))
        .chain([
            PolicySpec::Belady,
            PolicySpec::Topt,
            PolicySpec::popt_default(),
        ])
        .collect()
}

/// Checks the laws every policy row obeys: private-level statistics do
/// not depend on the LLC policy, and no policy beats Belady's MIN.
fn row_laws(labels: &[String], row: &[HierarchyStats], belady: &HierarchyStats) -> bool {
    let base = &row[0];
    let mut ok = true;
    for (label, s) in labels.iter().zip(row) {
        ok &= check(
            s.l1 == base.l1 && s.l2 == base.l2 && s.instructions == base.instructions,
            &format!("{label}: private-level stats depend on the LLC policy"),
        );
        ok &= check(
            belady.llc.misses <= s.llc.misses,
            &format!("{label}: fewer LLC misses than Belady's MIN"),
        );
    }
    ok
}

pub fn policy_zoo(args: &Args, work: &Path) -> Result<Report, String> {
    let (g, setups) = set_up(|_| Ok(seeded_graph(args.seed)))?;
    let cfg = HierarchyConfig::small_test();
    let specs = zoo_specs();
    let row = || -> Vec<HierarchyStats> {
        specs
            .iter()
            .map(|s| simulate(App::Pagerank, &g, &cfg, s))
            .collect()
    };
    let reference = row();
    let (ops, failed) = measure(args.seconds, || row() == reference);

    let labels: Vec<String> = specs.iter().map(PolicySpec::label).collect();
    let belady = specs
        .iter()
        .position(|s| matches!(s, PolicySpec::Belady))
        .expect("the zoo holds Belady");
    let checks_passed = row_laws(&labels, &reference, &reference[belady]);
    let layers = maybe_probe(args, work, &|| {
        vec![(App::Pagerank, seeded_graph(args.seed))]
    })?;
    Ok(Report {
        failed,
        checks_passed,
        ops,
        setups,
        layers,
    })
}

pub fn cold_popt(args: &Args, work: &Path) -> Result<Report, String> {
    let (g, setups) = set_up(|_| Ok(seeded_graph(args.seed)))?;
    let cfg = HierarchyConfig::small_test();
    let popt = PolicySpec::popt_default();
    let row = || -> Vec<HierarchyStats> {
        App::ALL
            .iter()
            .map(|&app| simulate(app, &g, &cfg, &popt))
            .collect()
    };
    let reference = row();
    let (ops, failed) = measure(args.seconds, || row() == reference);

    let mut checks_passed = true;
    for (app, p) in App::ALL.iter().zip(&reference) {
        let lru = simulate(*app, &g, &cfg, &PolicySpec::Baseline(PolicyKind::Lru));
        let belady = simulate(*app, &g, &cfg, &PolicySpec::Belady);
        let labels = [format!("{app}/LRU"), format!("{app}/P-OPT")];
        checks_passed &= row_laws(&labels, &[lru, *p], &belady);
    }
    let layers = maybe_probe(args, work, &|| {
        let g = seeded_graph(args.seed);
        App::ALL.iter().map(|&app| (app, g.clone())).collect()
    })?;
    Ok(Report {
        failed,
        checks_passed,
        ops,
        setups,
        layers,
    })
}

/// The registry's experiment names.
fn registry_names() -> Vec<String> {
    EXPERIMENTS.iter().map(|(n, _, _)| n.to_string()).collect()
}

/// Child-process entry: `--sweep-child OUT EXP...` runs one tiny-scale
/// sweep of `EXP...` into `OUT`, exactly as `experiments sweep` does.
pub fn sweep_child(args: Vec<String>) -> ExitCode {
    let Some((out, names)) = args.split_first() else {
        return ExitCode::FAILURE;
    };
    let mut opts = SweepOptions::new();
    opts.scale = Scale::Tiny;
    opts.jobs = 1;
    opts.out = PathBuf::from(out);
    opts.only = names.to_vec();
    match run_sweep(&opts) {
        Ok(summary) if summary.failed.is_empty() => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

/// Runs one sweep in a child process, silencing its progress output.
fn sweep_process(out: &Path, names: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg(SWEEP_CHILD)
        .arg(out)
        .args(names)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn sweep: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("sweep into {} exited with {status}", out.display()))
    }
}

/// The result tables under `dir` whose bytes are deterministic: every CSV
/// except `table4` (it reports measured preprocessing times) and the
/// sweep's wall-time report.
fn result_tables(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if name.ends_with(".csv") && name != "table4.csv" && name != "sweep_report.csv" {
            let bytes = std::fs::read(&path).map_err(|e| format!("read {name}: {e}"))?;
            out.insert(name, bytes);
        }
    }
    Ok(out)
}

/// A running daemon over `out`.
pub fn start_daemon(out: &Path) -> Result<Service, String> {
    let cache =
        Arc::new(ArtifactCache::open(out.join("cache")).map_err(|e| format!("cache open: {e}"))?);
    let runner = Arc::new(ExperimentCellRunner::new(out.to_path_buf(), cache, None));
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        queue_depth: 64,
    };
    Service::start(runner, &config).map_err(|e| format!("service start: {e}"))
}

/// Submits one tiny-scale sweep and polls until it is terminal. Returns
/// whether it finished `done`.
fn request(addr: std::net::SocketAddr, experiments: &[String]) -> Result<bool, String> {
    let response =
        client::submit(addr, experiments, "tiny", None).map_err(|e| format!("submit: {e}"))?;
    if response.status != 202 {
        return Err(format!(
            "submit answered {}: {}",
            response.status, response.body
        ));
    }
    let id = client::sweep_id(&response).ok_or("202 without a sweep id")?;
    let path = format!("/v1/sweeps/{id}");
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    while Instant::now() < deadline {
        let status =
            client::request(addr, "GET", &path, None).map_err(|e| format!("status: {e}"))?;
        let state = status
            .json()
            .as_ref()
            .and_then(Value::as_object)
            .and_then(|o| o.get("state"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_default();
        match state.as_str() {
            "done" => return Ok(true),
            "failed" => return Ok(false),
            _ => std::thread::sleep(POLL),
        }
    }
    Err(format!("sweep {id} not terminal after {REQUEST_TIMEOUT:?}"))
}

pub fn daemon(args: &Args, work: &Path) -> Result<Report, String> {
    // `table4` is left out: it reports measured preprocessing times, so
    // its output cannot be checked byte for byte.
    let pool: Vec<String> = registry_names()
        .into_iter()
        .filter(|n| n != "table4")
        .collect();
    // Each set-up starts a daemon and warms its corpus with one sweep of
    // the whole pool; the last daemon serves the window.
    let mut services = Vec::new();
    let setup = set_up(|i| {
        let out = work.join(format!("daemon-{i}"));
        let service = start_daemon(&out)?;
        let warmed = request(service.local_addr(), &pool);
        services.push(service);
        match warmed {
            Ok(true) => Ok(out),
            Ok(false) => Err("warm-up sweep failed".to_string()),
            Err(e) => Err(e),
        }
    });
    let last = services.pop();
    for s in services {
        s.shutdown().map_err(|e| format!("service shutdown: {e}"))?;
    }
    let (out, setups) = match setup {
        Ok(done) => done,
        Err(e) => {
            if let Some(s) = last {
                let _ = s.shutdown();
            }
            return Err(e);
        }
    };
    let service = last.expect("one daemon per set-up");
    let addr = service.local_addr();

    // One request per experiment, cycling through a seeded order, so every
    // run sends the same mix whatever the seed.
    let mut order = pool.clone();
    SplitMix(args.seed).shuffle(&mut order);
    let mut next = order.iter().cycle();
    let journals = out.join("manifests");
    let mut op = || {
        let pick = [next.next().expect("the pool is not empty").clone()];
        // Only the artifact cache stays warm: without the per-cell
        // journals the daemon simulates every requested cell again.
        let _ = std::fs::remove_dir_all(&journals);
        request(addr, &pick) == Ok(true)
    };
    let warm_ok = op();
    let (ops, failed) = measure(args.seconds, &mut op);
    service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;

    // The service contract: daemon tables are byte-identical to an
    // offline sweep of the same experiments.
    let offline = work.join("daemon-offline");
    sweep_process(&offline, &pool)?;
    let expected = result_tables(&offline)?;
    let served = result_tables(&out)?;
    let checks_passed = check(warm_ok, "warm-up request")
        & check(!expected.is_empty(), "offline sweep wrote no tables")
        & check(
            expected.iter().all(|(k, v)| served.get(k) == Some(v)),
            "daemon tables differ from the offline sweep",
        );

    let layers = maybe_probe(args, work, &suite_inputs)?;
    Ok(Report {
        failed,
        checks_passed,
        ops,
        setups,
        layers,
    })
}
