//! The `serve` and `submit` subcommands: the sweep machinery as a
//! long-lived daemon.
//!
//! `serve` binds `popt_service::Service` to a loopback address and plugs
//! the experiment registry into it via [`ExperimentCellRunner`]: one
//! service *cell* is one `(experiment, scale)` pair, executed through the
//! same [`Session`] path the offline `experiments sweep` uses — same
//! shared artifact cache on disk, same table emission — so the result
//! CSVs a daemon produces are byte-identical to an offline sweep over the
//! same selection. Each cell journals into its own manifest under
//! `out/manifests/`, which is what makes a restarted daemon resume
//! instead of re-simulating.
//!
//! `submit` is the matching client: it posts a sweep, optionally waits
//! for the terminal state, and exits nonzero if any cell failed.

use crate::exec::Session;
use crate::experiments::{emit_tables, find_experiment, Runner};
use crate::Scale;
use popt_harness::{ArtifactCache, CacheCounters, CellOutcome, Manifest};
use popt_service::client;
use popt_service::{CellRunner, CellSummary, Service, ServiceConfig};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed `serve` invocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads simulating cells.
    pub jobs: usize,
    /// Admission queue capacity.
    pub queue_depth: usize,
    /// Output directory (tables, cache, manifests, `service.addr`).
    pub out: PathBuf,
    /// Fault injection pattern forwarded to every cell session.
    pub inject_fail: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            queue_depth: 64,
            out: PathBuf::from("results/service"),
            inject_fail: None,
        }
    }
}

/// Parsed `submit` invocation.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Daemon address, or a path to the `service.addr` file `serve` wrote.
    pub addr: String,
    /// Experiments to sweep (registry names or aliases).
    pub experiments: Vec<String>,
    /// Scale for every cell.
    pub scale: Scale,
    /// Optional request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Poll until the sweep reaches a terminal state.
    pub wait: bool,
}

/// The experiment registry plugged into the service: validates requests
/// against [`find_experiment`] and runs each cell through a fresh
/// single-threaded [`Session`] over the daemon-wide artifact cache.
pub struct ExperimentCellRunner {
    out: PathBuf,
    cache: Arc<ArtifactCache>,
    inject_fail: Option<String>,
}

impl ExperimentCellRunner {
    /// A runner emitting tables under `out`, deduping prerequisites
    /// through `cache`.
    pub fn new(out: PathBuf, cache: Arc<ArtifactCache>, inject_fail: Option<String>) -> Self {
        ExperimentCellRunner {
            out,
            cache,
            inject_fail,
        }
    }

    fn resolve(experiment: &str, scale: &str) -> Result<(&'static str, Runner, Scale), String> {
        let &(name, _, runner) = find_experiment(experiment)
            .ok_or_else(|| format!("unknown experiment {experiment:?}"))?;
        let scale = Scale::parse(scale)
            .ok_or_else(|| format!("unknown scale {scale:?} (tiny|small|standard)"))?;
        Ok((name, runner, scale))
    }
}

impl CellRunner for ExperimentCellRunner {
    fn descriptor(&self, experiment: &str, scale: &str) -> Result<String, String> {
        // Aliases (fig12a/fig12b) canonicalize through the registry name,
        // so they coalesce with each other and with the canonical form.
        let (name, _, scale) = Self::resolve(experiment, scale)?;
        Ok(format!("cell/v1/{name}/{}", scale.name()))
    }

    fn run(&self, experiment: &str, scale: &str) -> Result<CellSummary, String> {
        let (name, runner, scale) = Self::resolve(experiment, scale)?;
        let manifests = self.out.join("manifests");
        std::fs::create_dir_all(&manifests).map_err(|e| format!("manifest dir: {e}"))?;
        let manifest = Manifest::open(manifests.join(format!("{name}-{}.jsonl", scale.name())))
            .map_err(|e| format!("manifest open: {e}"))?;
        let mut session = Session::parallel(1)
            .with_cache(Arc::clone(&self.cache))
            .with_manifest(manifest);
        if let Some(pattern) = &self.inject_fail {
            session = session.with_fault(pattern.clone());
        }
        // A failing cell panics out of the runner; the service worker
        // catches it and marks the job failed without killing the daemon.
        let tables = runner(&session, scale);
        emit_tables(&tables, &self.out, name).map_err(|e| format!("emit {name}: {e}"))?;
        let streams = session.stream_counters();
        let summary = CellSummary {
            executed: session.count(CellOutcome::Executed) as u64,
            resumed: session.count(CellOutcome::Resumed) as u64,
            shared: session.count(CellOutcome::Shared) as u64,
            streams_recorded: streams.recorded,
            streams_replayed: streams.replayed,
        };
        session
            .finish()
            .map_err(|e| format!("finish {name}: {e}"))?;
        Ok(summary)
    }

    fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }
}

/// Runs the daemon until a graceful shutdown (SIGTERM, SIGINT, or
/// `POST /v1/shutdown`) drains the queue. Writes the bound address to
/// `out/service.addr` and prints it to stdout so scripts can find an
/// ephemeral port.
///
/// # Errors
///
/// Bind and filesystem failures.
pub fn run_serve(opts: &ServeOptions) -> io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let cache = Arc::new(ArtifactCache::open(opts.out.join("cache"))?);
    let runner = Arc::new(ExperimentCellRunner::new(
        opts.out.clone(),
        cache,
        opts.inject_fail.clone(),
    ));
    Service::install_signal_handlers();
    let config = ServiceConfig {
        addr: opts.addr.clone(),
        jobs: opts.jobs,
        queue_depth: opts.queue_depth,
    };
    let service = Service::start(runner, &config)?;
    let addr = service.local_addr();
    std::fs::write(opts.out.join("service.addr"), format!("{addr}\n"))?;
    println!("popt-service listening on {addr}");
    eprintln!(
        "  {} workers, queue depth {}, results under {}",
        config.jobs,
        config.queue_depth,
        opts.out.display()
    );
    service.run()
}

/// Resolves `--addr`: a literal socket address, or a path to a file
/// containing one (the `service.addr` the daemon wrote).
fn resolve_addr(spec: &str) -> io::Result<SocketAddr> {
    if let Ok(addr) = spec.parse() {
        return Ok(addr);
    }
    let text = std::fs::read_to_string(spec)?;
    text.trim().parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("--addr {spec:?} is neither a socket address nor an address file"),
        )
    })
}

/// Submits a sweep and (by default) waits for its terminal state.
/// Returns `true` when every cell finished `done`.
///
/// # Errors
///
/// Transport failures and malformed responses; application-level
/// rejections (`400`/`429`/`503`) return `Ok(false)` after printing the
/// error body.
pub fn run_submit(opts: &SubmitOptions) -> io::Result<bool> {
    let addr = resolve_addr(&opts.addr)?;
    let response = client::submit(addr, &opts.experiments, opts.scale.name(), opts.deadline_ms)?;
    println!("{}", response.body);
    if response.status != 202 {
        if let Some(seconds) = response.retry_after {
            eprintln!(
                "rejected: HTTP {} (retry after {seconds}s)",
                response.status
            );
        } else {
            eprintln!("rejected: HTTP {}", response.status);
        }
        return Ok(false);
    }
    if !opts.wait {
        return Ok(true);
    }
    let id = client::sweep_id(&response).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "202 response carried no sweep id",
        )
    })?;
    let outcome = client::wait_sweep(addr, &id, Duration::from_secs(3600))?;
    println!("{}", outcome.body);
    let state = outcome
        .json()
        .as_ref()
        .and_then(|v| v.as_object())
        .and_then(|o| o.get("state"))
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .unwrap_or_default();
    Ok(state == "done")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_canonicalize_aliases() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/serve-desc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = Arc::new(ArtifactCache::open(dir.join("cache")).unwrap());
        let r = ExperimentCellRunner::new(dir, cache, None);
        assert_eq!(
            r.descriptor("fig12a", "tiny").unwrap(),
            "cell/v1/fig12/tiny"
        );
        assert_eq!(
            r.descriptor("fig12b", "tiny").unwrap(),
            r.descriptor("fig12", "tiny").unwrap(),
            "aliases coalesce with the canonical name"
        );
        assert!(r.descriptor("fig99", "tiny").is_err());
        assert!(r.descriptor("fig2", "galactic").is_err());
    }

    #[test]
    fn addr_resolution_accepts_literals_and_files() {
        assert_eq!(
            resolve_addr("127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080".parse().unwrap()
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/serve-addr");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("service.addr");
        std::fs::write(&file, "127.0.0.1:9090\n").unwrap();
        assert_eq!(
            resolve_addr(file.to_str().unwrap()).unwrap(),
            "127.0.0.1:9090".parse().unwrap()
        );
        assert!(resolve_addr(dir.join("missing").to_str().unwrap()).is_err());
    }
}
