//! The experiment session: the bridge between figure drivers and
//! `popt-harness`.
//!
//! A [`Session`] wraps a [`SweepSession`] (thread budget + resume journal)
//! together with the optional artifact cache and an in-process memo of
//! suite graphs, so that every figure driver can:
//!
//! 1. materialize its input graphs exactly once per process (and once per
//!    *cache directory* across processes),
//! 2. submit simulation cells in its old serial order, and
//! 3. read results back in that same order — which keeps emitted CSVs
//!    byte-identical to the historical serial runs at any `--jobs` level.

use crate::runner::{simulate_cached, MatrixCtx, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_harness::{
    ArtifactCache, ArtifactKey, ArtifactKind, CacheCounters, Manifest, SweepCell, SweepReport,
    SweepSession,
};
use popt_kernels::App;
use popt_sim::{HierarchyConfig, HierarchyStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One materialized suite input: the graph plus its stable descriptor
/// (the descriptor seeds both graph and matrix cache keys).
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Which Table III input this is.
    pub which: SuiteGraph,
    /// The materialized graph.
    pub graph: Arc<Graph>,
    /// Stable artifact descriptor, e.g. `suite/v1/urand/small`.
    pub desc: String,
}

/// Run-wide execution context for the experiment drivers.
#[derive(Debug)]
pub struct Session {
    sweep: SweepSession,
    cache: Option<Arc<ArtifactCache>>,
    graphs: Mutex<BTreeMap<String, Arc<Graph>>>,
}

impl Session {
    /// A serial session: cells run inline, no journal, no artifact cache.
    /// This is the configuration the plain `experiments` subcommands use;
    /// it behaves exactly like the historical serial drivers.
    pub fn serial() -> Self {
        Session::parallel(1)
    }

    /// A session running up to `threads` cells concurrently.
    pub fn parallel(threads: usize) -> Self {
        Session {
            sweep: SweepSession::parallel(threads),
            cache: None,
            graphs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attaches a content-addressed artifact cache: suite graphs and
    /// Rereference Matrices are persisted there and shared across cells,
    /// runs and processes.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a resume journal (see [`SweepSession::with_manifest`]).
    #[must_use]
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.sweep = self.sweep.with_manifest(manifest);
        self
    }

    /// Injects a panic into every cell whose id contains `pattern`
    /// (failure-path regression tooling; see [`SweepSession::with_fault`]).
    #[must_use]
    pub fn with_fault(mut self, pattern: impl Into<String>) -> Self {
        self.sweep = self.sweep.with_fault(pattern);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.sweep.threads()
    }

    /// Artifact-cache hit/build counters, if a cache is attached.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// Materializes a graph under a stable descriptor: first from the
    /// in-process memo, then from the artifact cache (when attached),
    /// finally by running `build`.
    pub fn named_graph(&self, desc: &str, build: impl FnOnce() -> Graph) -> Arc<Graph> {
        if let Some(g) = self.graphs.lock().expect("graph memo").get(desc) {
            return Arc::clone(g);
        }
        let graph = match &self.cache {
            Some(cache) => cache.graph(&ArtifactKey::new(ArtifactKind::Graph, desc), build),
            None => Arc::new(build()),
        };
        self.graphs
            .lock()
            .expect("graph memo")
            .insert(desc.to_string(), Arc::clone(&graph));
        graph
    }

    /// Materializes one suite input at the given scale.
    pub fn graph(&self, which: SuiteGraph, scale: Scale) -> SuiteEntry {
        let desc = format!("suite/v1/{which}/{}", scale.name());
        let graph = self.named_graph(&desc, || suite_graph(which, scale.suite()));
        SuiteEntry { which, graph, desc }
    }

    /// Materializes all five suite inputs in the paper's order.
    pub fn suite(&self, scale: Scale) -> Vec<SuiteEntry> {
        SuiteGraph::ALL
            .iter()
            .map(|&which| self.graph(which, scale))
            .collect()
    }

    /// The matrix-cache context for a graph descriptor (None when the
    /// session has no artifact cache — matrices build inline then).
    pub fn matrix_ctx(&self, graph_desc: &str) -> Option<MatrixCtx> {
        self.cache.as_ref().map(|cache| MatrixCtx {
            cache: Arc::clone(cache),
            graph_desc: graph_desc.to_string(),
        })
    }

    /// A standard simulation cell: `simulate(app, graph, cfg, policy)`
    /// against a graph known by descriptor, with matrix construction
    /// deduped through the session cache. Every cell runs its own kernel.
    pub fn sim_cell(
        &self,
        id: impl Into<String>,
        app: App,
        graph: &Arc<Graph>,
        graph_desc: &str,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> SweepCell<'static> {
        let graph = Arc::clone(graph);
        let cfg = cfg.clone();
        let policy = policy.clone();
        let ctx = self.matrix_ctx(graph_desc);
        SweepCell::new(id, move || {
            simulate_cached(app, &graph, &cfg, &policy, ctx.as_ref())
        })
    }

    /// [`sim_cell`](Session::sim_cell) against a suite entry.
    pub fn sim(
        &self,
        id: impl Into<String>,
        app: App,
        entry: &SuiteEntry,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> SweepCell<'static> {
        self.sim_cell(id, app, &entry.graph, &entry.desc, cfg, policy)
    }

    /// A custom cell (for the special-phase runners the standard
    /// `simulate` path doesn't cover: tiled, PB, PHI, custom hierarchies).
    pub fn cell(
        &self,
        id: impl Into<String>,
        run: impl FnOnce() -> HierarchyStats + Send + 'static,
    ) -> SweepCell<'static> {
        SweepCell::new(id, run)
    }

    /// Runs a batch of cells, returning stats in submission order (see
    /// [`SweepSession::run_cells`]).
    pub fn run(&self, cells: Vec<SweepCell<'_>>) -> Vec<HierarchyStats> {
        self.sweep.run_cells(cells)
    }

    /// Cells simulated so far (excludes journal replays).
    pub fn executed(&self) -> usize {
        self.sweep.executed()
    }

    /// Cells replayed from the journal so far.
    pub fn resumed(&self) -> usize {
        self.sweep.resumed()
    }

    /// Finishes the sweep (see [`SweepSession::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates journal rewrite failures.
    pub fn finish(self) -> std::io::Result<SweepReport> {
        self.sweep.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_sim::PolicyKind;
    use std::path::{Path, PathBuf};

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/exec")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn suite_graphs_are_memoized_per_descriptor() {
        let session = Session::serial();
        let a = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let b = session.graph(SuiteGraph::Urand, Scale::Tiny);
        assert!(
            Arc::ptr_eq(&a.graph, &b.graph),
            "second lookup is a memo hit"
        );
        let c = session.graph(SuiteGraph::Urand, Scale::Small);
        assert!(!Arc::ptr_eq(&a.graph, &c.graph), "scales are distinct");
    }

    #[test]
    fn cached_session_persists_suite_graphs() {
        let dir = scratch("suite-cache");
        {
            let cache = Arc::new(ArtifactCache::open(&dir).unwrap());
            let session = Session::serial().with_cache(Arc::clone(&cache));
            session.graph(SuiteGraph::Urand, Scale::Tiny);
            assert_eq!(cache.counters().graph_builds, 1);
        }
        // A fresh process-equivalent: the graph loads from disk.
        let cache = Arc::new(ArtifactCache::open(&dir).unwrap());
        let session = Session::serial().with_cache(Arc::clone(&cache));
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        assert_eq!(cache.counters().graph_builds, 0, "no regeneration");
        assert_eq!(cache.counters().graph_hits, 1);
        assert_eq!(
            *entry.graph,
            suite_graph(SuiteGraph::Urand, popt_graph::suite::SuiteScale::Tiny)
        );
    }

    #[test]
    fn sim_cells_round_trip_through_the_session() {
        let session = Session::parallel(2);
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let lru = PolicySpec::Baseline(PolicyKind::Lru);
        let out = session.run(vec![
            session.sim("exec/tiny/urand/lru", App::Pagerank, &entry, &cfg, &lru),
            session.sim(
                "exec/tiny/urand/topt",
                App::Pagerank,
                &entry,
                &cfg,
                &PolicySpec::Topt,
            ),
        ]);
        assert_eq!(out.len(), 2);
        let serial = crate::runner::simulate(App::Pagerank, &entry.graph, &cfg, &lru);
        assert_eq!(out[0], serial, "cell result matches direct simulate");
    }
}
