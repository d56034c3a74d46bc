//! The experiment session: the one cell runner between the figure
//! drivers and `popt-harness`.
//!
//! A [`Session`] holds the run-wide pieces — thread budget, the optional
//! resume journal, the stats of every content key it has run, the
//! per-cell metric log, the optional artifact cache and an in-process memo
//! of suite graphs — so that every figure driver can:
//!
//! 1. materialize its input graphs exactly once per process (and once per
//!    *cache directory* across processes),
//! 2. submit simulation cells in its old serial order, and
//! 3. read results back in that same order — which keeps emitted CSVs
//!    byte-identical to the historical serial runs at any `--jobs` level.
//!
//! A cell is plain data ([`Cell`]) whose graph, [`Feed`], hierarchy
//! configuration and [`PolicySpec`] are its content key, and the session
//! runs each key once. A batch's cells of one graph, feed and L1/L2
//! geometry form a stream group, run as one job ([`run_group`]): the
//! job's thread records the feed's post-L2 stream once, and a second
//! thread applies each chunk of it to every cell's LLC as it arrives. A
//! group keeps its whole stream only for a Belady cell, whose oracle is
//! built from it once the recording ends.

use crate::runner::{check_stats, run_group, Feed, MatrixCtx, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_harness::pool::{panic_message, run_jobs};
use popt_harness::{
    ArtifactCache, ArtifactKey, ArtifactKind, CellMetric, CellOutcome, Manifest, SweepReport,
};
use popt_sim::{CacheConfig, HierarchyConfig, HierarchyStats, LlcThread};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// One simulation cell as plain data: `feed`'s post-L2 stream on a graph
/// known by descriptor, under `cfg`, replayed into `policy`'s LLC. Built
/// by [`Session::sim_cell`], run by [`Session::run`].
#[derive(Debug)]
pub struct Cell {
    id: String,
    graph: Arc<Graph>,
    graph_desc: String,
    cfg: HierarchyConfig,
    feed: Feed,
    policy: PolicySpec,
}

impl Cell {
    /// The cell's content key: everything its stats depend on. Cells with
    /// equal keys compute equal stats, so a session runs each key once.
    fn key(&self) -> String {
        format!(
            "{}|{:?}|{:?}|{:?}",
            self.graph_desc, self.feed, self.cfg, self.policy
        )
    }

    /// The key of the recording the cell replays.
    fn stream_key(&self) -> StreamKey {
        StreamKey {
            graph_desc: self.graph_desc.clone(),
            feed: self.feed,
            l1: self.cfg.l1,
            l2: self.cfg.l2,
        }
    }
}

/// Everything a cell's post-L2 stream depends on. The LLC never feeds
/// back into the private levels, so the LLC's size, ways, reserved ways,
/// banks and policy stay out: cells differing only there share one
/// stream.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct StreamKey {
    graph_desc: String,
    feed: Feed,
    l1: CacheConfig,
    l2: CacheConfig,
}

/// LLC-stream counters of a [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Streams recorded: kernel + L1/L2 passes run, one per executed
    /// stream group.
    pub recorded: u64,
    /// LLC replays run, one per executed cell.
    pub replayed: u64,
}

impl StreamCounters {
    /// The `"streams"` object of `sweep_summary.json`, with `record`, the
    /// time spent recording, in seconds.
    pub fn to_json(&self, record: Duration) -> String {
        format!(
            "{{\"recorded\":{},\"replayed\":{},\"record_seconds\":{:.6}}}",
            self.recorded,
            self.replayed,
            record.as_secs_f64()
        )
    }
}

/// The stream counters of a [`Session`] and the time its groups spent
/// recording.
#[derive(Debug, Default)]
struct StreamLog {
    counters: StreamCounters,
    record: Duration,
}

/// Run-wide execution context for the experiment drivers.
#[derive(Debug)]
pub struct Session {
    threads: usize,
    manifest: Option<Mutex<Manifest>>,
    seen: Mutex<BTreeSet<String>>,
    done: Mutex<BTreeMap<String, HierarchyStats>>,
    metrics: Mutex<Vec<CellMetric>>,
    fault: Option<String>,
    cache: Option<Arc<ArtifactCache>>,
    graphs: Mutex<BTreeMap<String, Arc<Graph>>>,
    streams: Mutex<StreamLog>,
}

impl Session {
    /// A serial session: one stream group at a time, its recording on the
    /// calling thread and its LLCs on a second thread; no journal, no
    /// artifact cache. This is the configuration the plain `experiments`
    /// subcommands use; its results equal the historical serial
    /// drivers'.
    pub fn serial() -> Self {
        Session::parallel(1)
    }

    /// A session running up to `threads` stream groups concurrently.
    pub fn parallel(threads: usize) -> Self {
        Session {
            threads: threads.max(1),
            manifest: None,
            seen: Mutex::new(BTreeSet::new()),
            done: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(Vec::new()),
            fault: None,
            cache: None,
            graphs: Mutex::new(BTreeMap::new()),
            streams: Mutex::new(StreamLog::default()),
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

    /// Attaches a resume journal: cells it already records are skipped and
    /// every newly completed cell is journaled.
    #[must_use]
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.manifest = Some(Mutex::new(manifest));
        self
    }

    /// Fault injection for failure-path tests: any cell whose id contains
    /// `pattern` fails instead of simulating, and takes the failure path
    /// of a genuine simulation panic from there. Such a cell never takes
    /// another cell's stats, and joins no stream group, so it records
    /// nothing.
    #[must_use]
    pub fn with_fault(mut self, pattern: impl Into<String>) -> Self {
        self.fault = Some(pattern.into());
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// A simulation cell: `feed`'s post-L2 stream on a graph known by
    /// descriptor, under `cfg`'s L1 and L2, applied to `policy`'s LLC for
    /// the feed ([`policy_llc`](crate::runner::policy_llc)) under `cfg`. An
    /// [`App`](popt_kernels::App) is its [`Feed::Kernel`], so
    /// `sim_cell(id, feed, ..)` is `simulate(feed, graph, cfg, policy)`.
    /// The descriptor must name one graph for the whole session: with
    /// `feed`, `cfg` and `policy` it is the cell's content key.
    pub fn sim_cell(
        &self,
        id: impl Into<String>,
        feed: impl Into<Feed>,
        graph: &Arc<Graph>,
        graph_desc: &str,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> Cell {
        Cell {
            id: id.into(),
            graph: Arc::clone(graph),
            graph_desc: graph_desc.to_string(),
            cfg: cfg.clone(),
            feed: feed.into(),
            policy: policy.clone(),
        }
    }

    /// [`sim_cell`](Session::sim_cell) against a suite entry.
    pub fn sim(
        &self,
        id: impl Into<String>,
        feed: impl Into<Feed>,
        entry: &SuiteEntry,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> Cell {
        self.sim_cell(id, feed, &entry.graph, &entry.desc, cfg, policy)
    }

    /// Runs a batch of cells, returning stats in submission order. A cell
    /// is **resumed** if the journal records its id; **shared** if the
    /// session has its key's stats (from any earlier cell) or an earlier
    /// cell of the batch runs its key, in which case it is journaled
    /// under its own id; and **executed** otherwise.
    ///
    /// Executed cells run as one job per stream key, the jobs starting in
    /// the order of their first cells' submission: a job records its
    /// stream once while every one of its cells' LLCs takes it chunk by
    /// chunk on the worker's LLC thread, which serves all of that
    /// worker's groups, so each worker has one recording in flight. An
    /// executed cell's wall time is its own LLC's build and apply time;
    /// the recording's is summed in [`record_time`](Session::record_time).
    ///
    /// A panicking cell does not abort its batch: the panic is caught, the
    /// cell and the batch's other cells of its key are recorded as
    /// [`CellOutcome::Failed`], and every other cell still runs and
    /// journals. A cell fails alone when its LLC panics; only a panic
    /// while recording fails its whole group. Only then does the batch
    /// re-raise, so a resumed sweep after a fix re-simulates nothing but
    /// the cells that failed.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate cell id (two distinct simulations under one
    /// id would corrupt resume), on a journal write failure, or — after
    /// the rest of the batch completed — if any cell panicked.
    pub fn run(&self, cells: Vec<Cell>) -> Vec<HierarchyStats> {
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
        // A stream group ranks by the first of its cells submitted.
        let mut ranks: BTreeMap<StreamKey, usize> = BTreeMap::new();
        let mut fresh = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let rank = *ranks.entry(cell.stream_key()).or_insert(i);
            let journaled = self
                .manifest
                .as_ref()
                .and_then(|m| lock(m).completed(&cell.id).copied());
            match journaled {
                Some(stats) => {
                    lock(&self.done).entry(cell.key()).or_insert(stats);
                    self.log(cell.id, CellOutcome::Resumed, Duration::ZERO, &stats);
                    results[i] = Some(stats);
                }
                None => fresh.push((rank, i, cell)),
            }
        }
        // The batch's first cell of each unknown key leads; later cells of
        // that key follow it. Leaders run grouped by stream, in the ranks'
        // order; a faulted cell joins no group and fails unrecorded.
        let mut leaders: BTreeMap<String, usize> = BTreeMap::new();
        let mut followers: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
        let mut groups: BTreeMap<usize, Vec<(usize, String, Cell)>> = BTreeMap::new();
        let mut outcomes = Vec::new();
        for (rank, i, cell) in fresh {
            let key = cell.key();
            if self.faulted(&cell.id) {
                let msg = format!("{}: injected fault for cell {:?}", cell.id, cell.id);
                lock(&self.metrics).push(CellMetric::failed(cell.id, Duration::ZERO));
                outcomes.push((i, key, Err(msg)));
                continue;
            }
            if let Some(stats) = lock(&self.done).get(&key).copied() {
                self.share(cell.id, &stats);
                results[i] = Some(stats);
                continue;
            }
            if let Some(leader) = leaders.get(&key) {
                followers.entry(*leader).or_default().push((i, cell.id));
                continue;
            }
            leaders.insert(key.clone(), i);
            groups.entry(rank).or_default().push((i, key, cell));
        }
        let groups: Vec<_> = groups
            .into_values()
            .map(|group| (self.matrix_ctx(&group[0].2.graph_desc), group))
            .collect();
        let workers = self.threads.min(groups.len());
        let executed = std::thread::scope(|scope| {
            // Each worker takes one LLC thread for all of its groups.
            let llc_threads: Mutex<Vec<LlcThread>> =
                Mutex::new((0..workers).map(|_| LlcThread::spawn(scope)).collect());
            run_jobs(self.threads, groups.iter().collect(), |(ctx, group)| {
                let llc_thread = lock(&llc_threads).pop().expect("an LLC thread per worker");
                let done = self.execute(&llc_thread, group, ctx.as_ref());
                lock(&llc_threads).push(llc_thread);
                done
            })
        });
        outcomes.extend(executed.into_iter().flatten());
        let mut failures: Vec<String> = Vec::new();
        for (i, key, outcome) in outcomes {
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

    /// Executes one stream group: its feed records once while every
    /// cell's LLC takes the stream ([`run_group`]), then each cell is
    /// journaled and logged. A cell whose LLC panics or whose stats break
    /// a conservation law fails alone, with the message of its failure; a
    /// panic while recording fails the whole group.
    fn execute<'s>(
        &self,
        llc_thread: &LlcThread<'s>,
        group: &'s [(usize, String, Cell)],
        ctx: Option<&'s MatrixCtx>,
    ) -> Vec<(usize, String, Result<HierarchyStats, String>)> {
        let first = &group[0].2;
        let llcs: Vec<(&HierarchyConfig, &PolicySpec)> = group
            .iter()
            .map(|(_, _, cell)| (&cell.cfg, &cell.policy))
            .collect();
        {
            let c = &mut lock(&self.streams).counters;
            c.recorded += 1;
            c.replayed += llcs.len() as u64;
        }
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_group(llc_thread, first.feed, &first.graph, &first.cfg, &llcs, ctx)
        }));
        lock(&self.streams).record += run.as_ref().map_or(Duration::ZERO, |run| run.record);
        let members: Vec<(Result<HierarchyStats, String>, Duration)> = match run {
            Ok(run) => run
                .members
                .into_iter()
                .map(|m| {
                    let stats = m
                        .stats
                        .map_err(|payload| panic_message(payload.as_ref()).to_string());
                    (stats, m.busy)
                })
                .collect(),
            Err(payload) => {
                let msg = panic_message(payload.as_ref()).to_string();
                vec![(Err(msg), Duration::ZERO); group.len()]
            }
        };
        group
            .iter()
            .zip(members)
            .map(|((i, key, cell), (stats, busy))| {
                let outcome = match stats.and_then(|s| check_stats(&s, cell.feed, &cell.policy)) {
                    Ok(stats) => {
                        self.journal(&cell.id, &stats);
                        self.log(cell.id.clone(), CellOutcome::Executed, busy, &stats);
                        Ok(stats)
                    }
                    Err(msg) => {
                        let metric = CellMetric::failed(cell.id.clone(), busy);
                        lock(&self.metrics).push(metric);
                        Err(format!("{}: {msg}", cell.id))
                    }
                };
                (*i, key.clone(), outcome)
            })
            .collect()
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

    /// LLC streams recorded, replayed and in flight so far.
    pub fn stream_counters(&self) -> StreamCounters {
        lock(&self.streams).counters
    }

    /// Time this session's stream groups spent recording, summed over
    /// groups.
    pub fn record_time(&self) -> Duration {
        lock(&self.streams).record
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
    m.lock().expect("session lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{phi_entries, policy_llc, simulate};
    use popt_core::{Encoding, Quantization};
    use popt_kernels::App;
    use popt_sim::{Hierarchy, PolicyKind};
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

    /// The policies of a sweep row, Belady included.
    fn row() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Baseline(PolicyKind::Lru),
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::Baseline(PolicyKind::Hawkeye),
            PolicySpec::Belady,
            PolicySpec::Topt,
            PolicySpec::popt_default(),
        ]
    }

    #[test]
    fn a_row_on_one_stream_records_it_once() {
        let session = Session::parallel(2);
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let cells = row()
            .iter()
            .map(|spec| {
                let id = format!("exec/row/{}", spec.cell_tag());
                session.sim(id, App::Components, &entry, &cfg, spec)
            })
            .collect();
        let out = session.run(cells);
        assert_eq!(
            session.stream_counters(),
            StreamCounters {
                recorded: 1,
                replayed: 6,
            }
        );
        for (spec, stats) in row().iter().zip(&out) {
            let direct = crate::runner::simulate(App::Components, &entry.graph, &cfg, spec);
            assert_eq!(*stats, direct, "{}", spec.label());
        }
    }

    #[test]
    fn interleaved_streams_run_grouped_and_are_freed() {
        // Figure 16's shape: every LLC configuration submits one cell per
        // graph and policy, so consecutive cells alternate streams.
        let session = Session::parallel(2);
        let suite = session.suite(Scale::Tiny);
        let llcs: Vec<HierarchyConfig> = [(64, 16), (128, 16), (256, 8), (256, 32)]
            .iter()
            .map(|&(kb, ways)| HierarchyConfig::scaled_with_llc(kb * 1024, ways))
            .collect();
        let specs = [
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::popt_default(),
        ];
        let mut cells = Vec::new();
        let mut expected = Vec::new();
        for (c, cfg) in llcs.iter().enumerate() {
            for entry in &suite {
                for spec in &specs {
                    let id = format!("exec/fig16/{c}/{}/{}", entry.which, spec.cell_tag());
                    cells.push(session.sim(id, App::Pagerank, entry, cfg, spec));
                    expected.push(crate::runner::simulate(
                        App::Pagerank,
                        &entry.graph,
                        cfg,
                        spec,
                    ));
                }
            }
        }
        let out = session.run(cells);
        assert_eq!(out, expected, "results come back in submission order");
        let counters = session.stream_counters();
        assert_eq!(counters.recorded, suite.len() as u64, "one per graph");
        assert_eq!(counters.replayed, expected.len() as u64);
    }

    #[test]
    fn every_feed_replays_to_its_live_run() {
        // One session cell per feed and policy, all on one graph and one
        // L1/L2: each feed must get its own recording, and each replay must
        // equal the live hierarchy (the cell's LLC below the feed's private
        // levels, consuming its events directly).
        let session = Session::parallel(2);
        let entry = session.graph(SuiteGraph::Kron, Scale::Tiny);
        let (g, cfg) = (&entry.graph, Scale::Tiny.config());
        let feeds = [
            Feed::Kernel(App::Pagerank),
            Feed::Kernel(App::Components),
            Feed::Parallel { cores: 2 },
            Feed::Prefetch,
            Feed::Switches(4),
            Feed::PageMap,
            Feed::Bdfs,
            Feed::Tiled { tiles: 4 },
            Feed::Pb,
            Feed::Phi {
                entries: phi_entries(&cfg),
            },
        ];
        let mut cells = Vec::new();
        let mut live = Vec::new();
        for feed in feeds {
            let mut policies = vec![
                PolicySpec::Baseline(PolicyKind::Drrip),
                PolicySpec::popt_default(),
            ];
            if feed.cores() > 1 {
                policies.push(PolicySpec::Topt);
            }
            for policy in policies {
                let llc = policy_llc(feed, g, &cfg, &policy, None);
                let mut h = Hierarchy::with_llc(&cfg, feed.cores(), llc);
                let Ok(()) = feed.drive(g, None, &mut h);
                live.push((feed, policy.clone(), h.stats()));
                let id = format!("exec/feeds/{feed:?}/{}", policy.cell_tag());
                cells.push(session.sim_cell(id, feed, g, &entry.desc, &cfg, &policy));
            }
        }
        let out = session.run(cells);
        for ((feed, policy, live), replayed) in live.iter().zip(&out) {
            assert_eq!(replayed, live, "{feed:?} under {policy:?}");
        }
        let counters = session.stream_counters();
        assert_eq!(
            (counters.recorded, counters.replayed),
            (feeds.len() as u64, out.len() as u64)
        );
    }

    #[test]
    fn faulted_and_resumed_cells_release_their_streams_unrecorded() {
        let journal = scratch("stream-release").join("manifest.jsonl");
        let cfg = Scale::Tiny.config();
        let specs = row();
        // Four cells share urand's stream; kron's only cell is the faulted
        // LRU one, so nothing may ever record kron's stream.
        let batch = |session: &Session| {
            let urand = session.graph(SuiteGraph::Urand, Scale::Tiny);
            let kron = session.graph(SuiteGraph::Kron, Scale::Tiny);
            let mut cells: Vec<Cell> = specs[..4]
                .iter()
                .map(|spec| {
                    let id = format!("exec/release/urand/{}", spec.cell_tag());
                    session.sim(id, App::Pagerank, &urand, &cfg, spec)
                })
                .collect();
            cells.push(session.sim(
                "exec/release/kron/lru",
                App::Pagerank,
                &kron,
                &cfg,
                &specs[0],
            ));
            cells
        };
        let direct = |which: SuiteGraph, spec: &PolicySpec| {
            let g = suite_graph(which, popt_graph::suite::SuiteScale::Tiny);
            crate::runner::simulate(App::Pagerank, &g, &cfg, spec)
        };

        let faulted = Session::parallel(2)
            .with_manifest(Manifest::open(&journal).unwrap())
            .with_fault("/lru");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulted.run(batch(&faulted))
        }));
        assert!(run.is_err(), "the faulted cells fail the batch");
        let counters = faulted.stream_counters();
        assert_eq!((counters.recorded, counters.replayed), (1, 3));
        drop(faulted);

        // Resuming: the three journaled urand cells release their claims
        // without running; the two LRU cells record and replay.
        let resumed = Session::parallel(2).with_manifest(Manifest::open(&journal).unwrap());
        let out = resumed.run(batch(&resumed));
        assert_eq!(resumed.count(CellOutcome::Resumed), 3);
        let counters = resumed.stream_counters();
        assert_eq!((counters.recorded, counters.replayed), (2, 2));
        let mut expected: Vec<HierarchyStats> = specs[..4]
            .iter()
            .map(|spec| direct(SuiteGraph::Urand, spec))
            .collect();
        expected.push(direct(SuiteGraph::Kron, &specs[0]));
        assert_eq!(out, expected);
        drop(resumed);

        // A fully journaled batch records nothing at all.
        let warm = Session::parallel(2).with_manifest(Manifest::open(&journal).unwrap());
        assert_eq!(warm.run(batch(&warm)), expected);
        assert_eq!(warm.stream_counters(), StreamCounters::default());
    }

    #[test]
    fn a_later_batch_shares_the_keys_an_earlier_one_ran() {
        // Figure 4's batch, then Figure 7's: fig7's DRRIP and T-OPT cells
        // have fig4's keys, so they simulate nothing and only the P-OPT
        // cells record and replay.
        let session = Session::parallel(2);
        let suite = session.suite(Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let batch = |fig: &str, specs: &[PolicySpec]| -> Vec<Cell> {
            let mut cells = Vec::new();
            for entry in &suite {
                for spec in specs {
                    let id = format!("{fig}/tiny/{}/{}", entry.which, spec.cell_tag());
                    cells.push(session.sim(id, App::Pagerank, entry, &cfg, spec));
                }
            }
            cells
        };
        let popt = |encoding| PolicySpec::Popt {
            quant: Quantization::EIGHT,
            encoding,
            limit_study: false,
        };
        let fig4 = [
            PolicySpec::Baseline(PolicyKind::Lru),
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::Baseline(PolicyKind::ShipPc),
            PolicySpec::Baseline(PolicyKind::Hawkeye),
            PolicySpec::Topt,
        ];
        let fig7 = [
            PolicySpec::Baseline(PolicyKind::Drrip),
            popt(popt_core::Encoding::InterOnly),
            popt(popt_core::Encoding::InterIntra),
            PolicySpec::Topt,
        ];
        session.run(batch("fig4", &fig4));
        let before = session.stream_counters();
        let out = session.run(batch("fig7", &fig7));
        let after = session.stream_counters();
        let graphs = suite.len() as u64;
        assert_eq!(session.count(CellOutcome::Shared) as u64, 2 * graphs);
        assert_eq!(after.replayed - before.replayed, 2 * graphs, "P-OPT only");
        assert_eq!(after.recorded - before.recorded, graphs, "P-OPT only");
        let mut stats = out.iter();
        for entry in &suite {
            for spec in &fig7 {
                let direct = simulate(App::Pagerank, &entry.graph, &cfg, spec);
                assert_eq!(stats.next(), Some(&direct), "{} {spec:?}", entry.which);
            }
        }
        for row in session.finish().unwrap().rows() {
            let shared = row.cell.starts_with("fig7")
                && (row.cell.ends_with("/drrip") || row.cell.ends_with("/topt"));
            let outcome = if shared {
                CellOutcome::Shared
            } else {
                CellOutcome::Executed
            };
            assert_eq!(row.outcome, outcome, "{}", row.cell);
            if shared {
                assert_eq!(row.wall, std::time::Duration::ZERO, "{}", row.cell);
            }
        }
    }

    #[test]
    fn cells_differing_in_any_part_of_their_key_do_not_share() {
        let session = Session::parallel(2);
        let urand = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let kron = session.graph(SuiteGraph::Kron, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let feed = Feed::Kernel(App::Pagerank);
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        let bigger = HierarchyConfig {
            llc: CacheConfig::new(2 * cfg.llc.size_bytes(), cfg.llc.ways()),
            ..cfg.clone()
        };
        let reserved = cfg.clone().with_reserved_ways(2);
        let (g, desc) = (&urand.graph, urand.desc.as_str());
        let topt = PolicySpec::Topt;
        let cells = vec![
            session.sim_cell("key/base", feed, g, desc, &cfg, &drrip),
            session.sim_cell("key/llc-size", feed, g, desc, &bigger, &drrip),
            session.sim_cell("key/reserved", feed, g, desc, &reserved, &drrip),
            session.sim_cell("key/policy", feed, g, desc, &cfg, &topt),
            session.sim_cell("key/feed", Feed::PageMap, g, desc, &cfg, &drrip),
            session.sim_cell("key/desc", feed, g, "other/urand", &cfg, &drrip),
            session.sim_cell("key/graph", feed, &kron.graph, &kron.desc, &cfg, &drrip),
            session.sim_cell("key/twin", feed, g, desc, &cfg, &drrip),
        ];
        let out = session.run(cells);
        assert_eq!(session.count(CellOutcome::Executed), 7);
        assert_eq!(
            session.count(CellOutcome::Shared),
            1,
            "only the twin shares"
        );
        assert_eq!(out[7], out[0]);
        assert_ne!(out[1], out[0], "a bigger LLC changes the stats");
    }

    #[test]
    fn first_way_and_rrip_limit_studies_do_not_share() {
        // ext5's pair at one quantization: both are limit-study P-OPT over
        // the same matrices, differing only in the tie-break.
        let session = Session::parallel(2);
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let quant = Quantization::FOUR;
        let rrip = PolicySpec::Popt {
            quant,
            encoding: Encoding::InterIntra,
            limit_study: true,
        };
        let first = PolicySpec::PoptFirstWay(quant);
        let out = session.run(vec![
            session.sim("tie/first", App::Pagerank, &entry, &cfg, &first),
            session.sim("tie/rrip", App::Pagerank, &entry, &cfg, &rrip),
        ]);
        assert_eq!(session.count(CellOutcome::Executed), 2);
        assert_eq!(session.count(CellOutcome::Shared), 0);
        for (spec, stats) in [&first, &rrip].into_iter().zip(&out) {
            let direct = simulate(App::Pagerank, &entry.graph, &cfg, spec);
            assert_eq!(*stats, direct, "{spec:?}");
        }
    }

    #[test]
    fn phase_feeds_refuse_topt_and_grasp_by_name() {
        let session = Session::serial();
        let entry = session.graph(SuiteGraph::Kron, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let grasp = PolicySpec::Grasp {
            hot_end: 16,
            warm_end: 64,
        };
        let phi = Feed::Phi {
            entries: phi_entries(&cfg),
        };
        for feed in [Feed::Tiled { tiles: 2 }, Feed::Pb, phi] {
            for policy in [&PolicySpec::Topt, &grasp] {
                let id = format!("refuse/{feed:?}/{}", policy.cell_tag());
                let cell = session.sim(id, feed, &entry, &cfg, policy);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.run(vec![cell])
                }));
                let payload = run.expect_err("the cell must fail");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic message");
                assert!(msg.contains(&format!("{feed:?}")), "{msg}");
            }
        }
    }

    #[test]
    fn phase_matrices_come_from_the_artifact_cache() {
        // A Figure 13 + 14 shaped batch twice, each time in a fresh
        // session over the same cache directory: the second loads every
        // tile, bin and in-CSC matrix instead of building it.
        let dir = scratch("phase-matrices");
        let cfg = Scale::Tiny.config();
        let phi = Feed::Phi {
            entries: phi_entries(&cfg),
        };
        let feeds = [
            Feed::Tiled { tiles: 1 },
            Feed::Tiled { tiles: 4 },
            Feed::Pb,
            phi,
        ];
        let specs = [
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::popt_default(),
        ];
        let batch = || {
            let cache = Arc::new(ArtifactCache::open(&dir).unwrap());
            let session = Session::parallel(2).with_cache(Arc::clone(&cache));
            let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
            let mut cells = Vec::new();
            for feed in feeds {
                for spec in &specs {
                    let id = format!("phase/{feed:?}/{}", spec.cell_tag());
                    cells.push(session.sim(id, feed, &entry, &cfg, spec));
                }
            }
            (session.run(cells), cache.counters(), entry.graph)
        };
        let (_, cold, _) = batch();
        assert!(cold.matrix_builds > 0, "{cold:?}");
        let (out, warm, g) = batch();
        assert_eq!(warm.matrix_builds, 0, "{warm:?}");
        assert!(warm.matrix_hits > 0, "{warm:?}");
        let mut stats = out.iter();
        for feed in feeds {
            for spec in &specs {
                let direct = simulate(feed, &g, &cfg, spec);
                assert_eq!(stats.next(), Some(&direct), "{feed:?} under {spec:?}");
            }
        }
    }

    /// A tiny PageRank cell on urand under baseline `kind`.
    fn cell(session: &Session, id: &str, kind: PolicyKind) -> Cell {
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let spec = PolicySpec::Baseline(kind);
        session.sim(id, App::Pagerank, &entry, &Scale::Tiny.config(), &spec)
    }

    /// `count` cells of distinct keys on one stream, ids `t/00`, `t/01`, ...
    fn cells(session: &Session, count: usize) -> Vec<Cell> {
        PolicyKind::ALL[..count]
            .iter()
            .enumerate()
            .map(|(i, &kind)| cell(session, &format!("t/{i:02}"), kind))
            .collect()
    }

    /// What [`cells`] compute, simulated directly.
    fn expected(count: usize) -> Vec<HierarchyStats> {
        let g = suite_graph(SuiteGraph::Urand, popt_graph::suite::SuiteScale::Tiny);
        PolicyKind::ALL[..count]
            .iter()
            .map(|&kind| {
                let spec = PolicySpec::Baseline(kind);
                simulate(App::Pagerank, &g, &Scale::Tiny.config(), &spec)
            })
            .collect()
    }

    /// A cell that always fails: T-OPT below propagation blocking's
    /// phases is refused by name.
    fn failing(session: &Session, id: &str) -> Cell {
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        session.sim(id, Feed::Pb, &entry, &cfg, &PolicySpec::Topt)
    }

    /// Runs a batch that must fail and returns its panic message.
    fn failure(session: &Session, batch: Vec<Cell>) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run(batch)));
        *err.expect_err("batch re-raises")
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn results_in_submission_order_serial_and_parallel() {
        let want = expected(9);
        for threads in [1, 4] {
            let session = Session::parallel(threads);
            assert_eq!(session.run(cells(&session, 9)), want);
            assert_eq!(session.count(CellOutcome::Executed), 9);
            assert_eq!(session.stream_counters().replayed, 9);
        }
    }

    #[test]
    fn journaled_cells_are_not_rerun() {
        let path = scratch("resume").join("manifest.jsonl");
        {
            let session = Session::parallel(2).with_manifest(Manifest::open(&path).unwrap());
            session.run(cells(&session, 6));
            assert_eq!(session.stream_counters().replayed, 6);
            session
                .finish()
                .unwrap()
                .write(path.parent().unwrap())
                .unwrap();
        }
        // Second run over the same journal: nothing executes.
        let session = Session::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run(cells(&session, 6));
        assert_eq!(session.count(CellOutcome::Executed), 0);
        assert_eq!(session.count(CellOutcome::Resumed), 6);
        assert_eq!(
            session.stream_counters(),
            StreamCounters::default(),
            "no re-execution"
        );
        assert_eq!(out, expected(6));
    }

    #[test]
    fn partial_journal_runs_only_the_remainder() {
        let path = scratch("partial").join("manifest.jsonl");
        {
            // First run completes only cells 0..3 (simulate a kill by
            // submitting a prefix).
            let session = Session::serial().with_manifest(Manifest::open(&path).unwrap());
            session.run(cells(&session, 3));
            // No finish(): the "killed" run never canonicalized.
        }
        let session = Session::parallel(3).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run(cells(&session, 6));
        assert_eq!(out, expected(6));
        assert_eq!(session.count(CellOutcome::Executed), 3);
        assert_eq!(session.count(CellOutcome::Resumed), 3);
        assert_eq!(
            session.stream_counters().replayed,
            3,
            "exactly 3 more executions"
        );
    }

    #[test]
    fn an_in_batch_duplicate_runs_once_and_is_journaled_under_both_ids() {
        let path = scratch("in-batch-duplicate").join("manifest.jsonl");
        let session = Session::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let out = session.run(vec![
            cell(&session, "d/a", PolicyKind::Lru),
            cell(&session, "d/b", PolicyKind::Drrip),
            cell(&session, "d/c", PolicyKind::Lru),
        ]);
        assert_eq!(out[2], out[0], "the duplicate takes its leader's stats");
        let direct = expected(6);
        assert_eq!((out[0], out[1]), (direct[0], direct[5]), "LRU, then DRRIP");
        assert_eq!(session.count(CellOutcome::Executed), 2);
        assert_eq!(session.count(CellOutcome::Shared), 1);
        assert_eq!(session.stream_counters().replayed, 2);
        let report = session.finish().unwrap();
        let shared = &report.rows()[2];
        assert_eq!(
            (shared.cell.as_str(), shared.outcome, shared.wall),
            ("d/c", CellOutcome::Shared, std::time::Duration::ZERO)
        );
        let journal = Manifest::open(&path).unwrap();
        for id in ["d/a", "d/c"] {
            assert_eq!(journal.completed(id), Some(&out[0]));
        }
    }

    #[test]
    fn completed_and_journaled_keys_serve_later_batches() {
        let path = scratch("later-batches").join("manifest.jsonl");
        let (lru, drrip) = (PolicyKind::Lru, PolicyKind::Drrip);
        let a = {
            let session = Session::serial().with_manifest(Manifest::open(&path).unwrap());
            let a = session.run(vec![cell(&session, "l/a", lru)]);
            let out = session.run(vec![
                cell(&session, "l/b", drrip),
                cell(&session, "l/a2", lru),
            ]);
            assert_eq!(out[1], a[0]);
            assert_ne!(out[0], a[0]);
            assert_eq!(session.count(CellOutcome::Shared), 1);
            assert_eq!(session.stream_counters().replayed, 2);
            a[0]
        };
        // A new session resumes `l/a` by id; its stats then serve its key
        // for a cell the journal has never seen.
        let session = Session::serial().with_manifest(Manifest::open(&path).unwrap());
        let out = session.run(vec![
            cell(&session, "l/a3", lru),
            cell(&session, "l/a", lru),
        ]);
        assert_eq!(out, [a, a]);
        assert_eq!(
            session.stream_counters(),
            StreamCounters::default(),
            "nothing ran"
        );
        assert_eq!(session.count(CellOutcome::Resumed), 1);
        assert_eq!(session.count(CellOutcome::Shared), 1);
    }

    #[test]
    fn a_duplicate_of_a_failing_cell_fails_with_it() {
        let session = Session::parallel(2);
        let msg = failure(
            &session,
            vec![
                failing(&session, "f/boom"),
                cell(&session, "f/ok", PolicyKind::Lru),
                failing(&session, "f/boom-twin"),
            ],
        );
        assert!(msg.contains("2 cell(s) failed"), "got: {msg}");
        assert!(msg.contains("f/boom-twin"), "the twin is named: {msg}");
        assert_eq!(session.stream_counters().replayed, 2, "the twin never ran");
        assert_eq!(session.count(CellOutcome::Failed), 2);
        assert_eq!(session.count(CellOutcome::Executed), 1);
        // The failed key left no stats behind: a later cell of it runs.
        let msg = failure(&session, vec![failing(&session, "f/retry")]);
        assert!(msg.contains("1 cell(s) failed"), "got: {msg}");
        assert!(msg.contains("f/retry: "), "got: {msg}");
        assert_eq!(session.stream_counters().replayed, 3);
        assert_eq!(session.count(CellOutcome::Shared), 0);
    }

    #[test]
    fn a_failing_llc_fails_only_its_own_cell() {
        // DRRIP and T-OPT share one tiled stream. T-OPT's LLC refuses the
        // tiled feed while the stream records: it and its twin fail, and
        // DRRIP still takes the whole stream and journals.
        let path = scratch("failing-llc").join("manifest.jsonl");
        let session = Session::serial().with_manifest(Manifest::open(&path).unwrap());
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let cfg = Scale::Tiny.config();
        let feed = Feed::Tiled { tiles: 2 };
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        let msg = failure(
            &session,
            vec![
                session.sim("iso/topt", feed, &entry, &cfg, &PolicySpec::Topt),
                session.sim("iso/drrip", feed, &entry, &cfg, &drrip),
                session.sim("iso/topt-twin", feed, &entry, &cfg, &PolicySpec::Topt),
            ],
        );
        assert!(msg.contains("2 cell(s) failed"), "got: {msg}");
        assert!(
            msg.contains(&format!(
                "iso/topt: T-OPT has no kernel traversal to read under {feed:?}"
            )),
            "got: {msg}"
        );
        assert!(msg.contains("iso/topt-twin: shares the key"), "got: {msg}");
        let counters = session.stream_counters();
        assert_eq!((counters.recorded, counters.replayed), (1, 2));
        assert_eq!(session.count(CellOutcome::Failed), 2);
        assert_eq!(session.count(CellOutcome::Executed), 1);
        let journal = Manifest::open(&path).unwrap();
        assert_eq!(
            journal.completed("iso/drrip"),
            Some(&simulate(feed, &entry.graph, &cfg, &drrip))
        );
        assert_eq!(journal.completed("iso/topt"), None);
    }

    #[test]
    fn a_faulted_cell_never_shares() {
        let session = Session::serial().with_fault("x/b");
        session.run(vec![cell(&session, "x/a", PolicyKind::Lru)]);
        let msg = failure(&session, vec![cell(&session, "x/b", PolicyKind::Lru)]);
        assert!(
            msg.contains("injected fault for cell \"x/b\""),
            "the injected fault fires despite the known key: {msg}"
        );
        assert_eq!(session.count(CellOutcome::Shared), 0);
        assert_eq!(session.count(CellOutcome::Failed), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_ids_are_rejected() {
        let session = Session::serial();
        session.run(vec![
            cell(&session, "same", PolicyKind::Lru),
            cell(&session, "same", PolicyKind::Drrip),
        ]);
    }

    #[test]
    fn failing_cell_does_not_abort_its_batch() {
        // The failing cell is submitted FIRST so the serial path would
        // historically have skipped everything after it; now every other
        // cell completes and journals before the batch re-raises.
        let path = scratch("failing-cell").join("manifest.jsonl");
        {
            let session = Session::parallel(2).with_manifest(Manifest::open(&path).unwrap());
            let mut batch = vec![failing(&session, "t/boom")];
            batch.extend(cells(&session, 4));
            let msg = failure(&session, batch);
            assert!(msg.contains("1 cell(s) failed"), "got: {msg}");
            assert!(msg.contains("t/boom"), "failure names the cell: {msg}");
            assert_eq!(session.count(CellOutcome::Failed), 1);
            assert_eq!(
                session.count(CellOutcome::Executed),
                4,
                "healthy cells all ran"
            );
        }
        // The journal carries the four completed cells: a resumed run
        // re-simulates only the fixed cell.
        let session = Session::parallel(2).with_manifest(Manifest::open(&path).unwrap());
        let entry = session.graph(SuiteGraph::Urand, Scale::Tiny);
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        let cfg = Scale::Tiny.config();
        let mut batch = vec![session.sim("t/boom", Feed::Pb, &entry, &cfg, &drrip)];
        batch.extend(cells(&session, 4));
        let out = session.run(batch);
        assert_eq!(out[1..], expected(4)[..]);
        assert_eq!(out[0], simulate(Feed::Pb, &entry.graph, &cfg, &drrip));
        assert_eq!(
            session.count(CellOutcome::Executed),
            1,
            "only the fixed cell runs"
        );
        assert_eq!(session.count(CellOutcome::Resumed), 4);
        assert_eq!(session.stream_counters().replayed, 1);
    }

    #[test]
    fn injected_fault_takes_the_failure_path() {
        let session = Session::serial().with_fault("t/02");
        let msg = failure(&session, cells(&session, 4));
        assert!(msg.contains("1 cell(s) failed"), "got: {msg}");
        assert!(msg.contains("t/02: injected fault"), "got: {msg}");
        assert_eq!(session.count(CellOutcome::Failed), 1);
        assert_eq!(
            session.count(CellOutcome::Executed),
            3,
            "non-matching cells ran"
        );
        assert_eq!(session.stream_counters().replayed, 3);
    }

    #[test]
    fn report_covers_all_batches() {
        let session = Session::serial();
        session.run(vec![cell(&session, "a/1", PolicyKind::Lru)]);
        session.run(vec![cell(&session, "b/1", PolicyKind::Drrip)]);
        let report = session.finish().unwrap();
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.count(CellOutcome::Executed), 2);
    }
}
