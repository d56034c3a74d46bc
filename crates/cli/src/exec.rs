//! The experiment session: the bridge between figure drivers and
//! `popt-harness`.
//!
//! A [`Session`] wraps a [`SweepSession`] (thread budget, resume journal,
//! and the stats of every content key it has run) together with the
//! optional artifact cache and an in-process memo of suite graphs, so that
//! every figure driver can:
//!
//! 1. materialize its input graphs exactly once per process (and once per
//!    *cache directory* across processes),
//! 2. submit simulation cells in its old serial order, and
//! 3. read results back in that same order — which keeps emitted CSVs
//!    byte-identical to the historical serial runs at any `--jobs` level.
//!
//! A cell is plain data ([`Cell`]) whose graph, [`Feed`], hierarchy
//! configuration and [`PolicySpec`] are its content key: the session runs
//! each key once, as a recording of its feed ([`Feed::record`]) that its
//! LLC replays, and a batch's cells of one graph, feed and L1/L2 geometry
//! share one recording.

use crate::runner::{replay, Feed, MatrixCtx, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_harness::{
    ArtifactCache, ArtifactKey, ArtifactKind, CellOutcome, Manifest, SweepCell, SweepReport,
    SweepSession,
};
use popt_sim::{CacheConfig, HierarchyConfig, HierarchyStats, LlcStream};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// Streams recorded: kernel + L1/L2 passes run.
    pub recorded: u64,
    /// LLC replays run, one per executed cell.
    pub replayed: u64,
    /// Streams held right now.
    pub live: u64,
    /// The most streams held at once.
    pub peak_live: u64,
}

impl StreamCounters {
    /// The `"streams"` object of `sweep_summary.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"recorded\":{},\"replayed\":{},\"peak_live\":{}}}",
            self.recorded, self.replayed, self.peak_live
        )
    }
}

type Counters = Arc<Mutex<StreamCounters>>;

/// Locks the counters. They are plain tallies, valid after any panic, and
/// a slot's `Drop` locks them, which must not panic.
fn counters(c: &Counters) -> MutexGuard<'_, StreamCounters> {
    c.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The recording the cells of one [`StreamKey`] in a batch replay. Each
/// of those cells holds it, so it is freed with the last of them, run or
/// dropped unrun.
#[derive(Debug)]
struct StreamSlot {
    stream: OnceLock<LlcStream>,
    counters: Counters,
}

impl StreamSlot {
    /// The stream, recorded by `record` if no cell has yet; concurrent
    /// cells wait for that one recording.
    fn stream(&self, record: impl FnOnce() -> LlcStream) -> &LlcStream {
        let stream = self.stream.get_or_init(|| {
            let stream = record();
            let mut c = counters(&self.counters);
            c.recorded += 1;
            c.live += 1;
            c.peak_live = c.peak_live.max(c.live);
            stream
        });
        counters(&self.counters).replayed += 1;
        stream
    }
}

impl Drop for StreamSlot {
    fn drop(&mut self) {
        if self.stream.get().is_some() {
            counters(&self.counters).live -= 1;
        }
    }
}

/// Run-wide execution context for the experiment drivers.
#[derive(Debug)]
pub struct Session {
    sweep: SweepSession,
    cache: Option<Arc<ArtifactCache>>,
    graphs: Mutex<BTreeMap<String, Arc<Graph>>>,
    streams: Counters,
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
            streams: Counters::default(),
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
    /// descriptor, under `cfg`'s L1 and L2, replayed into `policy`'s LLC
    /// for the feed ([`replay`]) under `cfg`. An
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

    /// Runs a batch of cells, returning stats in submission order (see
    /// [`SweepSession::run_cells`]: a cell whose key the session already
    /// ran, or runs earlier in the batch, is shared instead of run).
    ///
    /// The cells of one stream key start back to back, where the first of
    /// them was submitted: the first to run records the stream, each
    /// replays only its LLC from it, and the stream is freed once the last
    /// of them is done (or dropped unrun), so about one stream per worker
    /// is held at a time.
    pub fn run(&self, cells: Vec<Cell>) -> Vec<HierarchyStats> {
        let mut slots: BTreeMap<StreamKey, (usize, Arc<StreamSlot>)> = BTreeMap::new();
        let mut grouped: Vec<(usize, usize, SweepCell<'static>)> = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let key = StreamKey {
                graph_desc: cell.graph_desc.clone(),
                feed: cell.feed,
                l1: cell.cfg.l1,
                l2: cell.cfg.l2,
            };
            let (rank, slot) = slots.entry(key).or_insert_with(|| {
                let slot = StreamSlot {
                    stream: OnceLock::new(),
                    counters: Arc::clone(&self.streams),
                };
                (i, Arc::new(slot))
            });
            grouped.push((*rank, i, self.sweep_cell(cell, Arc::clone(slot))));
        }
        drop(slots);
        grouped.sort_by_key(|&(rank, ..)| rank);
        let (order, grouped): (Vec<usize>, Vec<SweepCell<'static>>) =
            grouped.into_iter().map(|(_, i, cell)| (i, cell)).unzip();
        let mut out = vec![HierarchyStats::default(); order.len()];
        for (i, stats) in order.into_iter().zip(self.sweep.run_cells(grouped)) {
            out[i] = stats;
        }
        out
    }

    /// The harness cell that replays `cell`'s LLC from `slot`'s stream.
    fn sweep_cell(&self, cell: Cell, slot: Arc<StreamSlot>) -> SweepCell<'static> {
        let key = cell.key();
        let ctx = self.matrix_ctx(&cell.graph_desc);
        let Cell {
            id,
            graph,
            cfg,
            feed,
            policy,
            ..
        } = cell;
        SweepCell::new(id, key, move || {
            let stream = slot.stream(|| feed.record(&graph, &cfg, ctx.as_ref()));
            replay(feed, &graph, &cfg, &policy, ctx.as_ref(), stream)
        })
    }

    /// Number of cells so far whose result materialized as `outcome`.
    pub fn count(&self, outcome: CellOutcome) -> usize {
        self.sweep.count(outcome)
    }

    /// LLC streams recorded, replayed and held so far.
    pub fn stream_counters(&self) -> StreamCounters {
        *counters(&self.streams)
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
                live: 0,
                peak_live: 1,
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
        assert!(
            (1..=2).contains(&counters.peak_live),
            "two workers hold at most two streams: {counters:?}"
        );
        assert_eq!(counters.live, 0, "every stream is freed after the batch");
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
            (counters.recorded, counters.replayed, counters.live),
            (feeds.len() as u64, out.len() as u64, 0)
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
        assert_eq!(counters.live, 0, "faulted cells released their claims");
        drop(faulted);

        // Resuming: the three journaled urand cells release their claims
        // without running; the two LRU cells record and replay.
        let resumed = Session::parallel(2).with_manifest(Manifest::open(&journal).unwrap());
        let out = resumed.run(batch(&resumed));
        assert_eq!(resumed.count(CellOutcome::Resumed), 3);
        let counters = resumed.stream_counters();
        assert_eq!(
            (counters.recorded, counters.replayed, counters.live),
            (2, 2, 0)
        );
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
}
