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
//!
//! It is also the row engine. Every cell is a recording of what its
//! private levels are fed ([`Feed::record`]) plus an LLC half that
//! replays it, and the cells that share a graph, a [`Feed`] and L1/L2
//! geometry share one recording: the first of them to run records the
//! post-L2 stream, and every one of them replays only its LLC from it.

use crate::runner::{checked_stats, replay_cell, Feed, MatrixCtx, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_harness::{
    ArtifactCache, ArtifactKey, ArtifactKind, CacheCounters, Manifest, SweepCell, SweepReport,
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

/// Everything a cell's post-L2 stream depends on. The LLC never feeds
/// back into the private levels, so the LLC's size, ways, reserved ways,
/// banks and policy stay out: cells differing only there share one
/// stream.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct StreamKey {
    graph_desc: String,
    feed: Feed,
    l1: CacheConfig,
    l2: CacheConfig,
}

/// The recording every consumer of one [`StreamKey`] replays.
#[derive(Debug)]
struct StreamSlot {
    /// The scheduling group of the slot's cells.
    group: u64,
    stream: OnceLock<LlcStream>,
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

/// The streams of the cells submitted and not yet finished, keyed by
/// what they depend on, each with its count of registered consumers.
#[derive(Debug, Default)]
struct StreamMemo(Mutex<MemoState>);

#[derive(Debug, Default)]
struct MemoState {
    slots: BTreeMap<StreamKey, (Arc<StreamSlot>, usize)>,
    next_group: u64,
    counters: StreamCounters,
}

impl StreamMemo {
    fn state(&self) -> MutexGuard<'_, MemoState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers one more consumer of `key`'s stream.
    fn register(self: &Arc<Self>, key: StreamKey) -> StreamConsumer {
        let mut state = self.state();
        let group = state.next_group;
        state.next_group += 1;
        let (slot, consumers) = state.slots.entry(key.clone()).or_insert_with(|| {
            let slot = StreamSlot {
                group,
                stream: OnceLock::new(),
            };
            (Arc::new(slot), 0)
        });
        *consumers += 1;
        let slot = Arc::clone(slot);
        StreamConsumer {
            memo: Arc::clone(self),
            key,
            slot,
        }
    }
}

/// One cell's claim on a shared stream. Dropping it — after the cell
/// ran, failed, or was resumed from the journal without running — releases
/// the claim; the last release frees the stream.
#[derive(Debug)]
struct StreamConsumer {
    memo: Arc<StreamMemo>,
    key: StreamKey,
    slot: Arc<StreamSlot>,
}

impl StreamConsumer {
    /// The shared stream, recorded by `record` if no consumer has yet;
    /// concurrent consumers wait for that one recording.
    fn stream(&self, record: impl FnOnce() -> LlcStream) -> &LlcStream {
        let stream = self.slot.stream.get_or_init(|| {
            let stream = record();
            let counters = &mut self.memo.state().counters;
            counters.recorded += 1;
            counters.live += 1;
            counters.peak_live = counters.peak_live.max(counters.live);
            stream
        });
        self.memo.state().counters.replayed += 1;
        stream
    }
}

impl Drop for StreamConsumer {
    fn drop(&mut self) {
        let mut state = self.memo.state();
        let Some((_, consumers)) = state.slots.get_mut(&self.key) else {
            return;
        };
        *consumers -= 1;
        if *consumers == 0 {
            state.slots.remove(&self.key);
            if self.slot.stream.get().is_some() {
                state.counters.live -= 1;
            }
        }
    }
}

/// Run-wide execution context for the experiment drivers.
#[derive(Debug)]
pub struct Session {
    sweep: SweepSession,
    cache: Option<Arc<ArtifactCache>>,
    graphs: Mutex<BTreeMap<String, Arc<Graph>>>,
    streams: Arc<StreamMemo>,
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
            streams: Arc::default(),
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

    /// A simulation cell: `feed`'s post-L2 stream on a graph known by
    /// descriptor, under `cfg`'s L1 and L2, replayed by `llc`, the cell's
    /// LLC half. `llc` gets the graph, `cfg`, the session's matrix cache
    /// context and the stream; the session checks the stats it returns
    /// against the conservation laws of [`HierarchyStats::check`].
    ///
    /// Cells with the same graph descriptor, feed and L1/L2 geometry share
    /// one kernel + private-level pass: the first of them to run records
    /// the stream, each replays only its LLC from it, and the stream is
    /// freed once the last of them is done (or dropped unrun).
    /// [`run`](Session::run) starts such cells back to back.
    pub fn cell(
        &self,
        id: impl Into<String>,
        graph: &Arc<Graph>,
        graph_desc: &str,
        cfg: &HierarchyConfig,
        feed: Feed,
        llc: impl FnOnce(&Graph, &HierarchyConfig, Option<&MatrixCtx>, &LlcStream) -> HierarchyStats
            + Send
            + 'static,
    ) -> SweepCell<'static> {
        let id = id.into();
        let what = id.clone();
        let graph = Arc::clone(graph);
        let cfg = cfg.clone();
        let ctx = self.matrix_ctx(graph_desc);
        let consumer = self.streams.register(StreamKey {
            graph_desc: graph_desc.to_string(),
            feed,
            l1: cfg.l1,
            l2: cfg.l2,
        });
        let group = consumer.slot.group;
        SweepCell::new(id, move || {
            let stream = consumer.stream(|| feed.record(&graph, &cfg, ctx.as_ref()));
            checked_stats(&llc(&graph, &cfg, ctx.as_ref(), stream), || what)
        })
        .in_group(group)
    }

    /// A standard simulation cell: `feed`'s stream against a graph known
    /// by descriptor, replayed into `policy`'s LLC for the feed's
    /// [`app`](Feed::app) — a [`cell`](Session::cell) whose LLC half is
    /// [`replay_cell`], with matrix construction deduped through the
    /// session cache. An [`App`](popt_kernels::App) is its
    /// [`Feed::Kernel`], so `sim_cell(id, app, ..)` is `simulate(app,
    /// graph, cfg, policy)`.
    pub fn sim_cell(
        &self,
        id: impl Into<String>,
        feed: impl Into<Feed>,
        graph: &Arc<Graph>,
        graph_desc: &str,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> SweepCell<'static> {
        let feed = feed.into();
        let policy = policy.clone();
        self.cell(id, graph, graph_desc, cfg, feed, move |g, cfg, ctx, s| {
            replay_cell(feed.app(), g, cfg, &policy, ctx, s)
        })
    }

    /// [`sim_cell`](Session::sim_cell) against a suite entry.
    pub fn sim(
        &self,
        id: impl Into<String>,
        feed: impl Into<Feed>,
        entry: &SuiteEntry,
        cfg: &HierarchyConfig,
        policy: &PolicySpec,
    ) -> SweepCell<'static> {
        self.sim_cell(id, feed, &entry.graph, &entry.desc, cfg, policy)
    }

    /// Runs a batch of cells, returning stats in submission order (see
    /// [`SweepSession::run_cells`]). Cells sharing a stream start back
    /// to back, so about one stream per worker is held at a time.
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

    /// LLC streams recorded, replayed and held so far.
    pub fn stream_counters(&self) -> StreamCounters {
        self.streams.state().counters
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
    use crate::runner::{phase_llc, phi_entries, policy_llc, PhasePolicy};
    use popt_kernels::App;
    use popt_sim::{Hierarchy, Llc, PolicyKind};
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

    /// The LLC a differential check runs `feed` under: `policy`'s for
    /// PageRank (or the feed's kernel), or for a phase feed its own LLC
    /// under DRRIP for a baseline and P-OPT otherwise.
    fn feed_llc(feed: Feed, g: &Graph, cfg: &HierarchyConfig, policy: &PolicySpec) -> Llc {
        let phase = match policy {
            PolicySpec::Baseline(_) => PhasePolicy::Drrip,
            _ => PhasePolicy::Popt,
        };
        if let Feed::Tiled { .. } | Feed::Pb | Feed::Phi { .. } = feed {
            return phase_llc(g, cfg, feed, phase);
        }
        let app = feed.app();
        policy_llc(app, g, cfg, &app.plan(g), policy, None)
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
                let mut h =
                    Hierarchy::with_llc(&cfg, feed.cores(), feed_llc(feed, g, &cfg, &policy));
                let Ok(()) = feed.drive(g, None, &mut h);
                live.push((feed, policy.clone(), h.stats()));
                let id = format!("exec/feeds/{feed:?}/{}", policy.cell_tag());
                cells.push(
                    session.cell(id, g, &entry.desc, &cfg, feed, move |g, cfg, _, s| {
                        feed_llc(feed, g, cfg, &policy).replay(s)
                    }),
                );
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
            let mut cells: Vec<SweepCell<'static>> = specs[..4]
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
        assert_eq!(resumed.resumed(), 3);
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
}
