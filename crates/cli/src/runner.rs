//! Simulation plumbing: composes kernels, graphs, hierarchy configurations
//! and replacement policies into end-to-end trace-driven runs.

use popt_core::prefetch::PrefetchingSink;
use popt_core::{Encoding, Popt, PoptConfig, Quantization, StreamBinding, TieBreak, Topt};
use popt_graph::{Graph, VertexId};
use popt_harness::{ArtifactCache, ArtifactKey, ArtifactKind};
use popt_kernels::{App, TracePlan};
use popt_sim::policies::{Grasp, GraspRegions};
use popt_sim::{
    Hierarchy, HierarchyConfig, HierarchyStats, Llc, LlcSink, LlcStream, PolicyKind, PrivateLevels,
    TimingModel,
};
use popt_trace::paging::PageScrambler;
use popt_trace::TraceSink;
use std::convert::Infallible;
use std::sync::Arc;

/// Which LLC replacement policy to simulate.
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// One of the graph-agnostic baselines.
    Baseline(PolicyKind),
    /// Belady's MIN, built from a recorded LLC stream (single-bank LLC
    /// only).
    Belady,
    /// Transpose-based optimal (idealized T-OPT).
    Topt,
    /// The P-OPT policy.
    Popt {
        /// Quantization level (the paper's default is 8-bit).
        quant: Quantization,
        /// Rereference Matrix entry encoding.
        encoding: Encoding,
        /// Limit-study mode: no way reservation, no streaming charges
        /// (Figure 15 "omits the costs of storing Rereference Matrix
        /// columns in LLC").
        limit_study: bool,
    },
    /// GRASP with DBG-derived region boundaries (vertex IDs in the
    /// *reordered* space).
    Grasp {
        /// End of the hot vertex region (exclusive).
        hot_end: VertexId,
        /// End of the warm vertex region (exclusive).
        warm_end: VertexId,
    },
}

impl PolicySpec {
    /// The paper's default P-OPT configuration (8-bit, inter+intra, full
    /// cost accounting).
    pub fn popt_default() -> Self {
        PolicySpec::Popt {
            quant: Quantization::EIGHT,
            encoding: Encoding::InterIntra,
            limit_study: false,
        }
    }

    /// Display label for figures.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Baseline(kind) => kind.label().to_string(),
            PolicySpec::Belady => "OPT".to_string(),
            PolicySpec::Topt => "T-OPT".to_string(),
            PolicySpec::Popt {
                quant, encoding, ..
            } => {
                if *quant == Quantization::EIGHT {
                    encoding.label().to_string()
                } else {
                    format!("{}-{}b", encoding.label(), quant.bits())
                }
            }
            PolicySpec::Grasp { .. } => "GRASP".to_string(),
        }
    }

    /// Stable, path-safe tag for sweep cell ids. Unlike [`label`], this
    /// distinguishes every spec variant (quantization, limit-study mode,
    /// GRASP boundaries) so that two distinct simulations can never share
    /// a cell id.
    ///
    /// [`label`]: PolicySpec::label
    pub fn cell_tag(&self) -> String {
        match self {
            PolicySpec::Baseline(kind) => kind.label().to_lowercase(),
            PolicySpec::Belady => "opt".to_string(),
            PolicySpec::Topt => "topt".to_string(),
            PolicySpec::Popt {
                quant,
                encoding,
                limit_study,
            } => format!(
                "popt-q{}-{}{}",
                quant.bits(),
                encoding_tag(*encoding),
                if *limit_study { "-limit" } else { "" }
            ),
            PolicySpec::Grasp { hot_end, warm_end } => {
                format!("grasp-h{hot_end}-w{warm_end}")
            }
        }
    }
}

/// Short stable tag for an encoding, used in cell ids and cache keys.
fn encoding_tag(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::InterOnly => "io",
        Encoding::InterIntra => "ii",
        Encoding::SingleEpoch => "se",
    }
}

/// Parses a thread-count override (the `POPT_THREADS` value): a positive
/// integer, clamped to at least 1. Returns `None` for anything that does
/// not parse, leaving the caller on its default.
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Worker threads for Rereference Matrix preprocessing.
///
/// Honors the `POPT_THREADS` environment variable when it holds a positive
/// integer; otherwise falls back to the machine's available parallelism.
pub fn preprocess_threads() -> usize {
    if let Ok(v) = std::env::var("POPT_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shared-artifact context for cache-aware simulation: the artifact cache
/// plus the stable descriptor of the graph the matrices derive from.
///
/// The graph descriptor is part of every matrix cache key — two different
/// graphs must never share a Rereference Matrix artifact.
#[derive(Debug, Clone)]
pub struct MatrixCtx {
    /// The run-wide artifact cache.
    pub cache: Arc<ArtifactCache>,
    /// Stable descriptor of the source graph (e.g. `suite/v1/urand/small`).
    pub graph_desc: String,
}

/// Builds the P-OPT stream bindings for a kernel's plan: one Rereference
/// Matrix per irregular region, built from the traversal's transpose.
pub fn popt_bindings(
    app: App,
    g: &Graph,
    plan: &TracePlan,
    quant: Quantization,
    encoding: Encoding,
) -> Vec<StreamBinding> {
    popt_bindings_cached(app, g, plan, quant, encoding, None)
}

/// [`popt_bindings`], with matrix construction deduped through an artifact
/// cache when `ctx` is provided. The cache key captures every build input:
/// source graph, traversal direction, irregular-region index, elements per
/// line, vertices per element, quantization and encoding.
pub fn popt_bindings_cached(
    app: App,
    g: &Graph,
    plan: &TracePlan,
    quant: Quantization,
    encoding: Encoding,
    ctx: Option<&MatrixCtx>,
) -> Vec<StreamBinding> {
    let transpose = g.transpose_of(app.direction());
    plan.irregs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let region = plan.space.region(spec.region);
            let build = || {
                popt_core::preprocess::build_parallel(
                    transpose,
                    region.elems_per_line() as u32,
                    spec.vertices_per_elem,
                    quant,
                    encoding,
                    preprocess_threads(),
                )
            };
            let matrix = match ctx {
                Some(ctx) => {
                    let desc = format!(
                        "rrm/v1/{}/dir={:?}/region={i}/epl={}/vpe={}/q={}/enc={}",
                        ctx.graph_desc,
                        app.direction(),
                        region.elems_per_line(),
                        spec.vertices_per_elem,
                        quant.bits(),
                        encoding_tag(encoding),
                    );
                    let key = ArtifactKey::new(ArtifactKind::Matrix, &desc);
                    ctx.cache.matrix(&key, build)
                }
                None => Arc::new(build()),
            };
            StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix,
            }
        })
        .collect()
}

/// LLC ways that must be reserved for a set of stream bindings.
///
/// An empty binding set (or one whose matrices are all zero-sized) needs
/// no reservation at all; a matrix bigger than an LLC bank is capped one
/// way short of the full associativity so the irregular data always keeps
/// at least one way.
pub fn reserved_ways_for(bindings: &[StreamBinding], cfg: &HierarchyConfig) -> usize {
    let bytes: u64 = bindings.iter().map(|b| b.matrix.resident_bytes()).sum();
    if bytes == 0 {
        return 0;
    }
    let ways = (bytes as usize).div_ceil(cfg.llc_bank().way_bytes()).max(1);
    ways.min(cfg.llc.ways().saturating_sub(1))
}

/// Runs one full simulation and returns the hierarchy statistics.
///
/// # Panics
///
/// Panics if `PolicySpec::Belady` is requested with a multi-bank LLC (the
/// oracle needs one globally-ordered LLC stream).
pub fn simulate(app: App, g: &Graph, cfg: &HierarchyConfig, policy: &PolicySpec) -> HierarchyStats {
    simulate_cached(app, g, cfg, policy, None)
}

/// [`simulate`], with Rereference Matrix construction deduped through an
/// artifact cache when `ctx` is provided. Results are bit-identical to the
/// uncached path — the cache only changes *where* matrices come from.
///
/// The cell runs as a [`Hierarchy::pipelined`] pair of threads: this one
/// runs the kernel through the L1/L2 recorder, and a second one builds
/// `policy`'s LLC (a P-OPT matrix build included) and applies the post-L2
/// stream to it as it arrives. Belady, whose oracle needs the whole
/// stream first, records and then replays. Nothing is kept for later
/// calls; callers simulating a row of LLC policies over one stream share
/// the recording through [`Feed::record`] and [`LlcSpec::replay`] instead.
///
/// # Panics
///
/// Panics if the returned statistics break a conservation law of
/// [`HierarchyStats::check`] — a simulator bug, reported loudly rather
/// than written into a result table — and re-raises any panic of the LLC
/// thread.
pub fn simulate_cached(
    app: App,
    g: &Graph,
    cfg: &HierarchyConfig,
    policy: &PolicySpec,
    ctx: Option<&MatrixCtx>,
) -> HierarchyStats {
    let feed = Feed::Kernel(app);
    if matches!(policy, PolicySpec::Belady) {
        let stream = feed.record(g, cfg, ctx);
        return LlcSpec::Policy(PolicySpec::Belady).replay(feed, g, cfg, ctx, &stream);
    }
    let Ok(stats) = Hierarchy::pipelined(
        cfg,
        1,
        || policy_llc(app, g, cfg, &app.plan(g), policy, ctx),
        |recorder| feed.drive(g, ctx, recorder),
    );
    checked_stats(&stats, || format!("{app} under {policy:?}"))
}

/// What a cell's private levels are fed: everything its post-L2 stream
/// depends on besides the graph and the L1/L2 geometry. The LLC never
/// feeds back into the private levels, so every cell is a recording of
/// its feed ([`Feed::record`]) plus an LLC that replays it, and cells
/// whose graph, feed and L1/L2 agree share one recording, whatever their
/// LLCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Feed {
    /// A kernel's single-core trace: the plain (app, graph, policy) cells.
    Kernel(App),
    /// PageRank on `cores` cores, interleaved within epoch-serial blocks
    /// (paper Section V-F).
    Parallel {
        /// Cores with their own L1 and L2.
        cores: usize,
    },
    /// PageRank with epoch-ahead prefetching from its 8-bit Rereference
    /// Matrix (paper Section VIII).
    Prefetch,
    /// PageRank preempted by this many evenly spaced context switches
    /// (paper Section V-F).
    Switches(usize),
    /// PageRank with its pages mapped to scattered 4 KiB frames (paper
    /// Section V-B).
    PageMap,
    /// PageRank visiting destinations in HATS-BDFS order (Figure 12b).
    Bdfs,
    /// CSR-segmented PageRank (Figure 13).
    Tiled {
        /// Number of tiles.
        tiles: usize,
    },
    /// Propagation Blocking's binning phase (Figure 14).
    Pb,
    /// The PHI-filtered scatter phase (Figure 14).
    Phi {
        /// PHI's aggregation capacity ([`phi_entries`] of the LLC).
        entries: usize,
    },
}

/// Seed of [`Feed::PageMap`]'s frame scrambler.
const PAGE_MAP_SEED: u64 = 0xfeed;

impl From<App> for Feed {
    fn from(app: App) -> Self {
        Feed::Kernel(app)
    }
}

impl Feed {
    /// The kernel this feed runs: PageRank unless it is a [`Feed::Kernel`].
    pub(crate) fn app(self) -> App {
        match self {
            Feed::Kernel(app) => app,
            _ => App::Pagerank,
        }
    }

    /// Cores with their own L1 and L2 in this feed's runs.
    pub(crate) fn cores(self) -> usize {
        match self {
            Feed::Parallel { cores } => cores,
            _ => 1,
        }
    }

    /// Records this feed's post-L2 stream on `g` under `cfg`'s L1 and L2:
    /// the kernel and private-level half of a cell. `ctx` dedupes the
    /// prefetcher's matrix build. The stream does not depend on the LLC's
    /// configuration or policy, so one recording serves every LLC that
    /// replays it.
    pub fn record(self, g: &Graph, cfg: &HierarchyConfig, ctx: Option<&MatrixCtx>) -> LlcStream {
        let Ok(stream) = Hierarchy::record_llc(cfg, self.cores(), |r| self.drive(g, ctx, r));
        stream
    }

    /// The memory layout of this feed's kernel on `g`.
    fn plan(self, g: &Graph) -> TracePlan {
        use popt_kernels::{pagerank, pb, tiled};
        match self {
            Feed::Kernel(app) => app.plan(g),
            Feed::Tiled { .. } => tiled::plan(g),
            Feed::Pb => pb::plan_pb(g, pb::BinningConfig::for_graph(g)),
            Feed::Phi { .. } => pb::plan_phi(g),
            _ => pagerank::plan(g),
        }
    }

    /// Feeds this feed's events on `g` to `levels`, whose cores must number
    /// [`cores`](Feed::cores), with its irregular regions registered.
    pub(crate) fn drive<S: LlcSink>(
        self,
        g: &Graph,
        ctx: Option<&MatrixCtx>,
        levels: &mut PrivateLevels<S>,
    ) -> Result<(), Infallible> {
        use popt_kernels::{hats, pagerank, pb, tiled};
        let plan = self.plan(g);
        levels.set_address_space(&plan.space);
        match self {
            Feed::Kernel(app) => app.trace(g, &plan, levels),
            Feed::Parallel { cores } => {
                // Serial blocks of one 8-bit epoch stand in for the
                // epoch-serial execution the paper requires of P-OPT runs.
                let block = Quantization::EIGHT.epoch_size(g.num_vertices()) as usize;
                pagerank::trace_parallel(g, &plan, levels, cores, block);
            }
            Feed::Prefetch => {
                let (q, e) = (Quantization::EIGHT, Encoding::InterIntra);
                let bindings = popt_bindings_cached(App::Pagerank, g, &plan, q, e, ctx);
                let binding = &bindings[0];
                let sink = PrefetchingSink::new(levels, &binding.matrix, binding.base);
                pagerank::trace(g, &plan, sink);
            }
            Feed::Switches(switches) => {
                // Interleave the kernel trace with evenly spaced preemptions.
                let mut rec = popt_trace::RecordingSink::new();
                pagerank::trace(g, &plan, &mut rec);
                let events = rec.into_events();
                let period = events.len() / (switches + 1);
                for (i, event) in events.into_iter().enumerate() {
                    if i > 0 && i % period == 0 {
                        levels.context_switch();
                    }
                    levels.event(event);
                }
            }
            Feed::PageMap => pagerank::trace(g, &plan, PageScrambler::new(levels, PAGE_MAP_SEED)),
            Feed::Bdfs => {
                let order = hats::bdfs_order(g, hats::DEFAULT_DEPTH_BOUND);
                pagerank::trace_ordered(g, &plan, levels, Some(&order));
            }
            Feed::Tiled { tiles } => {
                tiled::trace(g, &popt_graph::tiling::segment(g, tiles), &plan, levels);
            }
            Feed::Pb => pb::trace_pb(g, pb::BinningConfig::for_graph(g), &plan, levels),
            Feed::Phi { entries } => pb::trace_phi(g, entries, &plan, levels),
        }
        Ok(())
    }
}

/// The LLC half of a cell: what replays its [`Feed`]'s recorded stream.
/// With the graph, the feed and the hierarchy configuration, it is all a
/// cell's stats depend on.
#[derive(Debug, Clone)]
pub enum LlcSpec {
    /// `policy`'s LLC for the feed's kernel ([`policy_llc`]), or Belady's
    /// MIN built from the stream.
    Policy(PolicySpec),
    /// Limit-study P-OPT at this quantization, inter+intra encoded, that
    /// settles quantization ties by taking the first tied way instead of
    /// RRIP's choice (Extension 5's tie-break ablation).
    FirstWay(Quantization),
    /// A phase feed's LLC under this policy ([`phase_llc`]).
    Phase(PhasePolicy),
}

impl LlcSpec {
    /// Replays `stream`, `feed`'s recording on `g` under `cfg`'s L1 and L2,
    /// into this LLC under `cfg` (`ctx` dedupes matrix builds): for a
    /// [`Feed::Kernel`] under [`LlcSpec::Policy`], exactly what
    /// [`simulate_cached`] returns.
    ///
    /// # Panics
    ///
    /// On a multi-bank LLC under `PolicySpec::Belady`, under
    /// [`PhasePolicy::Popt`] if `feed` is not a phase feed, and if the
    /// stats break a conservation law of [`HierarchyStats::check`].
    pub fn replay(
        &self,
        feed: Feed,
        g: &Graph,
        cfg: &HierarchyConfig,
        ctx: Option<&MatrixCtx>,
        stream: &LlcStream,
    ) -> HierarchyStats {
        let app = feed.app();
        let stats = match self {
            LlcSpec::Policy(PolicySpec::Belady) => Llc::belady_from_stream(cfg, stream),
            LlcSpec::Policy(policy) => {
                policy_llc(app, g, cfg, &app.plan(g), policy, ctx).replay(stream)
            }
            LlcSpec::FirstWay(quant) => {
                let plan = app.plan(g);
                let bindings =
                    popt_bindings_cached(app, g, &plan, *quant, Encoding::InterIntra, ctx);
                let config = PoptConfig {
                    tie_break: TieBreak::FirstCandidate,
                    ..PoptConfig::new(bindings)
                };
                popt_llc(cfg, config, true).replay(stream)
            }
            LlcSpec::Phase(policy) => phase_llc(g, cfg, feed, *policy).replay(stream),
        };
        checked_stats(&stats, || format!("{feed:?} under {self:?}"))
    }
}

/// Returns `stats` after asserting [`HierarchyStats::check`]; `what` names
/// the run in the panic message.
fn checked_stats(stats: &HierarchyStats, what: impl FnOnce() -> String) -> HierarchyStats {
    if let Err(violation) = stats.check() {
        panic!("{}: {violation}", what());
    }
    *stats
}

/// Builds the LLC `policy` runs in under `cfg` (P-OPT's reserved ways
/// included), ready for a post-L2 stream — the single construction path
/// shared by [`simulate_cached`]'s LLC thread and [`LlcSpec::replay`].
///
/// # Panics
///
/// Panics on [`PolicySpec::Belady`]: the oracle is built *from* a recorded
/// LLC stream, so it cannot be constructed ahead of event delivery. Use
/// [`simulate_cached`] or [`LlcSpec::replay`] for Belady.
pub fn policy_llc(
    app: App,
    g: &Graph,
    cfg: &HierarchyConfig,
    plan: &TracePlan,
    policy: &PolicySpec,
    ctx: Option<&MatrixCtx>,
) -> Llc {
    match policy {
        PolicySpec::Baseline(kind) => {
            let kind = *kind;
            Llc::new(cfg, move |sets, ways| kind.build(sets, ways))
        }
        PolicySpec::Belady => {
            panic!("Belady is two-pass; it cannot be built ahead of event delivery")
        }
        PolicySpec::Topt => {
            let transpose = Arc::new(g.transpose_of(app.direction()).clone());
            let streams = plan.irregular_streams();
            Llc::new(cfg, move |sets, ways| {
                Box::new(Topt::new(
                    Arc::clone(&transpose),
                    streams.clone(),
                    sets,
                    ways,
                ))
            })
        }
        PolicySpec::Popt {
            quant,
            encoding,
            limit_study,
        } => {
            let bindings = popt_bindings_cached(app, g, plan, *quant, *encoding, ctx);
            popt_llc(cfg, PoptConfig::new(bindings), *limit_study)
        }
        PolicySpec::Grasp { hot_end, warm_end } => {
            // Map DBG vertex boundaries to line numbers of the first
            // irregular region.
            let region = plan.space.region(plan.irregs[0].region);
            let elems_per_line = region.elems_per_line();
            let base_line = region.base() >> popt_trace::LINE_SHIFT;
            let hot = base_line + *hot_end as u64 / elems_per_line;
            let warm = base_line + *warm_end as u64 / elems_per_line;
            let regions = GraspRegions::new(base_line, hot, warm);
            Llc::new(cfg, move |sets, ways| {
                Box::new(Grasp::new(sets, ways, regions))
            })
        }
    }
}

/// Builds a P-OPT LLC under `cfg` from `config`'s stream bindings: the
/// P-OPT arm of [`policy_llc`], [`LlcSpec::FirstWay`] and the phase LLCs.
/// A limit study reserves no ways and charges no streaming (Figure 15);
/// otherwise [`reserved_ways_for`] the bindings are reserved and epoch
/// refills are charged.
fn popt_llc(cfg: &HierarchyConfig, mut config: PoptConfig, limit_study: bool) -> Llc {
    config.charge_streaming = !limit_study;
    let cfg = if limit_study {
        cfg.clone()
    } else {
        cfg.clone()
            .with_reserved_ways(reserved_ways_for(&config.streams, cfg))
    };
    Llc::new(&cfg, move |sets, ways| {
        Box::new(Popt::new(config.clone(), sets, ways))
    })
}

/// LLC policy choice for the phase feeds: [`Feed::Tiled`], [`Feed::Pb`]
/// and [`Feed::Phi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePolicy {
    /// DRRIP baseline.
    Drrip,
    /// P-OPT with the default 8-bit inter+intra configuration.
    Popt,
}

/// The LLC of a phase feed's run on `g` under `policy`: DRRIP, or P-OPT
/// over the phase's own Rereference Matrix — the bins' transpose for
/// [`Feed::Pb`], the in-CSC for [`Feed::Phi`]'s push-style scatter, and
/// one matrix per tile for [`Feed::Tiled`] (Figures 13 and 14).
///
/// # Panics
///
/// Panics under P-OPT if `feed` is not a phase feed.
pub(crate) fn phase_llc(g: &Graph, cfg: &HierarchyConfig, feed: Feed, policy: PhasePolicy) -> Llc {
    use popt_kernels::pb;
    if policy == PhasePolicy::Drrip {
        return Llc::new(cfg, |sets, ways| PolicyKind::Drrip.build(sets, ways));
    }
    let plan = feed.plan(g);
    let region = plan.space.region(plan.irregs[0].region);
    let matrix = match feed {
        Feed::Tiled { tiles } => return tiled_popt_llc(g, cfg, region, tiles),
        Feed::Pb => {
            let bins = pb::BinningConfig::for_graph(g);
            let transpose = pb::bin_transpose(g, bins);
            let (q, e) = (Quantization::EIGHT, Encoding::InterIntra);
            popt_core::RerefMatrix::build_range(&transpose, 0, bins.num_bins, 1, 1, q, e)
        }
        Feed::Phi { .. } => popt_core::preprocess::build_parallel(
            g.in_csr(),
            region.elems_per_line() as u32,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
            preprocess_threads(),
        ),
        _ => panic!("{feed:?} is not a phase feed"),
    };
    let binding = StreamBinding {
        base: region.base(),
        bound: region.bound(),
        matrix: Arc::new(matrix),
    };
    popt_llc(cfg, PoptConfig::new(vec![binding]), false)
}

/// Runs a phase feed on `g` under `cfg`: records its stream and replays it
/// into [`phase_llc`]'s LLC for `policy`.
///
/// # Panics
///
/// Panics like [`LlcSpec::replay`] under [`LlcSpec::Phase`].
pub fn simulate_phase(
    g: &Graph,
    cfg: &HierarchyConfig,
    feed: Feed,
    policy: PhasePolicy,
) -> HierarchyStats {
    LlcSpec::Phase(policy).replay(feed, g, cfg, None, &feed.record(g, cfg, None))
}

/// Wrapper policy for CSR-segmented execution: each tile is a separate
/// pass with its own (smaller) Rereference Matrix; the wrapper swaps
/// P-OPT instances at `IterationBegin` boundaries, accumulating overheads.
struct TiledPopt {
    configs: Vec<PoptConfig>,
    next: usize,
    started: bool,
    sets: usize,
    ways: usize,
    inner: Popt,
    carry: popt_sim::PolicyOverheads,
}

impl TiledPopt {
    fn new(configs: Vec<PoptConfig>, sets: usize, ways: usize) -> Self {
        assert!(!configs.is_empty(), "need at least one tile");
        let inner = Popt::new(configs[0].clone(), sets, ways);
        TiledPopt {
            configs,
            next: 1,
            started: false,
            sets,
            ways,
            inner,
            carry: Default::default(),
        }
    }
}

impl popt_sim::ReplacementPolicy for TiledPopt {
    fn name(&self) -> String {
        format!("P-OPT x{} tiles", self.configs.len())
    }

    fn on_access(&mut self, set: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_access(set, meta);
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_hit(set, way, meta);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_fill(set, way, meta);
    }

    fn victim(&mut self, ctx: &popt_sim::VictimCtx<'_>) -> usize {
        self.inner.victim(ctx)
    }

    fn on_control(&mut self, event: &popt_sim::ControlEvent) {
        if matches!(event, popt_sim::ControlEvent::IterationBegin) {
            if !self.started {
                self.started = true;
                self.inner.on_control(event);
            } else if self.next < self.configs.len() {
                self.carry = self.carry.merged(self.inner.overheads());
                self.inner = Popt::new(self.configs[self.next].clone(), self.sets, self.ways);
                self.next += 1;
            }
        } else {
            self.inner.on_control(event);
        }
    }

    fn overheads(&self) -> popt_sim::PolicyOverheads {
        self.carry.merged(self.inner.overheads())
    }
}

/// Tiled P-OPT under `cfg` for `num_tiles` tiles of `g` whose source
/// data is `src_region`: each tile's pass brings its own matrix.
fn tiled_popt_llc(
    g: &Graph,
    cfg: &HierarchyConfig,
    src_region: &popt_trace::Region,
    num_tiles: usize,
) -> Llc {
    let configs: Vec<PoptConfig> = popt_graph::tiling::segment(g, num_tiles)
        .iter()
        .map(|tile| {
            // The tile's transpose: only this tile's edges, in the push
            // direction (src -> dst), over global IDs.
            let edges: Vec<(VertexId, VertexId)> =
                tile.csc.iter_edges().map(|(dst, src)| (src, dst)).collect();
            let transpose = popt_graph::Csr::from_edges(g.num_vertices(), &edges)
                .expect("tile edges come from the graph");
            let matrix = popt_core::RerefMatrix::build_range(
                &transpose,
                tile.src_begin,
                tile.src_span(),
                src_region.elems_per_line() as u32,
                1,
                Quantization::EIGHT,
                Encoding::InterIntra,
            );
            PoptConfig::new(vec![StreamBinding {
                base: src_region.base() + tile.src_begin as u64 * src_region.elem_size(),
                bound: src_region.base() + tile.src_end as u64 * src_region.elem_size(),
                matrix: Arc::new(matrix),
            }])
        })
        .collect();
    // Only one tile's columns are resident at a time: reserve for the
    // largest tile (the Figure 13 capacity win).
    let largest = configs
        .iter()
        .map(|c| c.streams.as_slice())
        .max_by_key(|streams| {
            streams
                .iter()
                .map(|s| s.matrix.resident_bytes())
                .sum::<u64>()
        })
        .unwrap_or_default();
    let cfg = cfg
        .clone()
        .with_reserved_ways(reserved_ways_for(largest, cfg));
    let mut configs = Some(configs);
    Llc::new(&cfg, |sets, ways| {
        Box::new(TiledPopt::new(
            configs.take().expect("single-bank LLC for tiled P-OPT"),
            sets,
            ways,
        ))
    })
}

/// PHI aggregation capacity for a hierarchy: the paper's PHI coalesces
/// commutative updates throughout the cache hierarchy, so its effective
/// capacity scales with the LLC (one 8 B accumulator per line-half).
pub fn phi_entries(cfg: &HierarchyConfig) -> usize {
    (cfg.llc.size_bytes() / 8).max(1)
}

/// Convenience bundle: a baseline result and the metrics derived from it.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Candidate LLC misses as a fraction of baseline misses.
    pub miss_ratio: f64,
    /// Candidate speedup over baseline (timing model).
    pub speedup: f64,
}

/// Compares `candidate` against `baseline` statistics.
pub fn compare(baseline: &HierarchyStats, candidate: &HierarchyStats) -> Comparison {
    let model = TimingModel::default();
    let miss_ratio = if baseline.llc.misses == 0 {
        1.0
    } else {
        candidate.llc.misses as f64 / baseline.llc.misses as f64
    };
    Comparison {
        miss_ratio,
        speedup: model.speedup(baseline, candidate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};

    fn small_cfg() -> HierarchyConfig {
        // A very small hierarchy so Small-scale graphs still thrash it.
        HierarchyConfig::small_test()
    }

    #[test]
    fn popt_and_topt_beat_lru_on_pagerank() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let lru = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let topt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Topt);
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        assert!(
            topt.llc.misses < lru.llc.misses,
            "T-OPT {} should beat LRU {}",
            topt.llc.misses,
            lru.llc.misses
        );
        assert!(
            popt.llc.misses < lru.llc.misses,
            "P-OPT {} should beat LRU {}",
            popt.llc.misses,
            lru.llc.misses
        );
        // T-OPT is the idealized bound: it should not lose to P-OPT by any
        // meaningful margin.
        assert!(topt.llc.misses <= popt.llc.misses * 21 / 20);
    }

    #[test]
    fn belady_is_the_floor() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        for kind in [PolicyKind::Lru, PolicyKind::Drrip] {
            let base = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Baseline(kind));
            let opt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Belady);
            assert!(
                opt.llc.misses <= base.llc.misses,
                "OPT {} must not exceed {} ({})",
                opt.llc.misses,
                base.llc.misses,
                kind.label()
            );
        }
    }

    #[test]
    fn popt_reserves_ways_and_charges_streaming() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        assert!(popt.overheads.streamed_bytes > 0);
        assert!(popt.overheads.matrix_lookups > 0);
        let limit = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Popt {
                quant: Quantization::EIGHT,
                encoding: Encoding::InterIntra,
                limit_study: true,
            },
        );
        assert_eq!(limit.overheads.streamed_bytes, 0);
        // Limit mode has more effective capacity: misses cannot be worse.
        assert!(limit.llc.misses <= popt.llc.misses);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), Some(1), "zero clamps to one");
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("2.5"), None);
    }

    #[test]
    fn reserved_ways_handles_empty_and_oversized_bindings() {
        let cfg = small_cfg();
        // Empty binding slice: nothing to pin, reserve nothing.
        assert_eq!(reserved_ways_for(&[], &cfg), 0);
        // A matrix far larger than the LLC bank must still leave at least
        // one way for the irregular data.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let plan = App::Pagerank.plan(&g);
        let bindings = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::SIXTEEN,
            Encoding::InterIntra,
        );
        let total: u64 = bindings.iter().map(|b| b.matrix.resident_bytes()).sum();
        assert!(
            total as usize > cfg.llc_bank().way_bytes(),
            "test needs a matrix larger than one way"
        );
        let ways = reserved_ways_for(&bindings, &cfg);
        assert!(ways >= 1);
        assert!(ways < cfg.llc.ways(), "must not reserve every way");
    }

    #[test]
    fn cell_tags_distinguish_specs() {
        let specs = [
            PolicySpec::Baseline(PolicyKind::Lru),
            PolicySpec::Baseline(PolicyKind::ShipPc),
            PolicySpec::Belady,
            PolicySpec::Topt,
            PolicySpec::popt_default(),
            PolicySpec::Popt {
                quant: Quantization::EIGHT,
                encoding: Encoding::InterIntra,
                limit_study: true,
            },
            PolicySpec::Popt {
                quant: Quantization::FOUR,
                encoding: Encoding::SingleEpoch,
                limit_study: false,
            },
            PolicySpec::Grasp {
                hot_end: 10,
                warm_end: 20,
            },
        ];
        let tags: std::collections::BTreeSet<String> =
            specs.iter().map(PolicySpec::cell_tag).collect();
        assert_eq!(tags.len(), specs.len(), "tags must be pairwise distinct");
        assert_eq!(PolicySpec::popt_default().cell_tag(), "popt-q8-ii");
    }

    #[test]
    fn cached_simulation_matches_uncached() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Tiny);
        let cfg = small_cfg();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/cached-sim");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ArtifactCache::open(&dir).unwrap());
        let ctx = MatrixCtx {
            cache: Arc::clone(&cache),
            graph_desc: "test/urand/tiny".to_string(),
        };
        let plain = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        let cached = simulate_cached(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::popt_default(),
            Some(&ctx),
        );
        assert_eq!(plain, cached);
        let first = cache.counters();
        assert!(first.matrix_builds > 0);
        // Second cached run: pure hits, same result.
        let again = simulate_cached(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::popt_default(),
            Some(&ctx),
        );
        assert_eq!(plain, again);
        let second = cache.counters();
        assert_eq!(second.matrix_builds, first.matrix_builds, "no rebuild");
        assert!(second.matrix_hits > first.matrix_hits);
    }

    #[test]
    fn pipelined_simulation_matches_a_live_run() {
        // The reference is the one-thread path: the policy's LLC below
        // live private levels, consuming the kernel's events directly.
        let live = |app: App, g: &Graph, cfg: &HierarchyConfig, policy: &PolicySpec| {
            let plan = app.plan(g);
            let mut h = Hierarchy::with_llc(cfg, 1, policy_llc(app, g, cfg, &plan, policy, None));
            h.set_address_space(&plan.space);
            app.trace(g, &plan, &mut h);
            h.stats()
        };
        let g = suite_graph(SuiteGraph::Kron, SuiteScale::Tiny);
        let mut banked = small_cfg();
        banked.nuca = popt_sim::NucaConfig::uniform(4);
        let reserved = small_cfg().with_reserved_ways(3);
        let mut policies: Vec<PolicySpec> = PolicyKind::ALL
            .into_iter()
            .map(PolicySpec::Baseline)
            .collect();
        policies.push(PolicySpec::Topt);
        policies.push(PolicySpec::popt_default());
        policies.push(PolicySpec::Grasp {
            hot_end: 16,
            warm_end: 64,
        });
        for cfg in [banked, reserved] {
            for app in App::ALL {
                for policy in &policies {
                    assert_eq!(
                        simulate(app, &g, &cfg, policy),
                        live(app, &g, &cfg, policy),
                        "{app} under {policy:?} on {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparison_metrics_are_sane() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let lru = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        let c = compare(&lru, &popt);
        assert!(c.miss_ratio < 1.0);
        assert!(c.speedup > 1.0);
    }
}
