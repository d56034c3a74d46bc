//! Simulation plumbing: composes kernels, graphs, hierarchy configurations
//! and replacement policies into end-to-end trace-driven runs.

use popt_core::prefetch::PrefetchingSink;
use popt_core::{
    Encoding, Popt, PoptConfig, Quantization, RerefMatrix, StreamBinding, TieBreak, Topt,
};
use popt_graph::{Direction, Graph, VertexId};
use popt_harness::{ArtifactCache, ArtifactKey, ArtifactKind};
use popt_kernels::{App, TracePlan};
use popt_sim::policies::{Grasp, GraspRegions};
use popt_sim::{
    GroupLlc, GroupRun, Hierarchy, HierarchyConfig, HierarchyStats, Llc, LlcSink, LlcThread,
    MemberRun, PolicyKind, PrivateLevels, Recorder, TimingModel,
};
use popt_trace::paging::PageScrambler;
use popt_trace::TraceSink;
use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::Arc;

/// Which LLC replacement policy to simulate: the LLC half of every cell.
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
    /// Limit-study P-OPT at this quantization, inter+intra encoded, that
    /// settles quantization ties by taking the first tied way instead of
    /// RRIP's choice (Extension 5's tie-break ablation).
    PoptFirstWay(Quantization),
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
            PolicySpec::PoptFirstWay(quant) => format!("first-way-{}b", quant.bits()),
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
            PolicySpec::PoptFirstWay(quant) => format!("popt-q{}-ii-limit-first", quant.bits()),
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
    transpose_bindings(app.direction(), g, plan, quant, encoding, None)
}

/// The P-OPT stream bindings of `plan`'s irregular regions under a
/// traversal in direction `dir`: one Rereference Matrix per region, built
/// from the transpose of the traversal (through `ctx`'s artifact cache
/// when given; the descriptor names the direction, region index, elements
/// per line and vertices per element).
pub(crate) fn transpose_bindings(
    dir: Direction,
    g: &Graph,
    plan: &TracePlan,
    quant: Quantization,
    encoding: Encoding,
    ctx: Option<&MatrixCtx>,
) -> Vec<StreamBinding> {
    let transpose = g.transpose_of(dir);
    plan.irregs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let region = plan.space.region(spec.region);
            let (epl, vpe) = (region.elems_per_line(), spec.vertices_per_elem);
            let source = format!("dir={dir:?}/region={i}/epl={epl}/vpe={vpe}");
            let matrix = cached_matrix(ctx, &source, quant, encoding, || {
                let threads = preprocess_threads();
                popt_core::preprocess::build_parallel(
                    transpose, epl as u32, vpe, quant, encoding, threads,
                )
            });
            StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix,
            }
        })
        .collect()
}

/// The Rereference Matrix that `build` makes, through `ctx`'s artifact
/// cache when given. Its descriptor is the graph's, `source` (everything
/// else the build reads: which transpose, region, elements per line and
/// vertices per element), the quantization and the encoding.
fn cached_matrix(
    ctx: Option<&MatrixCtx>,
    source: &str,
    quant: Quantization,
    encoding: Encoding,
    build: impl FnOnce() -> RerefMatrix,
) -> Arc<RerefMatrix> {
    let Some(ctx) = ctx else {
        return Arc::new(build());
    };
    let desc = format!(
        "rrm/v1/{}/{source}/q={}/enc={}",
        ctx.graph_desc,
        quant.bits(),
        encoding_tag(encoding),
    );
    ctx.cache
        .matrix(&ArtifactKey::new(ArtifactKind::Matrix, &desc), build)
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

/// Runs one full simulation of `feed` (an [`App`] is its
/// [`Feed::Kernel`]) on `g` under `cfg` and `policy`, and returns the
/// hierarchy statistics.
///
/// The run is a [`run_group`] of one: this thread runs the feed through
/// the L1/L2 recorder, and a second one builds the policy's LLC (a P-OPT
/// matrix build included) and applies the post-L2 stream to it as it
/// arrives, or, for Belady, keeps the stream and replays it into the
/// oracle once it is whole. Nothing is cached or kept for later calls; a
/// session's cells share recordings and matrices instead.
///
/// # Panics
///
/// Panics like [`member_stats`].
pub fn simulate(
    feed: impl Into<Feed>,
    g: &Graph,
    cfg: &HierarchyConfig,
    policy: &PolicySpec,
) -> HierarchyStats {
    let feed = feed.into();
    let run = std::thread::scope(|scope| {
        run_group(
            &LlcThread::spawn(scope),
            feed,
            g,
            cfg,
            &[(cfg, policy)],
            None,
        )
    });
    let [member] = <[MemberRun; 1]>::try_from(run.members).expect("one LLC, one member");
    member_stats(member, feed, policy)
}

/// Runs `feed` on `g` once through `cfg`'s L1 and L2 and, at the same
/// time, through the LLC of every `(cfg, policy)` of `llcs` (their L1 and
/// L2 are `cfg`'s): a [`Hierarchy::group_on`] of [`group_llcs`] whose
/// LLCs run on `llc_thread`. The members' stats are unchecked.
pub fn run_group<'s>(
    llc_thread: &LlcThread<'s>,
    feed: Feed,
    g: &'s Graph,
    cfg: &HierarchyConfig,
    llcs: &[(&'s HierarchyConfig, &'s PolicySpec)],
    ctx: Option<&'s MatrixCtx>,
) -> GroupRun {
    let members = group_llcs(feed, g, llcs, ctx);
    let drive = |recorder: &mut Recorder| feed.drive(g, ctx, recorder);
    let Ok(run) = Hierarchy::group_on(llc_thread, cfg, feed.cores(), members, drive);
    run
}

/// The [`Hierarchy::group`] members for `feed` on `g` of every `(cfg,
/// policy)` of `llcs`: [`policy_llc`], built on the group's LLC thread,
/// or Belady's oracle, built from the kept stream. `ctx` dedupes matrix
/// builds.
pub fn group_llcs<'a>(
    feed: Feed,
    g: &'a Graph,
    llcs: &[(&'a HierarchyConfig, &'a PolicySpec)],
    ctx: Option<&'a MatrixCtx>,
) -> Vec<GroupLlc<impl FnOnce() -> Llc + Send + 'a>> {
    llcs.iter()
        .map(|&(cfg, policy)| match policy {
            PolicySpec::Belady => GroupLlc::Belady(cfg.clone()),
            _ => GroupLlc::Live(move || policy_llc(feed, g, cfg, policy, ctx)),
        })
        .collect()
}

/// The stats of a group member that ran `policy`'s LLC below `feed`.
///
/// # Panics
///
/// Re-raises the member's panic (a policy refusing the feed, say), and
/// panics if the stats break a conservation law of
/// [`HierarchyStats::check`] — a simulator bug, reported loudly rather
/// than written into a result table.
pub fn member_stats(member: MemberRun, feed: Feed, policy: &PolicySpec) -> HierarchyStats {
    let stats = member
        .stats
        .unwrap_or_else(|payload| resume_unwind(payload));
    check_stats(&stats, feed, policy).unwrap_or_else(|msg| panic!("{msg}"))
}

/// `stats` if they obey every conservation law of
/// [`HierarchyStats::check`], else the violation, naming `feed` and
/// `policy`.
pub(crate) fn check_stats(
    stats: &HierarchyStats,
    feed: Feed,
    policy: &PolicySpec,
) -> Result<HierarchyStats, String> {
    match stats.check() {
        Ok(()) => Ok(*stats),
        Err(violation) => Err(format!("{feed:?} under {policy:?}: {violation}")),
    }
}

/// What a cell's private levels are fed: everything its post-L2 stream
/// depends on besides the graph and the L1/L2 geometry. The LLC never
/// feeds back into the private levels, so every cell is a recording of
/// its feed plus an LLC that takes the recorded stream, and cells whose
/// graph, feed and L1/L2 agree share one recording ([`run_group`]),
/// whatever their LLCs.
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

    /// P-OPT's stream bindings for this feed on `g`, laid out by `plan`:
    /// one set per pass over the irregular data, from the transpose of the
    /// traversal that pass runs (Figures 13 and 14), through `ctx`'s
    /// artifact cache when given. A kernel feed and PageRank's variants
    /// bind the kernel's regions ([`transpose_bindings`]), and so does
    /// [`Feed::Phi`]'s push-style scatter, from the in-CSC. [`Feed::Pb`]'s
    /// binning binds the bins' transpose. [`Feed::Tiled`] has one pass per
    /// tile, and since a tile holds every out-edge of its sources, its
    /// matrix is the [rows](RerefMatrix::rows) of PageRank's that it
    /// covers.
    pub(crate) fn popt_bindings(
        self,
        g: &Graph,
        plan: &TracePlan,
        quant: Quantization,
        encoding: Encoding,
        ctx: Option<&MatrixCtx>,
    ) -> Vec<Vec<StreamBinding>> {
        use popt_kernels::pb;
        let bindings = |dir| transpose_bindings(dir, g, plan, quant, encoding, ctx);
        match self {
            Feed::Tiled { tiles } => {
                let whole = bindings(Direction::Pull).remove(0);
                let region = plan.space.region(plan.irregs[0].region);
                let at = |v: VertexId| region.base() + u64::from(v) * region.elem_size();
                popt_graph::tiling::src_ranges(g.num_vertices(), tiles)
                    .into_iter()
                    .map(|(begin, end)| {
                        let rows = whole.matrix.rows(begin, (end - begin) as usize);
                        vec![StreamBinding {
                            base: at(begin),
                            bound: at(end),
                            matrix: Arc::new(rows),
                        }]
                    })
                    .collect()
            }
            Feed::Pb => {
                let region = plan.space.region(plan.irregs[0].region);
                let bins = pb::BinningConfig::for_graph(g);
                let source = format!("feed=pb/bins={}/epl=1/vpe=1", bins.num_bins);
                let matrix = cached_matrix(ctx, &source, quant, encoding, || {
                    let transpose = pb::bin_transpose(g, bins);
                    RerefMatrix::build_range(&transpose, 0, bins.num_bins, 1, 1, quant, encoding)
                });
                vec![vec![StreamBinding {
                    base: region.base(),
                    bound: region.bound(),
                    matrix,
                }]]
            }
            Feed::Phi { .. } => vec![bindings(Direction::Push)],
            _ => vec![bindings(self.app().direction())],
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
                let bindings = self.popt_bindings(g, &plan, q, e, ctx);
                let binding = &bindings[0][0];
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

/// Builds the LLC `policy` runs in under `cfg` for `feed` on `g` (P-OPT's
/// reserved ways included), ready for a post-L2 stream — the single
/// construction path of a group's LLC thread ([`group_llcs`]).
/// T-OPT, GRASP and P-OPT read the feed's own layout; P-OPT's matrices
/// are the feed's P-OPT bindings: one set per pass over its irregular
/// data.
///
/// # Panics
///
/// Panics on [`PolicySpec::Belady`]: the oracle is built *from* a recorded
/// LLC stream, so it cannot be constructed ahead of event delivery (use
/// [`simulate`] or [`group_llcs`]). Panics on T-OPT or GRASP under
/// [`Feed::Tiled`], [`Feed::Pb`] or [`Feed::Phi`], which run no kernel
/// traversal for them to read.
pub fn policy_llc(
    feed: Feed,
    g: &Graph,
    cfg: &HierarchyConfig,
    policy: &PolicySpec,
    ctx: Option<&MatrixCtx>,
) -> Llc {
    let plan = feed.plan(g);
    let passes = |quant: Quantization, encoding: Encoding, tie_break: TieBreak| {
        let bindings = feed.popt_bindings(g, &plan, quant, encoding, ctx);
        let config = |streams| PoptConfig {
            tie_break,
            ..PoptConfig::new(streams)
        };
        bindings.into_iter().map(config).collect::<Vec<_>>()
    };
    match policy {
        PolicySpec::Topt | PolicySpec::Grasp { .. }
            if matches!(feed, Feed::Tiled { .. } | Feed::Pb | Feed::Phi { .. }) =>
        {
            panic!(
                "{} has no kernel traversal to read under {feed:?}",
                policy.label()
            )
        }
        PolicySpec::Baseline(kind) => {
            let kind = *kind;
            Llc::new(cfg, move |sets, ways| kind.build(sets, ways))
        }
        PolicySpec::Belady => {
            panic!("Belady is two-pass; it cannot be built ahead of event delivery")
        }
        PolicySpec::Topt => {
            let transpose = Arc::new(g.transpose_of(feed.app().direction()).clone());
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
        } => popt_llc(
            cfg,
            feed,
            passes(*quant, *encoding, TieBreak::Rrip),
            *limit_study,
        ),
        PolicySpec::PoptFirstWay(quant) => {
            let passes = passes(*quant, Encoding::InterIntra, TieBreak::FirstCandidate);
            popt_llc(cfg, feed, passes, true)
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

/// Builds `feed`'s P-OPT LLC under `cfg` from the configurations of its
/// passes (one, or one per tile for [`Feed::Tiled`], which [`TiledPopt`]
/// swaps in turn). A limit study reserves no ways and charges no
/// streaming (Figure 15); otherwise [`reserved_ways_for`] the largest
/// pass are reserved, since only one pass's columns are resident at a
/// time (the Figure 13 capacity win), and epoch refills are charged.
fn popt_llc(
    cfg: &HierarchyConfig,
    feed: Feed,
    mut passes: Vec<PoptConfig>,
    limit_study: bool,
) -> Llc {
    for config in &mut passes {
        config.charge_streaming = !limit_study;
    }
    let cfg = if limit_study {
        cfg.clone()
    } else {
        let ways = passes.iter().map(|c| reserved_ways_for(&c.streams, cfg));
        cfg.clone().with_reserved_ways(ways.max().unwrap_or(0))
    };
    if let Feed::Tiled { .. } = feed {
        let mut passes = Some(passes);
        return Llc::new(&cfg, |sets, ways| {
            let passes = passes.take().expect("single-bank LLC for tiled P-OPT");
            Box::new(TiledPopt::new(passes, sets, ways))
        });
    }
    let [config] = <[PoptConfig; 1]>::try_from(passes).expect("one P-OPT pass");
    Llc::new(&cfg, move |sets, ways| {
        Box::new(Popt::new(config.clone(), sets, ways))
    })
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
            PolicySpec::PoptFirstWay(Quantization::EIGHT),
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
        let popt = PolicySpec::popt_default();
        let plain = simulate(App::Pagerank, &g, &cfg, &popt);
        let feed = Feed::Kernel(App::Pagerank);
        let cached_run = || {
            let run = std::thread::scope(|scope| {
                let llc_thread = LlcThread::spawn(scope);
                run_group(&llc_thread, feed, &g, &cfg, &[(&cfg, &popt)], Some(&ctx))
            });
            let [member] = <[MemberRun; 1]>::try_from(run.members).unwrap();
            member_stats(member, feed, &popt)
        };
        assert_eq!(plain, cached_run());
        let first = cache.counters();
        assert!(first.matrix_builds > 0);
        // Second cached run: pure hits, same result.
        assert_eq!(plain, cached_run());
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
            let mut h = Hierarchy::with_llc(cfg, 1, policy_llc(app.into(), g, cfg, policy, None));
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
