//! Differential test of T-OPT's next-reference cursor: a T-OPT that walks
//! per-vertex cursors and one that binary-searches every transpose row
//! run in lockstep behind one LLC, and must pick the same victim at every
//! decision and report the same overheads. Kernel traces cover all five
//! apps (ascending vertex order, where the cursor serves every lookup)
//! and a PageRank over a shuffled destination order, where the cursor is
//! invalid and lookups fall back to the binary search.

use popt_core::{IrregularStream, Topt};
use popt_graph::generators::{self, RmatParams};
use popt_graph::{Csr, Graph, VertexId};
use popt_kernels::{pagerank, App, TracePlan};
use popt_sim::{
    AccessMeta, ControlEvent, Hierarchy, HierarchyConfig, PolicyOverheads, ReplacementPolicy,
    VictimCtx,
};
use std::sync::Arc;

/// Forwards every hook to both T-OPT variants and checks they agree.
struct Lockstep {
    cursor: Topt,
    search: Topt,
}

impl Lockstep {
    fn new(transpose: &Arc<Csr>, streams: &[IrregularStream], sets: usize, ways: usize) -> Self {
        let topt = || Topt::new(Arc::clone(transpose), streams.to_vec(), sets, ways);
        Lockstep {
            cursor: topt(),
            search: topt().without_cursor(),
        }
    }
}

impl ReplacementPolicy for Lockstep {
    fn name(&self) -> String {
        "T-OPT cursor vs binary search".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.cursor.on_hit(set, way, meta);
        self.search.on_hit(set, way, meta);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.cursor.on_fill(set, way, meta);
        self.search.on_fill(set, way, meta);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let (a, b) = (self.cursor.victim(ctx), self.search.victim(ctx));
        assert_eq!(
            a,
            b,
            "victim differs after {} decisions (set {}, lines {:?})",
            self.search.overheads().decisions,
            ctx.set,
            ctx.ways
        );
        a
    }

    fn on_control(&mut self, event: &ControlEvent) {
        self.cursor.on_control(event);
        self.search.on_control(event);
    }

    fn overheads(&self) -> PolicyOverheads {
        assert_eq!(self.cursor.overheads(), self.search.overheads());
        self.cursor.overheads()
    }
}

/// A hierarchy whose LLC runs both T-OPT variants in lockstep.
fn lockstep_hierarchy(app: App, g: &Graph, plan: &TracePlan) -> Hierarchy {
    let transpose = Arc::new(g.transpose_of(app.direction()).clone());
    let streams = plan.irregular_streams();
    let mut h = Hierarchy::new(&HierarchyConfig::small_test(), |sets, ways| {
        Box::new(Lockstep::new(&transpose, &streams, sets, ways))
    });
    h.set_address_space(&plan.space);
    h
}

/// Checks the overheads agree, and that the run made enough victim
/// decisions, with enough ties, for the agreement to mean something.
fn assert_agreed(h: &Hierarchy, what: &str) {
    let overheads = h.stats().overheads; // asserts the overheads agree
    assert!(
        overheads.decisions > 500,
        "{what}: only {} victim decisions",
        overheads.decisions
    );
    assert!(overheads.ties > 0, "{what}: no tie was broken");
}

#[test]
fn cursor_matches_binary_search_on_every_app() {
    let g = generators::uniform_random(4096, 40_000, 0x7091);
    for app in App::ALL {
        let plan = app.plan(&g);
        let mut h = lockstep_hierarchy(app, &g, &plan);
        // Each trace is one pass opened by an IterationBegin; the second
        // pass only agrees if that rewinds the cursor.
        app.trace(&g, &plan, &mut h);
        app.trace(&g, &plan, &mut h);
        assert_agreed(&h, app.name());
    }
}

#[test]
fn cursor_matches_binary_search_on_a_skewed_graph() {
    let g = generators::rmat(12, 40_000, RmatParams::KRONECKER, 0x7092);
    let app = App::Pagerank;
    let plan = app.plan(&g);
    let mut h = lockstep_hierarchy(app, &g, &plan);
    app.trace(&g, &plan, &mut h);
    assert_agreed(&h, "pagerank/rmat");
}

#[test]
fn fallback_matches_binary_search_on_a_shuffled_order() {
    let g = generators::uniform_random(4096, 40_000, 0x7093);
    let n = g.num_vertices();
    // Fisher-Yates under a fixed splitmix64 stream.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut state = 0x5eed_u64;
    for i in (1..n).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    assert!(
        order.windows(2).any(|w| w[1] < w[0]),
        "the order must go backwards"
    );
    let app = App::Pagerank;
    let plan = app.plan(&g);
    let mut h = lockstep_hierarchy(app, &g, &plan);
    // Ascending, shuffled, ascending: the cursor serves the first pass,
    // the binary search the second, and the cursor again the third, from
    // the state the IterationBegin rewound.
    pagerank::trace(&g, &plan, &mut h);
    pagerank::trace_ordered(&g, &plan, &mut h, Some(&order));
    pagerank::trace(&g, &plan, &mut h);
    assert_agreed(&h, "pagerank/shuffled");
}
