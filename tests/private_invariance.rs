//! Metamorphic test: the private levels never see the LLC.
//!
//! L1 and L2 are filled and evicted by their own Bit-PLRU policies, and
//! they push every request below L2 into a one-way sink, so nothing the
//! LLC decides flows back up. A kernel's L1 stats, L2 stats and
//! instruction count must therefore be the same whichever LLC policy runs
//! below them, and so must the coherence invalidations of a multi-core
//! run. Every cell that records one post-L2 stream and replays it into
//! LLCs alone relies on this: Belady's two passes, the sweep's row engine
//! and the pipelined cell. The multi-core, prefetching and
//! context-switching run below covers what the custom-family experiments
//! add to the plain kernels.

use p_opt::core::prefetch::PrefetchingSink;
use p_opt::kernels::pagerank;
use p_opt::prelude::*;
use popt_cli::runner::{popt_bindings, reserved_ways_for, simulate, PolicySpec};
use popt_graph::reorder;
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};

/// Every LLC policy a sweep can run on a single-bank hierarchy.
fn every_policy(hot_end: VertexId, warm_end: VertexId) -> Vec<PolicySpec> {
    let mut specs: Vec<PolicySpec> = PolicyKind::ALL
        .iter()
        .map(|&kind| PolicySpec::Baseline(kind))
        .collect();
    specs.extend([
        PolicySpec::Belady,
        PolicySpec::Topt,
        PolicySpec::popt_default(),
        PolicySpec::Grasp { hot_end, warm_end },
    ]);
    specs
}

#[test]
fn private_level_stats_do_not_depend_on_the_llc_policy() {
    // DBG-ordered, as Figure 12 runs GRASP, so its hot region is real.
    let base = suite_graph(SuiteGraph::Kron, SuiteScale::Tiny);
    let (perm, boundaries) = reorder::degree_based_grouping(&base);
    let g = base.relabel(&perm);
    let cfg = HierarchyConfig::small_test();
    let policies = every_policy(boundaries[2], boundaries[4]);
    for app in App::ALL {
        let reference = simulate(app, &g, &cfg, &policies[0]);
        assert!(reference.l1.demand_accesses() > 0, "{app}: empty trace");
        assert!(
            reference.llc.demand_accesses() > 0,
            "{app}: nothing reaches the LLC"
        );
        let mut llc_misses = std::collections::BTreeSet::from([reference.llc.misses]);
        for policy in &policies[1..] {
            let stats = simulate(app, &g, &cfg, policy);
            llc_misses.insert(stats.llc.misses);
            let who = format!("{app} under {} vs {}", policy.label(), policies[0].label());
            assert_eq!(stats.l1, reference.l1, "L1 stats differ: {who}");
            assert_eq!(stats.l2, reference.l2, "L2 stats differ: {who}");
            assert_eq!(
                stats.instructions, reference.instructions,
                "instruction counts differ: {who}"
            );
        }
        // Not vacuous: the policies really do behave differently below L2.
        assert!(
            llc_misses.len() > 1,
            "{app}: every policy took the same LLC misses"
        );
    }
}

#[test]
fn multi_core_prefetching_context_switching_runs_keep_private_stats() {
    let g = suite_graph(SuiteGraph::Kron, SuiteScale::Tiny);
    let plan = pagerank::plan(&g);
    let cfg = HierarchyConfig::small_test();
    let bindings = popt_bindings(
        App::Pagerank,
        &g,
        &plan,
        Quantization::EIGHT,
        Encoding::InterIntra,
    );
    let popt_cfg = cfg
        .clone()
        .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
    // Two cores run parallel PageRank in 8-vertex blocks, so both write
    // each block's destination line and invalidate each other's copies;
    // the Rereference-Matrix prefetcher issues fills; a context switch
    // flushes every level before a second iteration.
    let run = |mut h: Hierarchy| {
        h.set_address_space(&plan.space);
        let binding = &bindings[0];
        let mut prefetching = PrefetchingSink::new(&mut h, &binding.matrix, binding.base);
        pagerank::trace_parallel(&g, &plan, &mut prefetching, 2, 8);
        h.context_switch();
        pagerank::trace_parallel(&g, &plan, &mut h, 2, 8);
        h.stats()
    };
    let lru = run(Hierarchy::with_cores(&cfg, 2, |s, w| {
        PolicyKind::Lru.build(s, w)
    }));
    let drrip = run(Hierarchy::with_cores(&cfg, 2, |s, w| {
        PolicyKind::Drrip.build(s, w)
    }));
    let popt = run(Hierarchy::with_cores(&popt_cfg, 2, |s, w| {
        Box::new(Popt::new(PoptConfig::new(bindings.clone()), s, w))
    }));
    assert!(
        lru.coherence_invalidations > 0 && lru.prefetch_fills > 0,
        "no cross-core writes or prefetches: {lru:?}"
    );
    for (name, stats) in [("DRRIP", drrip), ("P-OPT", popt)] {
        assert_eq!(
            (stats.l1, stats.l2, stats.instructions),
            (lru.l1, lru.l2, lru.instructions),
            "{name} vs LRU"
        );
        assert_eq!(
            stats.coherence_invalidations, lru.coherence_invalidations,
            "{name} vs LRU"
        );
    }
    // Not vacuous: the policies really do behave differently below L2.
    let misses = [lru.llc.misses, drrip.llc.misses, popt.llc.misses];
    assert!(
        misses[0] != misses[1] && misses[0] != misses[2],
        "LLC misses {misses:?}"
    );
}
