//! Metamorphic test: the private levels never see the LLC policy.
//!
//! L1 and L2 are filled and evicted by their own Bit-PLRU policies, and
//! nothing the LLC decides flows back up, so a kernel's L1 stats, L2
//! stats and instruction count must be the same whichever LLC policy
//! runs below them. Belady's two-pass construction relies on this (its
//! recording pass runs under LRU), and so would any scheme that shares
//! one post-L2 stream across a row of LLC policies.

use p_opt::prelude::*;
use popt_cli::runner::{simulate, PolicySpec};
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
