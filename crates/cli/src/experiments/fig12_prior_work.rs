//! Figure 12: P-OPT against prior graph-specific locality work.
//!
//! * **12a — GRASP** on DBG-reordered inputs: GRASP's heuristic needs a
//!   skewed degree distribution to have a meaningful "hot" region; P-OPT's
//!   gains are structure-agnostic and larger.
//! * **12b — HATS-BDFS** (zero-overhead traversal scheduling): BDFS helps
//!   community graphs and *hurts* graphs without community structure,
//!   while P-OPT improves every input. Its BDFS runs are
//!   [`Feed::Bdfs`] cells.

use crate::exec::Session;
use crate::runner::{Feed, PolicySpec};
use crate::table::{pct, Table};
use crate::Scale;
use popt_graph::{reorder, Graph};
use popt_kernels::App;
use popt_sim::{HierarchyStats, PolicyKind};
use std::sync::Arc;

/// GRASP's hot/warm boundaries from the DBG grouping: the hottest DBG
/// groups (≥ 8× average connectivity) are "hot", the next tier "warm".
fn grasp_spec(boundaries: &[u32]) -> PolicySpec {
    // DBG produces 8 groups; boundaries[i] is the end of group i in the
    // reordered vertex space.
    let hot_end = boundaries[2];
    let warm_end = boundaries[4];
    PolicySpec::Grasp { hot_end, warm_end }
}

/// Runs both sub-experiments.
pub fn run(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);

    // --- 12a: GRASP vs P-OPT on DBG-ordered graphs -----------------------
    // The DBG permutation is deterministic, so the relabeled graph gets its
    // own stable descriptor (distinct matrix cache entries from the base).
    let dbg_inputs: Vec<_> = suite
        .iter()
        .map(|entry| {
            let (perm, boundaries) = reorder::degree_based_grouping(&entry.graph);
            let dbg_graph = Arc::new(entry.graph.relabel(&perm));
            let desc = format!("{}/dbg-v1", entry.desc);
            (entry.which, dbg_graph, desc, boundaries)
        })
        .collect();
    let mut cells = Vec::new();
    for (which, g, desc, boundaries) in &dbg_inputs {
        let prefix = format!("fig12a/{}/{which}", scale.name());
        for spec in [
            PolicySpec::Baseline(PolicyKind::Drrip),
            grasp_spec(boundaries),
            PolicySpec::popt_default(),
            PolicySpec::Topt,
        ] {
            cells.push(session.sim_cell(
                format!("{prefix}/{}", spec.cell_tag()),
                App::Pagerank,
                g,
                desc,
                &cfg,
                &spec,
            ));
        }
    }

    // --- 12b: HATS-BDFS vs P-OPT -----------------------------------------
    // Our synthetic `uk02` is generated with community-contiguous vertex
    // IDs, so the sequential order is already community-local and BDFS has
    // nothing to rediscover. Real crawls are not always so lucky: add a
    // shuffled-ID variant ("uk02*"), the regime where HATS shines in the
    // paper.
    let mut inputs: Vec<(String, Arc<Graph>, String)> = suite
        .iter()
        .map(|e| (e.which.to_string(), Arc::clone(&e.graph), e.desc.clone()))
        .collect();
    let uk02 = suite
        .iter()
        .find(|e| e.which == popt_graph::suite::SuiteGraph::Uk02)
        .expect("uk02 present");
    let perm = reorder::random_permutation(uk02.graph.num_vertices(), 0xc0ffee);
    inputs.push((
        "uk02*".to_string(),
        Arc::new(uk02.graph.relabel(&perm)),
        format!("{}/shuffle-c0ffee", uk02.desc),
    ));
    let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
    for (name, g, desc) in &inputs {
        let tag = name.replace('*', "-shuffled");
        let prefix = format!("fig12b/{}/{tag}", scale.name());
        let seq = format!("{prefix}/drrip-seq");
        cells.push(session.sim_cell(seq, App::Pagerank, g, desc, &cfg, &drrip));
        let bdfs = format!("{prefix}/drrip-bdfs");
        cells.push(session.sim_cell(bdfs, Feed::Bdfs, g, desc, &cfg, &drrip));
        for spec in [PolicySpec::popt_default(), PolicySpec::Topt] {
            cells.push(session.sim_cell(
                format!("{prefix}/{}", spec.cell_tag()),
                App::Pagerank,
                g,
                desc,
                &cfg,
                &spec,
            ));
        }
    }

    let mut results = session.run(cells).into_iter();
    let mut a = Table::new(
        "Figure 12a: LLC miss reduction vs DRRIP on DBG-ordered graphs, PageRank",
        &["graph", "GRASP", "P-OPT", "T-OPT"],
    );
    for (which, _, _, _) in &dbg_inputs {
        let drrip = results.next().expect("one result per cell");
        let mut row = vec![which.to_string()];
        for _ in 0..3 {
            let stats = results.next().expect("one result per cell");
            row.push(pct(
                1.0 - stats.llc.misses as f64 / drrip.llc.misses.max(1) as f64
            ));
        }
        a.row(row);
    }
    let mut b = Table::new(
        "Figure 12b: LLC miss reduction vs DRRIP (vertex order), PageRank",
        &["graph", "HATS-BDFS+DRRIP", "P-OPT", "T-OPT"],
    );
    for (name, _, _) in &inputs {
        let drrip = results.next().expect("one result per cell");
        let hats_stats = results.next().expect("one result per cell");
        let popt = results.next().expect("one result per cell");
        let topt = results.next().expect("one result per cell");
        let reduce =
            |s: &HierarchyStats| pct(1.0 - s.llc.misses as f64 / drrip.llc.misses.max(1) as f64);
        b.row(vec![
            name.clone(),
            reduce(&hats_stats),
            reduce(&popt),
            reduce(&topt),
        ]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
    use popt_sim::HierarchyConfig;

    #[test]
    fn popt_beats_grasp_on_uniform_graphs() {
        // GRASP has nothing to pin on a uniform degree distribution.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let (perm, boundaries) = reorder::degree_based_grouping(&g);
        let dbg_graph = g.relabel(&perm);
        let cfg = HierarchyConfig::small_test();
        let grasp = simulate(App::Pagerank, &dbg_graph, &cfg, &grasp_spec(&boundaries));
        let popt = simulate(App::Pagerank, &dbg_graph, &cfg, &PolicySpec::popt_default());
        assert!(
            popt.llc.misses < grasp.llc.misses,
            "P-OPT {} should beat GRASP {} on urand",
            popt.llc.misses,
            grasp.llc.misses
        );
    }

    #[test]
    fn bdfs_helps_hidden_community_structure_more_than_uniform_graphs() {
        // BDFS rediscovers community locality that the vertex numbering
        // hides; on a uniform graph there is nothing to discover. Shuffle
        // both graphs' IDs so neither has numbering locality to start with.
        let cfg = HierarchyConfig::small_test();
        let ratio = |g: &Graph| {
            let perm = reorder::random_permutation(g.num_vertices(), 7);
            let g = g.relabel(&perm);
            let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
            let base = simulate(App::Pagerank, &g, &cfg, &drrip);
            let hats_stats = simulate(Feed::Bdfs, &g, &cfg, &drrip);
            hats_stats.llc.misses as f64 / base.llc.misses as f64
        };
        let community = suite_graph(SuiteGraph::Uk02, SuiteScale::Small);
        let uniform = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let rc = ratio(&community);
        let ru = ratio(&uniform);
        assert!(
            rc < ru,
            "BDFS should help hidden communities more: {rc:.2} vs {ru:.2}"
        );
    }
}
