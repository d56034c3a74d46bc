//! Figure 14: Propagation Blocking and PHI composed with P-OPT.
//!
//! Paper claims reproduced: PHI's in-cache update aggregation cuts DRAM
//! traffic on power-law graphs and barely moves it on URAND/HBUBL (poor
//! private-cache locality impedes aggregation), better replacement
//! improves PHI, and P-OPT helps even where PHI does not. PB and PHI are
//! one [`Feed::Pb`] and one [`Feed::Phi`] recording per graph, each shared
//! by DRRIP and P-OPT.

use crate::exec::Session;
use crate::runner::{phi_entries, Feed, PolicySpec};
use crate::table::{pct, Table};
use crate::Scale;
use popt_sim::PolicyKind;

/// Runs the experiment. The metric is DRAM transfers (fills + writebacks)
/// of the scatter/binning phase, normalized to PB+DRRIP.
pub fn run(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    // PHI's capacity follows the LLC, so it is part of the feed.
    let phi = Feed::Phi {
        entries: phi_entries(&cfg),
    };
    let (drrip, popt) = (
        PolicySpec::Baseline(PolicyKind::Drrip),
        PolicySpec::popt_default(),
    );
    let variants = [
        ("pb/drrip", Feed::Pb, &drrip),
        ("pb/popt", Feed::Pb, &popt),
        ("phi/drrip", phi, &drrip),
        ("phi/popt", phi, &popt),
    ];
    let mut cells = Vec::new();
    for entry in &suite {
        for (tag, feed, policy) in variants {
            let id = format!("fig14/{}/{}/{tag}", scale.name(), entry.which);
            cells.push(session.sim(id, feed, entry, &cfg, policy));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Figure 14: DRAM traffic vs PB+DRRIP, PageRank scatter phase (lower is better)",
        &["graph", "PB+DRRIP", "PB+P-OPT", "PHI+DRRIP", "PHI+P-OPT"],
    );
    for entry in &suite {
        let base = results
            .next()
            .expect("one result per cell")
            .dram_transfers();
        let pb_popt = results
            .next()
            .expect("one result per cell")
            .dram_transfers();
        let phi_drrip = results
            .next()
            .expect("one result per cell")
            .dram_transfers();
        let phi_popt = results
            .next()
            .expect("one result per cell")
            .dram_transfers();
        let norm = |x: u64| pct(x as f64 / base.max(1) as f64);
        table.row(vec![
            entry.which.to_string(),
            pct(1.0),
            norm(pb_popt),
            norm(phi_drrip),
            norm(phi_popt),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
    use popt_sim::HierarchyConfig;

    /// The PHI scatter phase's feed under `cfg`'s LLC.
    fn phi(cfg: &HierarchyConfig) -> Feed {
        Feed::Phi {
            entries: phi_entries(cfg),
        }
    }

    /// DRAM transfers of `feed` on `g` under `cfg` and `policy`.
    fn dram(feed: Feed, g: &popt_graph::Graph, cfg: &HierarchyConfig, policy: &PolicySpec) -> u64 {
        simulate(feed, g, cfg, policy).dram_transfers()
    }

    const DRRIP: PolicySpec = PolicySpec::Baseline(PolicyKind::Drrip);

    #[test]
    fn phi_cuts_traffic_on_skewed_graphs_more_than_uniform() {
        let cfg = HierarchyConfig::small_test();
        let benefit = |which: SuiteGraph| {
            let g = suite_graph(which, SuiteScale::Small);
            let pb = dram(Feed::Pb, &g, &cfg, &DRRIP);
            let phi = dram(phi(&cfg), &g, &cfg, &DRRIP);
            phi as f64 / pb.max(1) as f64
        };
        let kron = benefit(SuiteGraph::Kron);
        let urand = benefit(SuiteGraph::Urand);
        assert!(
            kron < urand,
            "PHI should help the skewed graph more (kron {kron:.2} vs urand {urand:.2})"
        );
    }

    #[test]
    fn popt_improves_phi_where_updates_leak() {
        // On the community graph plenty of reusable update traffic reaches
        // the LLC past the aggregation filter; P-OPT must exploit it.
        let cfg = HierarchyConfig::small_test();
        let g = suite_graph(SuiteGraph::Uk02, SuiteScale::Small);
        let drrip = dram(phi(&cfg), &g, &cfg, &DRRIP);
        let popt = dram(phi(&cfg), &g, &cfg, &PolicySpec::popt_default());
        assert!(
            popt < drrip,
            "PHI+P-OPT ({popt}) should beat PHI+DRRIP ({drrip}) on uk02"
        );
    }
}
