//! Figure 13: CSR-segmenting (1-D tiling) interacting with P-OPT.
//!
//! Paper claims reproduced: tiling helps both policies, P-OPT reaches a
//! given miss level with *fewer tiles* than DRRIP ("P-OPT with two tiles
//! has the same LLC miss reduction as DRRIP with 10 tiles"), and tiling
//! shrinks P-OPT's resident column (fewer reserved ways). Each tile count
//! is one [`Feed::Tiled`] recording, shared by DRRIP and P-OPT.

use crate::exec::Session;
use crate::runner::{Feed, PolicySpec};
use crate::table::{pct, Table};
use crate::Scale;
use popt_graph::suite::SuiteGraph;
use popt_sim::PolicyKind;

/// Tile counts swept (the paper sweeps 1..10+; powers of two keep tile
/// boundaries line-aligned).
pub const TILE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs the experiment on the two large uniform-ish graphs the paper uses.
pub fn run(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let entries: Vec<_> = [SuiteGraph::Urand, SuiteGraph::Kron]
        .iter()
        .map(|&which| session.graph(which, scale))
        .collect();
    let mut cells = Vec::new();
    for entry in &entries {
        for tiles in TILE_COUNTS {
            for (tag, policy) in [
                ("drrip", PolicySpec::Baseline(PolicyKind::Drrip)),
                ("popt", PolicySpec::popt_default()),
            ] {
                let id = format!("fig13/{}/{}/t{tiles}/{tag}", scale.name(), entry.which);
                cells.push(session.sim(id, Feed::Tiled { tiles }, entry, &cfg, &policy));
            }
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Figure 13: LLC misses vs untiled DRRIP, tiled PageRank (lower is better)",
        &["graph", "tiles", "DRRIP", "P-OPT"],
    );
    for entry in &entries {
        // The tiles=1 DRRIP cell doubles as the normalization base
        // (simulations are deterministic, so this matches the old serial
        // driver's separate base run bit for bit).
        let mut base = 0u64;
        for tiles in TILE_COUNTS {
            let drrip = results.next().expect("one result per cell");
            let popt = results.next().expect("one result per cell");
            if tiles == 1 {
                base = drrip.llc.misses;
            }
            table.row(vec![
                entry.which.to_string(),
                tiles.to_string(),
                pct(drrip.llc.misses as f64 / base.max(1) as f64),
                pct(popt.llc.misses as f64 / base.max(1) as f64),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use popt_graph::suite::{suite_graph, SuiteScale};
    use popt_sim::HierarchyConfig;

    #[test]
    fn popt_needs_fewer_tiles_than_drrip() {
        // P-OPT with 2 tiles should match or beat DRRIP with 4 on a
        // uniform random graph — the paper's "mutually-enabling" claim at
        // small scale.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        let (drrip, popt) = (
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::popt_default(),
        );
        let popt2 = simulate(Feed::Tiled { tiles: 2 }, &g, &cfg, &popt);
        let drrip4 = simulate(Feed::Tiled { tiles: 4 }, &g, &cfg, &drrip);
        assert!(
            popt2.llc.misses <= drrip4.llc.misses * 11 / 10,
            "P-OPT@2 tiles ({}) should roughly match DRRIP@4 tiles ({})",
            popt2.llc.misses,
            drrip4.llc.misses
        );
    }

    #[test]
    fn tiling_reduces_misses_under_both_policies() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        for policy in [
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::popt_default(),
        ] {
            let one = simulate(Feed::Tiled { tiles: 1 }, &g, &cfg, &policy);
            let four = simulate(Feed::Tiled { tiles: 4 }, &g, &cfg, &policy);
            assert!(
                four.llc.misses < one.llc.misses,
                "{policy:?}: 4 tiles ({}) should beat 1 tile ({})",
                four.llc.misses,
                one.llc.misses
            );
        }
    }
}
