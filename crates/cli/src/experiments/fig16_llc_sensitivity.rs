//! Figure 16: P-OPT's sensitivity to LLC capacity and associativity.
//!
//! Paper claims reproduced: P-OPT's edge over DRRIP grows with LLC
//! capacity (the reserved-column fraction shrinks) and with associativity
//! (more eviction candidates per decision). Both sweeps follow the
//! scale's own hierarchy, so its suite graphs exceed the LLCs swept.

use crate::exec::{Cell, Session, SuiteEntry};
use crate::experiments::geomean;
use crate::runner::PolicySpec;
use crate::table::{pct, Table};
use crate::Scale;
use popt_kernels::App;
use popt_sim::{CacheConfig, HierarchyConfig, HierarchyStats, PolicyKind};

/// LLC capacities swept, as multiples of half the scale's LLC.
pub const SIZE_FACTORS: [usize; 4] = [1, 2, 4, 8];
/// Associativities swept.
pub const ASSOCIATIVITIES: [usize; 3] = [8, 16, 32];

fn submit_reduction_cells(
    session: &Session,
    cells: &mut Vec<Cell>,
    prefix: &str,
    cfg: &HierarchyConfig,
    suite: &[SuiteEntry],
) {
    for entry in suite {
        for spec in [
            PolicySpec::Baseline(PolicyKind::Drrip),
            PolicySpec::popt_default(),
        ] {
            cells.push(session.sim(
                format!("{prefix}/{}/{}", entry.which, spec.cell_tag()),
                App::Pagerank,
                entry,
                cfg,
                &spec,
            ));
        }
    }
}

fn consume_reduction(
    results: &mut impl Iterator<Item = HierarchyStats>,
    suite: &[SuiteEntry],
) -> f64 {
    let mut ratios = Vec::new();
    for _ in suite {
        let drrip = results.next().expect("one result per cell");
        let popt = results.next().expect("one result per cell");
        ratios.push(popt.llc.misses as f64 / drrip.llc.misses.max(1) as f64);
    }
    1.0 - geomean(&ratios)
}

/// Runs the experiment.
pub fn run(session: &Session, scale: Scale) -> Vec<Table> {
    let suite = session.suite(scale);
    let scaled = scale.config();
    let with_llc = |size_bytes, ways| HierarchyConfig {
        llc: CacheConfig::new(size_bytes, ways),
        ..scaled.clone()
    };
    let base = scaled.llc.size_bytes() / 2;
    let mut cells = Vec::new();
    for factor in SIZE_FACTORS {
        let cfg = with_llc(base * factor, 16);
        let prefix = format!("fig16a/{}/llc{}kb", scale.name(), base * factor / 1024);
        submit_reduction_cells(session, &mut cells, &prefix, &cfg, &suite);
    }
    for ways in ASSOCIATIVITIES {
        let cfg = with_llc(scaled.llc.size_bytes(), ways);
        let prefix = format!("fig16b/{}/w{ways}", scale.name());
        submit_reduction_cells(session, &mut cells, &prefix, &cfg, &suite);
    }
    let mut results = session.run(cells).into_iter();
    let mut size = Table::new(
        "Figure 16a: P-OPT miss reduction vs DRRIP across LLC capacities (PageRank, geomean)",
        &["llc", "miss reduction"],
    );
    for factor in SIZE_FACTORS {
        size.row(vec![
            format!("{}KB", base * factor / 1024),
            pct(consume_reduction(&mut results, &suite)),
        ]);
    }
    let mut assoc = Table::new(
        "Figure 16b: P-OPT miss reduction vs DRRIP across associativities (PageRank, geomean)",
        &["ways", "miss reduction"],
    );
    for ways in ASSOCIATIVITIES {
        assoc.row(vec![
            ways.to_string(),
            pct(consume_reduction(&mut results, &suite)),
        ]);
    }
    vec![size, assoc]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};

    #[test]
    fn higher_associativity_helps_popt() {
        // "As associativity increases, P-OPT has more options for
        // replacement and makes a better choice."
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let reduction = |ways: usize| {
            let cfg = HierarchyConfig::scaled_with_llc(64 * 1024, ways);
            let drrip = simulate(
                App::Pagerank,
                &g,
                &cfg,
                &PolicySpec::Baseline(PolicyKind::Drrip),
            );
            let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
            1.0 - popt.llc.misses as f64 / drrip.llc.misses.max(1) as f64
        };
        let low = reduction(4);
        let high = reduction(32);
        assert!(
            high > low,
            "32-way reduction {high:.3} should exceed 4-way {low:.3}"
        );
    }
}
