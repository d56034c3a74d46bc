//! Figure 11: P-OPT vs P-OPT-SE as graph size grows, with the number of
//! reserved LLC ways.
//!
//! Paper claim reproduced: below a crossover size the two-column design
//! wins (better metadata beats the capacity cost); past it, the
//! single-column P-OPT-SE wins because the double reservation eats too
//! much of the LLC — "the result highlights the tension between next
//! reference quantization and the effective LLC capacity".

use crate::exec::Session;
use crate::runner::{reserved_ways_for, transpose_bindings, PolicySpec};
use crate::table::{pct, Table};
use crate::Scale;
use popt_core::{Encoding, Quantization};
use popt_graph::suite::{scaling_graph, scaling_label, scaling_sizes};
use popt_kernels::App;
use popt_sim::PolicyKind;

const ENCODINGS: [Encoding; 2] = [Encoding::InterIntra, Encoding::SingleEpoch];

/// Runs the experiment.
pub fn run(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let series: Vec<_> = scaling_sizes(scale.suite())
        .iter()
        .map(|&v| {
            let desc = format!("scaling/v1/{v}");
            let graph = session.named_graph(&desc, || scaling_graph(v));
            (scaling_label(v), desc, graph)
        })
        .collect();
    let mut cells = Vec::new();
    for (label, desc, g) in &series {
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        cells.push(session.sim_cell(
            format!("fig11/{}/{label}/{}", scale.name(), drrip.cell_tag()),
            App::Pagerank,
            g,
            desc,
            &cfg,
            &drrip,
        ));
        for encoding in ENCODINGS {
            let spec = PolicySpec::Popt {
                quant: Quantization::EIGHT,
                encoding,
                limit_study: false,
            };
            cells.push(session.sim_cell(
                format!("fig11/{}/{label}/{}", scale.name(), spec.cell_tag()),
                App::Pagerank,
                g,
                desc,
                &cfg,
                &spec,
            ));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Figure 11: LLC miss reduction vs DRRIP and reserved ways, PageRank",
        &[
            "graph",
            "vertices",
            "P-OPT",
            "ways(P-OPT)",
            "P-OPT-SE",
            "ways(SE)",
        ],
    );
    for (label, desc, g) in &series {
        let drrip = results.next().expect("one result per cell");
        let mut row = vec![label.clone(), g.num_vertices().to_string()];
        for encoding in ENCODINGS {
            let stats = results.next().expect("one result per cell");
            let reduction = 1.0 - stats.llc.misses as f64 / drrip.llc.misses.max(1) as f64;
            let plan = App::Pagerank.plan(g);
            let ctx = session.matrix_ctx(desc);
            let bindings = transpose_bindings(
                App::Pagerank.direction(),
                g,
                &plan,
                Quantization::EIGHT,
                encoding,
                ctx.as_ref(),
            );
            let ways = reserved_ways_for(&bindings, &cfg);
            row.push(pct(reduction));
            row.push(ways.to_string());
        }
        table.row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::popt_bindings;
    use popt_graph::generators;
    use popt_sim::HierarchyConfig;

    #[test]
    fn se_reserves_half_the_ways_of_the_default_design() {
        let g = generators::uniform_random(64 * 1024, 64 * 1024 * 4, 9);
        let cfg = HierarchyConfig::scaled_table1();
        let plan = App::Pagerank.plan(&g);
        let both = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let single = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::EIGHT,
            Encoding::SingleEpoch,
        );
        let w_both = reserved_ways_for(&both, &cfg);
        let w_single = reserved_ways_for(&single, &cfg);
        assert!(
            w_single <= w_both.div_ceil(2) + 1,
            "SE {w_single} vs default {w_both}"
        );
        assert!(w_both >= 1 && w_single >= 1);
    }

    #[test]
    fn large_graphs_reserve_more_ways() {
        let cfg = HierarchyConfig::scaled_table1();
        let small = generators::uniform_random(16 * 1024, 64 * 1024, 1);
        let large = generators::uniform_random(512 * 1024, 2 * 1024 * 1024, 1);
        let ways = |g: &popt_graph::Graph| {
            let plan = App::Pagerank.plan(g);
            let b = popt_bindings(
                App::Pagerank,
                g,
                &plan,
                Quantization::EIGHT,
                Encoding::InterIntra,
            );
            reserved_ways_for(&b, &cfg)
        };
        assert!(ways(&large) > ways(&small));
    }
}
