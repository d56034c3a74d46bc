//! Determinism regression gate: the paper's numbers are only reproducible
//! if trace capture and simulation are bit-stable run to run. This pins
//! the whole pipeline — same graph, same kernel, same config must produce
//! a byte-identical trace file, identical hierarchy stats, and an
//! identical rendered results table.

use p_opt::prelude::*;
use popt_cli::runner::{simulate, PolicySpec};
use popt_cli::table::Table;
use popt_graph::generators;
use popt_kernels::pagerank;
use popt_tracestore::ChunkWriter;

fn test_graph() -> Graph {
    generators::uniform_random(400, 3_200, 7)
}

fn capture_pagerank(g: &Graph) -> Vec<u8> {
    let plan = pagerank::plan(g);
    let mut writer = ChunkWriter::create(Vec::new(), &plan.space, "pr").expect("header write");
    pagerank::trace(g, &plan, &mut writer);
    writer.finish().expect("flush").0
}

#[test]
fn pagerank_trace_capture_is_byte_identical() {
    let g = test_graph();
    let first = capture_pagerank(&g);
    let second = capture_pagerank(&g);
    assert!(!first.is_empty());
    assert_eq!(first, second, "trace bytes differ between identical runs");
}

#[test]
fn simulation_stats_are_identical_across_runs() {
    let g = test_graph();
    let cfg = HierarchyConfig::small_test();
    for policy in [
        PolicySpec::Baseline(PolicyKind::Drrip),
        PolicySpec::popt_default(),
    ] {
        let a = simulate(App::Pagerank, &g, &cfg, &policy);
        let b = simulate(App::Pagerank, &g, &cfg, &policy);
        assert_eq!(a, b, "stats differ between runs for {}", policy.label());
    }
}

#[test]
fn rendered_results_are_byte_identical() {
    let g = test_graph();
    let cfg = HierarchyConfig::small_test();
    let render = || {
        let mut table = Table::new("determinism", &["policy", "llc_misses"]);
        for policy in [
            PolicySpec::Baseline(PolicyKind::Lru),
            PolicySpec::Baseline(PolicyKind::Drrip),
        ] {
            let stats = simulate(App::Pagerank, &g, &cfg, &policy);
            table.row(vec![policy.label(), stats.llc.misses.to_string()]);
        }
        (table.render(), table.to_csv())
    };
    let (text_a, csv_a) = render();
    let (text_b, csv_b) = render();
    assert_eq!(text_a, text_b);
    assert_eq!(csv_a, csv_b, "CSV output differs between identical runs");
}
