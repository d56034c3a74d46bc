//! End-to-end integration with real kernels: compression on a pagerank
//! suite-graph trace.

use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_kernels::App;
use popt_tracestore::ChunkWriter;

#[test]
fn pagerank_suite_trace_compresses_at_least_3x() {
    let g = suite_graph(SuiteGraph::Urand, SuiteScale::Tiny);
    let plan = App::Pagerank.plan(&g);
    let mut buf = Vec::new();
    let mut writer = ChunkWriter::create(&mut buf, &plan.space, "pr/urand/tiny").unwrap();
    App::Pagerank.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().unwrap();
    assert!(summary.events > 0);
    assert_eq!(summary.v2_bytes, buf.len() as u64);
    assert!(
        summary.ratio() >= 3.0,
        "POPTTRC2 must be >= 3x smaller than the raw v1 encoding on pagerank \
         (v1 {} bytes, v2 {} bytes, ratio {:.2})",
        summary.v1_bytes,
        summary.v2_bytes,
        summary.ratio()
    );
}
