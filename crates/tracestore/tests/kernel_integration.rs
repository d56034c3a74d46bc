//! End-to-end integration with real kernels: compression on a pagerank
//! suite-graph trace, and single-decode fan-out replay.

use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_kernels::App;
use popt_trace::RecordingSink;
use popt_tracestore::{replay_any, trace_info, ChunkWriter, FanoutSink};

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

#[test]
fn fanout_replay_decodes_each_chunk_exactly_once() {
    let g = suite_graph(SuiteGraph::Urand, SuiteScale::Tiny);
    let plan = App::Pagerank.plan(&g);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/popt-tracestore-test/fanout");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pr.trc");
    let file = std::fs::File::create(&path).unwrap();
    // Small chunks so the decode counter sees real multi-chunk structure.
    let mut writer = ChunkWriter::create(file, &plan.space, "pr/urand/tiny")
        .unwrap()
        .with_chunk_events(4096);
    App::Pagerank.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().unwrap();
    assert!(summary.chunks > 1, "need multi-chunk input");

    // The reference stream, from a direct kernel run.
    let mut reference = RecordingSink::new();
    App::Pagerank.trace(&g, &plan, &mut reference);

    let mut fan = FanoutSink::new(vec![
        RecordingSink::new(),
        RecordingSink::new(),
        RecordingSink::new(),
    ]);
    let bytes = std::fs::File::open(&path).unwrap();
    let stats = replay_any(std::io::BufReader::new(bytes), &mut fan).unwrap();
    // ReplayStats counts decoded chunks in the decoder itself: K sinks
    // must cost exactly one decode pass over the file, not K.
    assert_eq!(stats.chunks_decoded, summary.chunks);
    assert_eq!(
        stats.chunks_decoded,
        trace_info(&path).unwrap().chunks.len() as u64
    );
    assert_eq!(stats.events, summary.events);
    for rec in fan.into_inner() {
        assert_eq!(rec.events(), reference.events());
    }
}
