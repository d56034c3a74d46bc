//! Record-once / replay-many economics: kernel re-execution versus
//! `POPTTRC2` decode versus an LLC-only replay of the recorded post-L2
//! stream for driving a simulation cell, plus raw codec encode/decode
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use popt_bench::bench_graph;
use popt_cli::runner::{policy_llc, Feed, PolicySpec};
use popt_kernels::App;
use popt_sim::{Hierarchy, HierarchyConfig, PolicyKind};
use popt_trace::CountingSink;
use popt_tracestore::{replay_any, ChunkWriter};

fn recorded_pagerank() -> (popt_graph::Graph, popt_kernels::TracePlan, Vec<u8>, u64) {
    let g = bench_graph(32_768);
    let plan = App::Pagerank.plan(&g);
    let mut buf = Vec::new();
    let mut writer =
        ChunkWriter::create(&mut buf, &plan.space, "bench/pr").expect("in-memory writer");
    App::Pagerank.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().expect("in-memory finish");
    (g, plan, buf, summary.events)
}

/// Why sweep cells run their kernels and share post-L2 streams: what does
/// a pagerank *cell* cost when its events come from kernel re-execution,
/// from trace replay, or (LLC only) from a recorded stream?
fn cell_drive(c: &mut Criterion) {
    let (g, plan, trace, events) = recorded_pagerank();
    let cfg = HierarchyConfig::small_test();
    let lru = PolicySpec::Baseline(PolicyKind::Lru);
    let feed = Feed::Kernel(App::Pagerank);
    let mut group = c.benchmark_group("tracestore/cell");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    group.bench_function("kernel_reexec", |b| {
        b.iter(|| {
            let llc = policy_llc(feed, &g, &cfg, &lru, None);
            let mut h = Hierarchy::with_llc(&cfg, 1, llc);
            h.set_address_space(&plan.space);
            App::Pagerank.trace(&g, &plan, &mut h);
            h.stats()
        })
    });
    group.bench_function("trace_replay", |b| {
        b.iter(|| {
            let llc = policy_llc(feed, &g, &cfg, &lru, None);
            let mut h = Hierarchy::with_llc(&cfg, 1, llc);
            h.set_address_space(&plan.space);
            replay_any(&trace[..], &mut h).expect("pristine trace");
            h.stats()
        })
    });
    // What the LLC half of a cell costs once its stream is recorded.
    let Ok(stream) = Hierarchy::record_llc(&cfg, 1, |h| {
        h.set_address_space(&plan.space);
        App::Pagerank.trace(&g, &plan, h);
        Ok::<(), std::convert::Infallible>(())
    });
    group.bench_function("llc_stream_replay", |b| {
        b.iter(|| policy_llc(feed, &g, &cfg, &lru, None).replay(&stream))
    });
    group.finish();
}

/// Raw codec throughput, without a simulator attached.
fn codec(c: &mut Criterion) {
    let (g, plan, trace, events) = recorded_pagerank();
    let mut group = c.benchmark_group("tracestore/codec");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(trace.len());
            let mut writer =
                ChunkWriter::create(&mut buf, &plan.space, "bench/pr").expect("writer");
            App::Pagerank.trace(&g, &plan, &mut writer);
            let (_, summary) = writer.finish().expect("finish");
            summary.v2_bytes
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut sink = CountingSink::new();
            replay_any(&trace[..], &mut sink).expect("pristine trace");
            sink.accesses()
        })
    });
    group.finish();
}

criterion_group!(benches, cell_drive, codec);
criterion_main!(benches);
