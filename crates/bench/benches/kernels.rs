//! Native kernel throughput (edges per second) and trace-generation
//! overhead — the Table IV denominators and the cost of instrumentation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use popt_bench::{bench_graph, bench_graph_skewed};
use popt_kernels::{components, mis, pagerank, pagerank_delta, radii, App};
use popt_trace::CountingSink;

fn native_kernels(c: &mut Criterion) {
    let g = bench_graph(32_768);
    let edges = g.num_edges() as u64;
    let mut group = c.benchmark_group("kernels/native");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges));
    group.bench_function("pagerank_iter", |b| b.iter(|| pagerank::run(&g, 1)));
    group.bench_function("components", |b| b.iter(|| components::run(&g)));
    group.bench_function("pagerank_delta", |b| b.iter(|| pagerank_delta::run(&g, 5)));
    group.bench_function("radii", |b| b.iter(|| radii::run(&g, 3, 32)));
    group.bench_function("mis", |b| b.iter(|| mis::run(&g, 7)));
    group.finish();
}

fn trace_generation(c: &mut Criterion) {
    let g = bench_graph(32_768);
    let mut group = c.benchmark_group("kernels/trace");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    for app in App::ALL {
        let plan = app.plan(&g);
        group.bench_with_input(BenchmarkId::from_parameter(app.name()), &plan, |b, plan| {
            b.iter(|| {
                let mut sink = CountingSink::new();
                app.trace(&g, plan, &mut sink);
                sink.accesses()
            })
        });
    }
    group.finish();
}

fn graph_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/graph_build");
    group.sample_size(10);
    group.bench_function("uniform_64k", |b| b.iter(|| bench_graph(65_536)));
    group.bench_function("rmat_skewed_s15", |b| b.iter(|| bench_graph_skewed(15)));
    group.finish();
}

criterion_group!(
    benches,
    native_kernels,
    trace_generation,
    graph_construction
);
criterion_main!(benches);
