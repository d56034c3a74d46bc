//! Next-reference computation cost: Algorithm 2 on the Rereference Matrix
//! (per encoding) against T-OPT's exact transpose walk, plus the next-ref
//! engine's victim selection over a full eviction set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popt_bench::bench_graph;
use popt_core::{Encoding, Quantization, RerefMatrix};
use std::hint::black_box;

fn algorithm2(c: &mut Criterion) {
    let g = bench_graph(32_768);
    let mut group = c.benchmark_group("next_ref/algorithm2");
    for encoding in [
        Encoding::InterOnly,
        Encoding::InterIntra,
        Encoding::SingleEpoch,
    ] {
        let m = RerefMatrix::build(g.out_csr(), 16, 1, Quantization::EIGHT, encoding);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{encoding}")),
            &m,
            |b, m| {
                let mut line = 0usize;
                let mut vertex = 0u32;
                b.iter(|| {
                    line = (line + 97) % m.num_lines();
                    vertex = (vertex + 131) % 32_768;
                    black_box(m.next_ref(line, vertex))
                })
            },
        );
    }
    group.finish();
}

fn exact_transpose_walk(c: &mut Criterion) {
    // T-OPT's per-line cost: one binary search per vertex in the line.
    let g = bench_graph(32_768);
    let csr = g.out_csr();
    c.bench_function("next_ref/topt_exact_line", |b| {
        let mut first = 0u32;
        b.iter(|| {
            first = (first + 16 * 131) % 32_000;
            let mut best = u32::MAX;
            for v in first..first + 16 {
                if let Some(n) = csr.next_neighbor_after(v, first) {
                    best = best.min(n);
                }
            }
            black_box(best)
        })
    });
}

fn engine_victim_selection(c: &mut Criterion) {
    use popt_core::{NextRefEngine, NextRefSource};
    /// A 14-way all-irregular eviction set; line `w` is way `w`.
    struct Fixed(Vec<u32>);
    impl NextRefSource for Fixed {
        fn is_streaming(&self, _line: u64) -> bool {
            false
        }
        fn next_ref(&mut self, line: u64) -> u32 {
            usize::try_from(line).map_or(0, |i| self.0[i])
        }
    }
    let mut engine = NextRefEngine::new();
    let mut refs = Fixed((0..14).map(|i| (i * 37) % 97).collect());
    let lines: Vec<u64> = (0..14).collect();
    c.bench_function("next_ref/engine_14way", |b| {
        b.iter(|| black_box(engine.choose(&lines, &mut refs)))
    });
}

criterion_group!(
    benches,
    algorithm2,
    exact_transpose_walk,
    engine_victim_selection
);
criterion_main!(benches);
