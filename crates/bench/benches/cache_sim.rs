//! Simulator throughput: accesses per second through the full three-level
//! hierarchy under each replacement policy — the cost of the simulation
//! infrastructure itself, and the relative overhead of the graph-aware
//! policies (P-OPT's matrix lookups vs T-OPT's transpose walks) and the
//! learned and oracular baselines (Leeway, SDBP, SHiP-Mem, Hawkeye, OPT).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use popt_bench::bench_graph;
use popt_core::{Popt, PoptConfig, Quantization, RerefMatrix, StreamBinding, Topt};
use popt_kernels::App;
use popt_sim::{GroupLlc, Hierarchy, HierarchyConfig, Llc, LlcThread, PolicyKind};
use popt_trace::TraceSink;
use std::sync::Arc;

fn policy_throughput(c: &mut Criterion) {
    let g = bench_graph(16_384);
    let app = App::Pagerank;
    let plan = app.plan(&g);
    let cfg = HierarchyConfig::small_test();
    // Number of events in one trace (for throughput units).
    let mut counter = popt_trace::CountingSink::new();
    app.trace(&g, &plan, &mut counter);
    let events = counter.accesses();

    let mut group = c.benchmark_group("cache_sim/policy");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));

    for kind in [
        PolicyKind::Lru,
        PolicyKind::Drrip,
        PolicyKind::ShipPc,
        PolicyKind::ShipMem,
        PolicyKind::Hawkeye,
        PolicyKind::Sdbp,
        PolicyKind::Leeway,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut h = Hierarchy::new(&cfg, |s, w| kind.build(s, w));
                    h.set_address_space(&plan.space);
                    app.trace(&g, &plan, &mut h);
                    h.stats().llc.misses
                })
            },
        );
    }

    // P-OPT (matrix built once outside the timed loop, like a real run).
    let matrix = Arc::new(RerefMatrix::build(
        g.out_csr(),
        16,
        1,
        Quantization::EIGHT,
        popt_core::Encoding::InterIntra,
    ));
    let region = plan.space.region(plan.irregs[0].region);
    let binding = StreamBinding {
        base: region.base(),
        bound: region.bound(),
        matrix: matrix.clone(),
    };
    let popt_cfg = cfg
        .clone()
        .with_reserved_ways(matrix.reserved_llc_ways(&cfg.llc));
    group.bench_function("P-OPT", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(&popt_cfg, |s, w| {
                Box::new(Popt::new(PoptConfig::new(vec![binding.clone()]), s, w))
            });
            h.set_address_space(&plan.space);
            app.trace(&g, &plan, &mut h);
            h.stats().llc.misses
        })
    });

    // Belady's MIN: the recording pass, the oracle build and the LLC-only
    // replay, as every OPT cell runs them (a group with a Belady member).
    group.bench_function("OPT", |b| {
        b.iter(|| {
            let belady = vec![GroupLlc::<fn() -> Llc>::Belady(cfg.clone())];
            let Ok(run) = std::thread::scope(|scope| {
                Hierarchy::group(&LlcThread::spawn(scope), &cfg, 1, belady, |h| {
                    h.set_address_space(&plan.space);
                    app.trace(&g, &plan, h);
                    Ok::<(), std::convert::Infallible>(())
                })
            });
            run.members[0].stats.as_ref().map(|s| s.llc.misses).ok()
        })
    });

    let transpose = Arc::new(g.out_csr().clone());
    let streams = plan.irregular_streams();
    group.bench_function("T-OPT", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(&cfg, |s, w| {
                Box::new(Topt::new(Arc::clone(&transpose), streams.clone(), s, w))
            });
            h.set_address_space(&plan.space);
            app.trace(&g, &plan, &mut h);
            h.stats().llc.misses
        })
    });
    group.finish();
}

fn hierarchy_hit_path(c: &mut Criterion) {
    // Pure L1-hit stream: the simulator's fast path.
    let cfg = HierarchyConfig::scaled_table1();
    c.bench_function("cache_sim/l1_hit_path", |b| {
        let mut h = Hierarchy::new(&cfg, |s, w| PolicyKind::Lru.build(s, w));
        b.iter(|| {
            for _ in 0..64 {
                h.event(popt_trace::TraceEvent::read(0x1000, 0));
            }
        })
    });
}

criterion_group!(benches, policy_throughput, hierarchy_hit_path);
criterion_main!(benches);
