//! Policy shoot-out: run any of the five paper applications on any of the
//! five suite inputs under the full replacement-policy zoo — including
//! Belady's MIN computed by two-pass trace recording — and print an MPKI
//! league table.
//!
//! Run with: `cargo run --release --example policy_zoo -- [app] [graph]`
//! where `app` ∈ {pr, cc, pr-delta, radii, mis} (default pr) and `graph` ∈
//! {dbp, uk02, kron, urand, hbubl} (default urand).

use p_opt::graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use p_opt::prelude::*;
use p_opt::sim::{GroupLlc, Llc, LlcThread};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let app = match args.first().map(String::as_str) {
        None | Some("pr") => App::Pagerank,
        Some("cc") => App::Components,
        Some("pr-delta") => App::PagerankDelta,
        Some("radii") => App::Radii,
        Some("mis") => App::Mis,
        Some(other) => {
            eprintln!("unknown app {other}; use pr|cc|pr-delta|radii|mis");
            std::process::exit(1);
        }
    };
    let which = match args.get(1).map(String::as_str) {
        Some("dbp") => SuiteGraph::Dbp,
        Some("uk02") => SuiteGraph::Uk02,
        Some("kron") => SuiteGraph::Kron,
        None | Some("urand") => SuiteGraph::Urand,
        Some("hbubl") => SuiteGraph::Hbubl,
        Some(other) => {
            eprintln!("unknown graph {other}; use dbp|uk02|kron|urand|hbubl");
            std::process::exit(1);
        }
    };
    let g = suite_graph(which, SuiteScale::Standard);
    let cfg = HierarchyConfig::scaled_table1();
    let plan = app.plan(&g);
    println!(
        "{} on {} ({} vertices, {} edges)\n",
        app,
        which,
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "{:10} {:>10} {:>9} {:>8}",
        "policy", "misses", "missrate", "MPKI"
    );

    let mut results: Vec<(String, u64, f64, f64)> = Vec::new();
    for kind in PolicyKind::ALL {
        let mut h = Hierarchy::new(&cfg, |s, w| kind.build(s, w));
        h.set_address_space(&plan.space);
        app.trace(&g, &plan, &mut h);
        let s = h.stats();
        results.push((
            kind.label().to_string(),
            s.llc.misses,
            s.llc.miss_rate(),
            s.llc_mpki(),
        ));
    }

    // Belady's MIN: a group whose one member keeps the recorded LLC
    // stream and replays it into the oracle's LLC once the kernel ends.
    let belady = vec![GroupLlc::<fn() -> Llc>::Belady(cfg.clone())];
    let Ok(run) = std::thread::scope(|scope| {
        Hierarchy::group(&LlcThread::spawn(scope), &cfg, 1, belady, |h| {
            h.set_address_space(&plan.space);
            app.trace(&g, &plan, h);
            Ok::<(), std::convert::Infallible>(())
        })
    });
    let s = run.members.into_iter().next().expect("one member").stats;
    let s = s.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    results.push((
        "OPT (MIN)".to_string(),
        s.llc.misses,
        s.llc.miss_rate(),
        s.llc_mpki(),
    ));

    results.sort_by(|a, b| a.1.cmp(&b.1));
    for (name, misses, rate, mpki) in results {
        println!("{name:10} {misses:>10} {:>8.1}% {mpki:>8.2}", rate * 100.0);
    }
}
