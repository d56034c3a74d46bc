//! The tier-1 oracle suite: every policy in the zoo, differentially checked
//! against the Mattson and MIN reference models on adversarial synthetic
//! traces, randomized fuzz traces, and real kernel traces over synthetic
//! graphs.
//!
//! The suite is deterministic by default; `POPT_ORACLE_SEED` reseeds the
//! adversarial batch for the CI randomized smoke run.

use popt_graph::generators;
use popt_kernels::App;
use popt_oracle::{gen, graph_aware_policies, NamedPolicy, OracleReport, TraceCase};
use popt_sim::PolicyKind;
use popt_trace::RecordingSink;
use proptest::prelude::*;

/// Cache geometries the sweeps run against: from a degenerate single-set
/// bank up to a small LLC slice. The 3- and 48-set geometries are not
/// powers of two, so the cache indexes their sets with `%` instead of a
/// mask (like the paper's 3072-set Table I bank), and the Mattson and MIN
/// exactness checks cover that path too.
const GEOMETRIES: [(usize, usize); 6] = [(1, 2), (2, 4), (3, 4), (4, 8), (8, 16), (48, 8)];

/// Every policy the harness can build without a graph: the full
/// `PolicyKind::ALL` registry plus the trace-built Belady oracle and a
/// line-range GRASP.
fn full_zoo() -> Vec<NamedPolicy> {
    let mut policies: Vec<NamedPolicy> = PolicyKind::ALL
        .iter()
        .map(|&kind| NamedPolicy::kind(kind))
        .collect();
    policies.push(NamedPolicy::belady());
    policies.push(NamedPolicy::grasp());
    policies
}

/// Seed for the adversarial batch; CI's randomized smoke job overrides it.
fn suite_seed() -> u64 {
    std::env::var("POPT_ORACLE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0BAD_5EED_0001)
}

/// The full adversarial battery across every geometry — the fixed-seed
/// backbone of the suite.
#[test]
fn adversarial_traces_pass_every_oracle() {
    let zoo = full_zoo();
    let seed = suite_seed();
    let mut report = OracleReport::new();
    for (sets, ways) in GEOMETRIES {
        for case in gen::adversarial_cases(sets, ways, seed) {
            report.check_case(&case, &zoo);
        }
    }
    assert!(report.ok(), "{}", report.render());
    // 8 adversarial cases per geometry.
    assert_eq!(report.cases.len(), GEOMETRIES.len() * 8);
}

/// A second fixed seed, so a single unlucky constant cannot hide a bug.
#[test]
fn adversarial_traces_pass_with_alternate_seed() {
    let zoo = full_zoo();
    let mut report = OracleReport::new();
    for (sets, ways) in [(2, 4), (4, 8)] {
        for case in gen::adversarial_cases(sets, ways, 0xFACE_FEED) {
            report.check_case(&case, &zoo);
        }
    }
    assert!(report.ok(), "{}", report.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized fuzz: arbitrary line streams over arbitrary small
    /// geometries must satisfy the whole battery. The vendored `proptest`
    /// shim is deterministic per test name, so this is reproducible; the
    /// harness's own delta-debugging minimizer supplies shrinking.
    #[test]
    fn random_traces_pass_every_oracle(
        geometry in prop::sample::select(vec![(1usize, 2usize), (2, 2), (2, 4), (3, 2), (4, 4)]),
        universe in 3u64..48,
        raw in prop::collection::vec(0u64..4096, 32..320),
    ) {
        let (sets, ways) = geometry;
        let lines: Vec<u64> = raw.iter().map(|r| r % universe).collect();
        let case = TraceCase::from_lines("fuzz", sets, ways, &lines);
        let mut report = OracleReport::new();
        report.check_case(&case, &full_zoo());
        prop_assert!(report.ok(), "{}", report.render());
    }

    /// The independent MIN model really is minimal among everything we can
    /// simulate, and Mattson's stack distances really are associativity
    /// monotone — checked directly on raw line streams.
    #[test]
    fn min_lower_bounds_and_inclusion_hold_on_raw_streams(
        universe in 2u64..24,
        raw in prop::collection::vec(0u64..4096, 16..200),
    ) {
        let lines: Vec<u64> = raw.iter().map(|r| r % universe).collect();
        let opt2 = popt_oracle::min_misses(1, 2, &lines);
        let opt4 = popt_oracle::min_misses(1, 4, &lines);
        // MIN is monotone in associativity.
        prop_assert!(opt4 <= opt2);
        let model = popt_oracle::Mattson::run(1, &lines);
        // LRU at any width can never beat MIN at that width.
        prop_assert!(model.misses_with_ways(2) >= opt2);
        prop_assert!(model.misses_with_ways(4) >= opt4);
    }
}

/// Kernel traces over synthetic graphs: the access shape the simulator was
/// built for, including the software control events the graph-aware
/// policies consume. Three apps × three graph families.
#[test]
fn kernel_traces_pass_every_oracle() {
    let runs = [
        (App::Pagerank, generators::uniform_random(96, 480, 11)),
        (App::Components, generators::mesh(8, 2, 12)),
        (App::Mis, generators::preferential_attachment(80, 3, 13)),
    ];
    let mut report = OracleReport::new();
    for (app, g) in runs {
        let plan = app.plan(&g);
        let mut sink = RecordingSink::new();
        app.trace(&g, &plan, &mut sink);
        let name = format!("kernel/{app}");
        // A small LLC slice so the irregular working set contends.
        let case = TraceCase::from_events(&name, 8, 8, sink.events(), Some(&plan.space));
        assert!(case.num_accesses() > 100, "{name}: trace too short");
        let mut zoo = full_zoo();
        zoo.extend(graph_aware_policies(app, &g));
        report.check_case(&case, &zoo);
    }
    assert!(report.ok(), "{}", report.render());
    assert!(
        report.policies.iter().any(|p| p == "T-OPT")
            && report.policies.iter().any(|p| p == "P-OPT"),
        "graph-aware policies must be in the battery"
    );
}

/// Deep sweep for bug hunting: many seeds, every geometry, every app.
/// Ignored by default (minutes, not seconds); run explicitly with
/// `cargo test -p popt-oracle -- --ignored` or via the CI oracle job.
#[test]
#[ignore = "deep sweep; run with -- --ignored"]
fn extended_sweep() {
    let zoo = full_zoo();
    let mut report = OracleReport::new();
    for (sets, ways) in GEOMETRIES {
        for seed in 0..24u64 {
            for case in gen::adversarial_cases(sets, ways, 0x1000_0000 + seed) {
                report.check_case(&case, &zoo);
            }
        }
    }
    for app in App::ALL {
        let g = generators::uniform_random(128, 768, 21);
        let plan = app.plan(&g);
        let mut sink = RecordingSink::new();
        app.trace(&g, &plan, &mut sink);
        for (sets, ways) in [(4, 4), (8, 8), (16, 16), (48, 4)] {
            let name = format!("kernel/{app}/{sets}x{ways}");
            let case = TraceCase::from_events(&name, sets, ways, sink.events(), Some(&plan.space));
            let mut policies = full_zoo();
            policies.extend(graph_aware_policies(app, &g));
            report.check_case(&case, &policies);
        }
    }
    assert!(report.ok(), "{}", report.render());
}

/// The library doctest's entry-point shape, pinned as a real test: the
/// one-call report over a default batch stays green.
#[test]
fn report_entry_point_stays_green() {
    let mut report = OracleReport::new();
    for case in gen::adversarial_cases(4, 4, 0x5eed) {
        report.check_case(&case, &NamedPolicy::zoo());
    }
    assert!(report.ok(), "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("PASS"), "{rendered}");
}
