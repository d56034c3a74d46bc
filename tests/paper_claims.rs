//! Mechanical checks of the paper's specific quantitative claims, at the
//! small reproduction scale. Each test cites the claim it guards.

use p_opt::prelude::*;
use popt_cli::runner::{phi_entries, simulate, Feed, PolicySpec};
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};

fn cfg() -> HierarchyConfig {
    HierarchyConfig::small_test()
}

fn g(which: SuiteGraph) -> Graph {
    suite_graph(which, SuiteScale::Small)
}

/// The PHI scatter phase's feed under `cfg`'s LLC.
fn phi(cfg: &HierarchyConfig) -> Feed {
    Feed::Phi {
        entries: phi_entries(cfg),
    }
}

/// DRAM transfers of `feed` on `g` under `cfg` and `policy`.
fn dram(feed: Feed, g: &Graph, cfg: &HierarchyConfig, policy: &PolicySpec) -> u64 {
    simulate(feed, g, cfg, policy).dram_transfers()
}

const DRRIP: PolicySpec = PolicySpec::Baseline(PolicyKind::Drrip);

/// Section III-B: "T-OPT reduces misses by 1.67x on average compared to
/// LRU" — we require a clear multiplicative gap on PageRank (the exact
/// factor is testbed-specific).
#[test]
fn topt_reduces_lru_misses_multiplicatively() {
    let mut ratios = Vec::new();
    for which in SuiteGraph::ALL {
        let g = g(which);
        let lru = simulate(
            App::Pagerank,
            &g,
            &cfg(),
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let topt = simulate(App::Pagerank, &g, &cfg(), &PolicySpec::Topt);
        ratios.push(lru.llc.misses as f64 / topt.llc.misses.max(1) as f64);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        geomean > 1.25,
        "mean LRU/T-OPT miss ratio {geomean:.2} should be a clear reduction (paper: 1.67x)"
    );
}

/// Section VII-A: "P-OPT outperforms DRRIP across the board" and "P-OPT's
/// mean speedup is within 12% of the ideal speedup (with T-OPT)" — we
/// check the across-the-board part per graph, and that P-OPT lands within
/// a generous fraction of T-OPT's miss reduction.
#[test]
fn popt_tracks_topt_closely_on_pagerank() {
    for which in [SuiteGraph::Dbp, SuiteGraph::Urand, SuiteGraph::Kron] {
        let g = g(which);
        let drrip = simulate(
            App::Pagerank,
            &g,
            &cfg(),
            &PolicySpec::Baseline(PolicyKind::Drrip),
        );
        let popt = simulate(App::Pagerank, &g, &cfg(), &PolicySpec::popt_default());
        let topt = simulate(App::Pagerank, &g, &cfg(), &PolicySpec::Topt);
        assert!(
            popt.llc.misses <= drrip.llc.misses,
            "{which}: P-OPT must beat DRRIP"
        );
        let popt_red = drrip.llc.misses.saturating_sub(popt.llc.misses) as f64;
        let topt_red = drrip.llc.misses.saturating_sub(topt.llc.misses) as f64;
        // KRON is the paper's own exception (chance hub hits narrow the
        // headroom); require half the ideal reduction there, 60% elsewhere.
        let bar = if which == SuiteGraph::Kron { 0.5 } else { 0.6 };
        assert!(
            popt_red >= bar * topt_red,
            "{which}: P-OPT captures {popt_red} of T-OPT's {topt_red} reduction"
        );
    }
}

/// Section VII-A: "The more skewed the distribution, the more likely it is
/// for hub vertices to hit by chance in cache; DRRIP has [a lower] miss
/// rate for KRON compared to ... other graphs."
#[test]
fn drrip_miss_rate_is_lowest_on_kron() {
    let rate = |which: SuiteGraph| {
        let g = g(which);
        let stats = simulate(
            App::Pagerank,
            &g,
            &cfg(),
            &PolicySpec::Baseline(PolicyKind::Drrip),
        );
        stats.llc.miss_rate()
    };
    let kron = rate(SuiteGraph::Kron);
    let urand = rate(SuiteGraph::Urand);
    let hbubl = rate(SuiteGraph::Hbubl);
    assert!(
        kron < urand,
        "KRON {kron:.2} should miss less than URAND {urand:.2}"
    );
    assert!(
        kron < hbubl,
        "KRON {kron:.2} should miss less than HBUBL {hbubl:.2}"
    );
}

/// Section IV-B / Figure 7: the inter+intra encoding approximates T-OPT
/// more closely than inter-only.
#[test]
fn intra_epoch_tracking_closes_the_gap_to_topt() {
    let g = g(SuiteGraph::Urand);
    let topt = simulate(App::Pagerank, &g, &cfg(), &PolicySpec::Topt)
        .llc
        .misses;
    let inter_only = simulate(
        App::Pagerank,
        &g,
        &cfg(),
        &PolicySpec::Popt {
            quant: Quantization::EIGHT,
            encoding: Encoding::InterOnly,
            limit_study: true,
        },
    )
    .llc
    .misses;
    let inter_intra = simulate(
        App::Pagerank,
        &g,
        &cfg(),
        &PolicySpec::Popt {
            quant: Quantization::EIGHT,
            encoding: Encoding::InterIntra,
            limit_study: true,
        },
    )
    .llc
    .misses;
    let gap_only = inter_only.saturating_sub(topt);
    let gap_intra = inter_intra.saturating_sub(topt);
    assert!(
        gap_intra <= gap_only,
        "inter+intra gap {gap_intra} must not exceed inter-only gap {gap_only}"
    );
}

/// Section VII-D: tie rates fall with quantization precision ("41%, 12%,
/// and 0% of all LLC replacements" for 4/8/16 bits).
#[test]
fn tie_rates_fall_with_precision() {
    let g = g(SuiteGraph::Dbp);
    let tie_rate = |quant: Quantization| {
        let stats = simulate(
            App::Pagerank,
            &g,
            &cfg(),
            &PolicySpec::Popt {
                quant,
                encoding: Encoding::InterIntra,
                limit_study: true,
            },
        );
        stats.overheads.ties as f64 / stats.overheads.decisions.max(1) as f64
    };
    let t4 = tie_rate(Quantization::FOUR);
    let t8 = tie_rate(Quantization::EIGHT);
    let t16 = tie_rate(Quantization::SIXTEEN);
    assert!(
        t4 > t8 && t8 > t16,
        "tie rates must fall: {t4:.3} / {t8:.3} / {t16:.3}"
    );
}

/// Section VII-C2 / Figure 14: PHI's aggregation helps power-law graphs
/// and does little for uniform ones, while P-OPT keeps helping.
#[test]
fn phi_is_structure_sensitive_but_popt_is_not() {
    let cfg = cfg();
    let phi_gain = |which: SuiteGraph| {
        let g = g(which);
        let pb = dram(Feed::Pb, &g, &cfg, &DRRIP) as f64;
        let phi = dram(phi(&cfg), &g, &cfg, &DRRIP) as f64;
        pb / phi.max(1.0)
    };
    assert!(
        phi_gain(SuiteGraph::Kron) > phi_gain(SuiteGraph::Urand),
        "PHI should gain more on the skewed graph"
    );
    // Composing P-OPT under the PHI filter: P-OPT helps wherever enough
    // update traffic leaks through the aggregation (dbp, uk02, urand,
    // hbubl) and never costs more than a few percent even where PHI
    // absorbs almost everything reusable (kron — the leaked stream is
    // leaf-noise the Rereference Matrix cannot predict, and the reserved
    // ways still cost capacity).
    let mut strict_wins = 0;
    for which in SuiteGraph::ALL {
        let g = g(which);
        let phi_drrip = dram(phi(&cfg), &g, &cfg, &DRRIP);
        let phi_popt = dram(phi(&cfg), &g, &cfg, &PolicySpec::popt_default());
        assert!(
            phi_popt as f64 <= phi_drrip as f64 * 1.05,
            "{which}: PHI+P-OPT {phi_popt} must stay within 5% of PHI+DRRIP {phi_drrip}"
        );
        if phi_popt < phi_drrip {
            strict_wins += 1;
        }
    }
    assert!(
        strict_wins >= 3,
        "P-OPT should strictly improve PHI on most inputs"
    );
}

/// Section V-A footprint arithmetic at paper scale (no simulation): 32M
/// vertices → 2MB columns → 3 of 16 ways of a 24MB LLC.
#[test]
fn paper_scale_reservation_arithmetic() {
    let paper_llc = CacheConfig::new(24 * 1024 * 1024, 16);
    let transpose = Csr::from_edges(4, &[]).unwrap();
    let _ = transpose; // (the arithmetic needs no edges)
    let shell = RerefMatrix::build(
        &Csr::from_edges(0, &[]).unwrap(),
        16,
        1,
        Quantization::EIGHT,
        Encoding::InterIntra,
    );
    assert_eq!(shell.num_lines(), 0);
    // Construct the 32M-vertex geometry through the public surface.
    let quant = Quantization::EIGHT;
    assert_eq!(quant.epoch_size(32_000_000), 125_000);
    let lines = 32_000_000u64 / 16;
    let column = lines; // 1 byte per entry
    let resident = 2 * column;
    assert_eq!(column, 2_000_000);
    assert_eq!((resident as usize).div_ceil(paper_llc.way_bytes()), 3);
}
