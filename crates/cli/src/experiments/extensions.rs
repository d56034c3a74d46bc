//! Extension experiments beyond the paper's figures: mechanisms the paper
//! describes but does not plot (parallel execution §V-F, context switches
//! §V-F), its stated future work (matrix-driven prefetching §VIII), and
//! the related-work SDBP baseline (§VIII).
//!
//! Every run is a session cell: a [`Feed`] recording replayed into an
//! LLC. The plain single-core PageRank runs (serial ext1, ext2 without
//! prefetching, ext4 without switches, ext5's DRRIP and RRIP tie-break
//! runs, ext6's huge-page runs) are [`Feed::Kernel`] sim cells and share
//! one stream per graph. The rest are sim cells of feeds that change
//! only what the private levels are fed — more cores
//! ([`Feed::Parallel`]), a prefetcher ([`Feed::Prefetch`]), context
//! switches ([`Feed::Switches`]), scattered frames ([`Feed::PageMap`]) —
//! and share one stream per graph and feed between their policies. ext5's
//! first-way tie-break is a [`PolicySpec::PoptFirstWay`] cell replaying
//! the plain PageRank stream.

use crate::exec::Session;
use crate::runner::{Feed, PolicySpec};
use crate::table::{f2, pct, Table};
use crate::Scale;
use popt_core::{Encoding, Quantization};
use popt_graph::suite::SuiteGraph;
use popt_kernels::App;
use popt_sim::PolicyKind;

/// Extension 1 — parallel execution (paper Section V-F): P-OPT's LLC miss
/// rate with multi-threaded, epoch-serial execution should track the
/// serial miss rate ("providing similar LLC miss rates ... for
/// multi-threaded graph applications as for serial executions").
pub fn ext_parallel(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let mut cells = Vec::new();
    for entry in &suite {
        for (tag, spec) in [
            ("popt", PolicySpec::popt_default()),
            ("topt", PolicySpec::Topt),
        ] {
            let prefix = format!("ext1/{}/{}/{tag}", scale.name(), entry.which);
            cells.push(session.sim(format!("{prefix}/t1"), App::Pagerank, entry, &cfg, &spec));
            for &cores in &THREADS[1..] {
                let feed = Feed::Parallel { cores };
                cells.push(session.sim(format!("{prefix}/t{cores}"), feed, entry, &cfg, &spec));
            }
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 1: multi-threaded P-OPT/T-OPT LLC miss rate vs serial, PageRank",
        &[
            "graph",
            "policy",
            "serial",
            "2 threads",
            "4 threads",
            "8 threads",
        ],
    );
    for entry in &suite {
        for policy in ["P-OPT", "T-OPT"] {
            let mut row = vec![entry.which.to_string(), policy.to_string()];
            for _ in THREADS {
                let stats = results.next().expect("one result per cell");
                row.push(pct(stats.llc.miss_rate()));
            }
            table.row(row);
        }
    }
    vec![table]
}

/// Extension 2 — Rereference-Matrix-driven prefetching (paper Section
/// VIII): epoch-ahead prefetch of the next epoch's irregular lines,
/// composed with DRRIP and with P-OPT.
pub fn ext_prefetch(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext2/{}/{}", scale.name(), entry.which);
        for (tag, spec) in [
            ("drrip", PolicySpec::Baseline(PolicyKind::Drrip)),
            ("popt", PolicySpec::popt_default()),
        ] {
            cells.push(session.sim(format!("{prefix}/{tag}"), App::Pagerank, entry, &cfg, &spec));
            let (id, feed) = (format!("{prefix}/{tag}-pf"), Feed::Prefetch);
            cells.push(session.sim(id, feed, entry, &cfg, &spec));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 2: epoch-ahead prefetching from the Rereference Matrix, PageRank",
        &[
            "graph",
            "DRRIP",
            "DRRIP+pf",
            "P-OPT",
            "P-OPT+pf",
            "prefetch fills",
        ],
    );
    for entry in &suite {
        let drrip = results.next().expect("one result per cell");
        let drrip_pf = results.next().expect("one result per cell");
        let popt = results.next().expect("one result per cell");
        let popt_pf = results.next().expect("one result per cell");
        let base = drrip.llc.misses.max(1) as f64;
        table.row(vec![
            entry.which.to_string(),
            pct(1.0),
            pct(drrip_pf.llc.misses as f64 / base),
            pct(popt.llc.misses as f64 / base),
            pct(popt_pf.llc.misses as f64 / base),
            drrip_pf.prefetch_fills.to_string(),
        ]);
    }
    vec![table]
}

/// Extension 3 — the complete policy zoo (adds Random, SRRIP, BRRIP,
/// SHiP-Mem and the related-work SDBP dead-block predictor) plus Belady's
/// MIN, as LLC MPKI on PageRank.
pub fn ext_zoo(session: &Session, scale: Scale) -> Vec<Table> {
    const KINDS: [PolicyKind; 7] = [
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::ShipMem,
        PolicyKind::Sdbp,
        PolicyKind::Leeway,
        PolicyKind::Drrip,
    ];
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext3/{}/{}", scale.name(), entry.which);
        for kind in KINDS {
            let spec = PolicySpec::Baseline(kind);
            cells.push(session.sim(
                format!("{prefix}/{}", spec.cell_tag()),
                App::Pagerank,
                entry,
                &cfg,
                &spec,
            ));
        }
        cells.push(session.sim(
            format!("{prefix}/{}", PolicySpec::Belady.cell_tag()),
            App::Pagerank,
            entry,
            &cfg,
            &PolicySpec::Belady,
        ));
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 3: full policy zoo, PageRank LLC MPKI (lower is better)",
        &[
            "graph", "Random", "SRRIP", "BRRIP", "SHiP-Mem", "SDBP", "Leeway", "DRRIP", "OPT",
        ],
    );
    for entry in &suite {
        let mut row = vec![entry.which.to_string()];
        for _ in 0..KINDS.len() + 1 {
            let stats = results.next().expect("one result per cell");
            row.push(f2(stats.llc_mpki()));
        }
        table.row(row);
    }
    vec![table]
}

/// Extension 5 — tie-break ablation (DESIGN.md §7): what does settling
/// quantization ties with the RRIP baseline buy over taking the first tied
/// way? Run as a limit study so the effect is isolated from capacity
/// costs; 4-bit quantization maximizes the tie rate.
pub fn ext_tiebreak(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext5/{}/{}", scale.name(), entry.which);
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        cells.push(session.sim(
            format!("{prefix}/{}", drrip.cell_tag()),
            App::Pagerank,
            entry,
            &cfg,
            &drrip,
        ));
        for quant in [Quantization::FOUR, Quantization::EIGHT] {
            let first = PolicySpec::PoptFirstWay(quant);
            let id = format!("{prefix}/q{}-first", quant.bits());
            cells.push(session.sim(id, App::Pagerank, entry, &cfg, &first));
            // RRIP is P-OPT's own tie-break: a limit-study P-OPT cell.
            let rrip = PolicySpec::Popt {
                quant,
                encoding: Encoding::InterIntra,
                limit_study: true,
            };
            cells.push(session.sim(
                format!("{prefix}/q{}-rrip", quant.bits()),
                App::Pagerank,
                entry,
                &cfg,
                &rrip,
            ));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 5: P-OPT tie-break ablation, PageRank (misses vs DRRIP; limit study)",
        &[
            "graph",
            "4b first-way",
            "4b RRIP",
            "8b first-way",
            "8b RRIP",
        ],
    );
    for entry in &suite {
        let drrip = results.next().expect("one result per cell");
        let mut row = vec![entry.which.to_string()];
        for _ in 0..4 {
            let stats = results.next().expect("one result per cell");
            row.push(pct(stats.llc.misses as f64 / drrip.llc.misses.max(1) as f64));
        }
        table.row(row);
    }
    vec![table]
}

/// Extension 4 — context switches (paper Section V-F): P-OPT under
/// periodic preemption; the co-running process flushes the LLC, and P-OPT
/// refetches its columns on resumption. Reported: miss rate and streamed
/// metadata bytes per switch period.
pub fn ext_context_switch(session: &Session, scale: Scale) -> Vec<Table> {
    const SWITCHES: [usize; 4] = [0, 4, 16, 64];
    let cfg = scale.config();
    let entry = session.graph(SuiteGraph::Urand, scale);
    let popt = PolicySpec::popt_default();
    let mut cells = Vec::new();
    for switches in SWITCHES {
        let id = format!("ext4/{}/urand/s{switches}", scale.name());
        let feed = match switches {
            0 => Feed::Kernel(App::Pagerank),
            n => Feed::Switches(n),
        };
        cells.push(session.sim(id, feed, &entry, &cfg, &popt));
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 4: P-OPT under periodic context switches, PageRank on urand",
        &["switches/run", "miss rate", "streamed KB"],
    );
    for switches in SWITCHES {
        let stats = results.next().expect("one result per cell");
        table.row(vec![
            switches.to_string(),
            pct(stats.llc.miss_rate()),
            f2(stats.overheads.streamed_bytes as f64 / 1024.0),
        ]);
    }
    vec![table]
}

/// Extension 6 — why the huge page matters (paper Section V-B): P-OPT's
/// `irreg_base`/`irreg_bound` registers compare physical addresses, so the
/// scheme relies on `irregData` being physically contiguous (one 1 GB huge
/// page). Replaying the same workload through a scattered-4-KiB-frame
/// mapping leaves the registers meaningless: P-OPT silently degrades while
/// the address-agnostic DRRIP is unaffected.
pub fn ext_hugepage(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext6/{}/{}", scale.name(), entry.which);
        // Compare P-OPT against DRRIP *within* each mapping, so the
        // page-mapping's own set-indexing effects cancel out and only the
        // policy difference remains.
        for (tag, spec) in [
            ("drrip", PolicySpec::Baseline(PolicyKind::Drrip)),
            ("popt", PolicySpec::popt_default()),
        ] {
            let id = format!("{prefix}/{tag}-huge");
            cells.push(session.sim(id, App::Pagerank, entry, &cfg, &spec));
            let id = format!("{prefix}/{tag}-4k");
            cells.push(session.sim(id, Feed::PageMap, entry, &cfg, &spec));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 6: P-OPT vs DRRIP under huge-page and scattered 4 KiB mappings, PageRank",
        &["graph", "P-OPT/DRRIP hugepage", "P-OPT/DRRIP 4KiB"],
    );
    for entry in &suite {
        let drrip_huge = results.next().expect("one result per cell").llc.misses;
        let drrip_4k = results.next().expect("one result per cell").llc.misses;
        let popt_huge = results.next().expect("one result per cell").llc.misses;
        let popt_4k = results.next().expect("one result per cell").llc.misses;
        table.row(vec![
            entry.which.to_string(),
            pct(popt_huge as f64 / drrip_huge.max(1) as f64),
            pct(popt_4k as f64 / drrip_4k.max(1) as f64),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig13_tiling, fig14_pb_phi};
    use crate::runner::{run_group, simulate};
    use popt_graph::suite::{suite_graph, SuiteScale};
    use popt_harness::CellOutcome;
    use popt_sim::{HierarchyConfig, LlcThread, MemberRun};

    #[test]
    fn parallel_popt_stays_near_topt_and_ahead_of_drrip() {
        // The paper's Section V-F claim: sharing one `currVertex` register
        // (main-thread policy) keeps multi-threaded P-OPT near T-OPT.
        // Interleaved execution changes the LLC-level locality for *every*
        // policy, so the comparison is against T-OPT and DRRIP at the same
        // thread count, not against the serial run.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        let feed = Feed::Parallel { cores: 8 };
        let specs = [
            PolicySpec::popt_default(),
            PolicySpec::Topt,
            PolicySpec::Baseline(PolicyKind::Drrip),
        ];
        let llcs: Vec<_> = specs.iter().map(|spec| (&cfg, spec)).collect();
        // Compare on *irregular* misses: coherence traffic on shared
        // streaming lines adds policy-independent misses that dilute the
        // overall rate.
        let run = std::thread::scope(|scope| {
            run_group(&LlcThread::spawn(scope), feed, &g, &cfg, &llcs, None)
        });
        let [popt, topt, drrip] = <[MemberRun; 3]>::try_from(run.members)
            .unwrap()
            .map(|member| member.stats.unwrap().llc.irregular_misses);
        assert!(
            popt <= topt * 115 / 100,
            "8-thread P-OPT ({popt}) should track T-OPT ({topt}) on irregular misses"
        );
        assert!(
            popt <= drrip * 9 / 10,
            "8-thread P-OPT ({popt}) must stay well ahead of DRRIP ({drrip})"
        );
    }

    #[test]
    fn scattered_frames_break_popt_but_not_drrip() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        let run = |spec: &PolicySpec, scramble: bool| -> u64 {
            let feed = if scramble {
                Feed::PageMap
            } else {
                Feed::Kernel(App::Pagerank)
            };
            simulate(feed, &g, &cfg, spec).llc.misses
        };
        let popt = PolicySpec::popt_default();
        let popt_huge = run(&popt, false);
        let popt_4k = run(&popt, true);
        let drrip = run(&PolicySpec::Baseline(PolicyKind::Drrip), true);
        assert!(
            popt_huge * 110 / 100 < popt_4k,
            "scattering must cost P-OPT: huge {popt_huge} vs 4k {popt_4k}"
        );
        assert!(
            popt_4k >= drrip,
            "misconfigured P-OPT ({popt_4k}) cannot beat DRRIP ({drrip})"
        );
    }

    #[test]
    fn plain_extension_runs_replay_shared_streams() {
        // Every cell replays a recording, and the policies of one graph
        // and feed share it: ext1 records one plain and three multi-core
        // streams per graph, ext2 a plain and a prefetching one, ext5 only
        // the plain one (its first-way cells replay it too), ext6 a
        // huge-page and a 4 KiB one, fig13 one per tile count on two
        // graphs, and fig14 a PB and a PHI one.
        let graphs = SuiteGraph::ALL.len() as u64;
        type Experiment = fn(&Session, Scale) -> Vec<Table>;
        let expected: [(&str, Experiment, (u64, u64)); 6] = [
            ("ext1", ext_parallel, (4 * graphs, 8 * graphs)),
            ("ext2", ext_prefetch, (2 * graphs, 4 * graphs)),
            ("ext5", ext_tiebreak, (graphs, 5 * graphs)),
            ("ext6", ext_hugepage, (2 * graphs, 4 * graphs)),
            ("fig13", fig13_tiling::run, (10, 20)),
            ("fig14", fig14_pb_phi::run, (2 * graphs, 4 * graphs)),
        ];
        for (name, experiment, counts) in expected {
            let session = Session::parallel(2);
            experiment(&session, Scale::Tiny);
            let counters = session.stream_counters();
            assert_eq!(
                (counters.recorded, counters.replayed),
                counts,
                "{name}: {counters:?}"
            );
            assert_eq!(
                counters.replayed,
                session.count(CellOutcome::Executed) as u64,
                "{name}"
            );
        }
        // ext1's serial column is the plain simulation of each policy.
        let session = Session::parallel(2);
        let table = &ext_parallel(&session, Scale::Tiny)[0];
        let cfg = Scale::Tiny.config();
        let mut rows = table.rows.iter();
        for entry in session.suite(Scale::Tiny) {
            for spec in [PolicySpec::popt_default(), PolicySpec::Topt] {
                let row = rows.next().expect("two rows per graph");
                let serial = simulate(App::Pagerank, &entry.graph, &cfg, &spec);
                assert_eq!(row[2], pct(serial.llc.miss_rate()), "{row:?}");
            }
        }
        assert!(rows.next().is_none());
    }

    #[test]
    fn prefetching_does_not_hurt_popt() {
        let tables = ext_prefetch(&Session::serial(), Scale::Small);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 5);
    }

    #[test]
    fn context_switches_increase_streamed_bytes_monotonically() {
        let tables = ext_context_switch(&Session::serial(), Scale::Small);
        let streamed: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().expect("streamed KB"))
            .collect();
        assert!(
            streamed.windows(2).all(|w| w[0] <= w[1]),
            "streamed {streamed:?}"
        );
    }
}
