//! Golden policy-zoo statistics: the full `HierarchyStats` of every LLC
//! policy a single-bank sweep row runs (the eleven `PolicyKind::ALL`
//! baselines, Belady's OPT, T-OPT and default P-OPT) under all five
//! kernels, pinned to exact numbers.
//!
//! Policy bookkeeping (hash tables, memos, the Belady replay) may change
//! how a decision is computed, never which decision is taken; any drift
//! in any counter fails here, naming the first cell that moved. The table
//! is produced twice: cell by cell through `runner::simulate`, and as one
//! `Session` batch whose cells share each kernel's post-L2 stream.

use p_opt::prelude::*;
use popt_cli::exec::Session;
use popt_cli::runner::{simulate, PolicySpec};
use popt_graph::reorder;
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_sim::{CacheStats, HierarchyStats};

/// One line per (kernel, policy):
/// `app policy | llc H/M/E/WB/IH/IM | dram_wb N | ovh STREAMED/LOOKUPS/TIES/DECISIONS
/// | l1 H/M/E/WB/IH/IM | l2 H/M/E/WB/IH/IM | instr N | pf N | coh N`.
const GOLDEN: &str = "\
pr LRU | llc 134/1107/851/58/133/214 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr Bit-PLRU | llc 133/1108/852/60/132/215 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr Random | llc 119/1122/866/69/118/229 | dram_wb 24 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr SRRIP | llc 160/1081/825/65/159/188 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr BRRIP | llc 194/1047/791/124/194/153 | dram_wb 91 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr DRRIP | llc 167/1074/818/102/167/180 | dram_wb 61 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr SHiP-PC | llc 211/1030/774/10/210/137 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr SHiP-Mem | llc 133/1108/852/62/132/215 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr Hawkeye | llc 223/1018/762/76/222/125 | dram_wb 39 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr SDBP | llc 122/1119/863/48/121/226 | dram_wb 7 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr Leeway | llc 198/1043/787/0/197/150 | dram_wb 0 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr OPT | llc 225/1016/760/125/224/123 | dram_wb 92 | ovh 0/0/0/0 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr T-OPT | llc 224/1017/761/128/224/123 | dram_wb 95 | ovh 0/0/0/761 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
pr P-OPT | llc 224/1017/777/128/224/123 | dram_wb 95 | ovh 32896/2624/0/777 | l1 17198/3176/3144/157/5930/2209 | l2 1935/1241/1113/96/1862/347 | instr 55031 | pf 0 | coh 0
cc LRU | llc 147/1026/770/111/147/261 | dram_wb 71 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc Bit-PLRU | llc 140/1033/777/122/140/268 | dram_wb 79 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc Random | llc 149/1024/768/118/149/259 | dram_wb 82 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc SRRIP | llc 188/985/729/61/188/220 | dram_wb 55 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc BRRIP | llc 220/953/697/1/220/188 | dram_wb 57 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc DRRIP | llc 208/965/709/16/208/200 | dram_wb 61 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc SHiP-PC | llc 276/897/641/0/276/132 | dram_wb 5 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc SHiP-Mem | llc 147/1026/770/49/147/261 | dram_wb 93 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc Hawkeye | llc 268/905/649/1/268/140 | dram_wb 11 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc SDBP | llc 128/1045/789/81/128/280 | dram_wb 145 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc Leeway | llc 263/910/654/16/263/145 | dram_wb 14 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc OPT | llc 280/893/637/16/280/128 | dram_wb 0 | ovh 0/0/0/0 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc T-OPT | llc 280/893/637/0/280/128 | dram_wb 0 | ovh 0/0/0/637 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
cc P-OPT | llc 280/893/653/0/280/128 | dram_wb 0 | ovh 32896/2640/0/653 | l1 21467/2955/2923/1568/12078/2157 | l2 1782/1173/1045/281/1749/408 | instr 59079 | pf 0 | coh 0
pr-delta LRU | llc 404/1301/1045/146/395/280 | dram_wb 0 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta Bit-PLRU | llc 376/1329/1073/150/367/308 | dram_wb 0 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta Random | llc 349/1356/1100/157/341/334 | dram_wb 45 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta SRRIP | llc 488/1217/961/168/479/196 | dram_wb 3 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta BRRIP | llc 520/1185/929/232/513/162 | dram_wb 196 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta DRRIP | llc 510/1195/939/202/503/172 | dram_wb 124 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta SHiP-PC | llc 547/1158/902/173/538/137 | dram_wb 128 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta SHiP-Mem | llc 415/1290/1034/161/406/269 | dram_wb 1 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta Hawkeye | llc 551/1154/898/192/542/133 | dram_wb 151 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta SDBP | llc 525/1180/924/167/516/159 | dram_wb 111 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta Leeway | llc 554/1151/895/189/545/130 | dram_wb 18 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta OPT | llc 557/1148/892/237/548/127 | dram_wb 199 | ovh 0/0/0/0 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta T-OPT | llc 555/1150/894/239/548/127 | dram_wb 200 | ovh 0/0/0/894 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
pr-delta P-OPT | llc 553/1152/912/241/548/127 | dram_wb 202 | ovh 66820/2392/0/912 | l1 23300/4840/4808/334/12286/3619 | l2 3135/1705/1577/207/2944/675 | instr 62797 | pf 0 | coh 0
radii LRU | llc 71/1070/814/104/71/305 | dram_wb 21 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii Bit-PLRU | llc 65/1076/820/104/65/311 | dram_wb 23 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii Random | llc 71/1070/814/52/71/305 | dram_wb 67 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii SRRIP | llc 86/1055/799/91/86/290 | dram_wb 13 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii BRRIP | llc 100/1041/785/0/100/276 | dram_wb 103 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii DRRIP | llc 90/1051/795/23/90/286 | dram_wb 81 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii SHiP-PC | llc 113/1028/772/5/113/263 | dram_wb 2 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii SHiP-Mem | llc 69/1072/816/80/69/307 | dram_wb 28 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii Hawkeye | llc 107/1034/778/3/107/269 | dram_wb 40 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii SDBP | llc 90/1051/795/20/90/286 | dram_wb 18 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii Leeway | llc 115/1026/770/1/115/261 | dram_wb 0 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii OPT | llc 116/1025/769/0/116/260 | dram_wb 105 | ovh 0/0/0/0 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii T-OPT | llc 116/1025/769/0/116/260 | dram_wb 0 | ovh 0/0/4/769 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
radii P-OPT | llc 116/1025/785/0/116/260 | dram_wb 0 | ovh 66820/4261/20/785 | l1 22744/1700/1668/175/13362/895 | l2 559/1141/1013/148/519/376 | instr 59101 | pf 0 | coh 0
mis LRU | llc 44/477/221/21/44/130 | dram_wb 8 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis Bit-PLRU | llc 39/482/226/28/39/135 | dram_wb 9 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis Random | llc 46/475/219/36/46/128 | dram_wb 18 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis SRRIP | llc 45/476/220/10/45/129 | dram_wb 8 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis BRRIP | llc 54/467/211/49/54/120 | dram_wb 15 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis DRRIP | llc 48/473/217/31/48/126 | dram_wb 11 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis SHiP-PC | llc 57/464/208/2/57/117 | dram_wb 0 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis SHiP-Mem | llc 45/476/220/16/45/129 | dram_wb 11 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis Hawkeye | llc 57/464/208/0/57/117 | dram_wb 0 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis SDBP | llc 46/475/219/10/46/128 | dram_wb 6 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis Leeway | llc 57/464/208/0/57/117 | dram_wb 0 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis OPT | llc 57/464/208/48/57/117 | dram_wb 16 | ovh 0/0/0/0 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis T-OPT | llc 57/464/208/0/57/117 | dram_wb 0 | ovh 0/0/0/208 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
mis P-OPT | llc 57/464/224/0/57/117 | dram_wb 0 | ovh 33924/575/0/224 | l1 4509/613/581/100/3133/266 | l2 92/521/393/67/92/174 | instr 12893 | pf 0 | coh 0
";

fn level(c: &CacheStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        c.hits, c.misses, c.evictions, c.writebacks, c.irregular_hits, c.irregular_misses
    )
}

fn render(app: App, label: &str, s: &HierarchyStats) -> String {
    let o = &s.overheads;
    format!(
        "{app} {label} | llc {} | dram_wb {} | ovh {}/{}/{}/{} | l1 {} | l2 {} | instr {} | pf {} | coh {}",
        level(&s.llc),
        s.dram_writebacks,
        o.streamed_bytes,
        o.matrix_lookups,
        o.ties,
        o.decisions,
        level(&s.l1),
        level(&s.l2),
        s.instructions,
        s.prefetch_fills,
        s.coherence_invalidations,
    )
}

fn zoo() -> Vec<PolicySpec> {
    let mut specs: Vec<PolicySpec> = PolicyKind::ALL
        .iter()
        .map(|&kind| PolicySpec::Baseline(kind))
        .collect();
    specs.extend([
        PolicySpec::Belady,
        PolicySpec::Topt,
        PolicySpec::popt_default(),
    ]);
    specs
}

/// The DBG-ordered tiny Kronecker graph `private_invariance.rs` uses.
fn zoo_graph() -> Graph {
    let base = suite_graph(SuiteGraph::Kron, SuiteScale::Tiny);
    let (perm, _) = reorder::degree_based_grouping(&base);
    base.relabel(&perm)
}

/// Checks one rendered row per (kernel, policy), in `App::ALL` × `zoo()`
/// order, against the golden table.
fn assert_golden(rows: impl IntoIterator<Item = HierarchyStats>) {
    let policies = zoo();
    assert_eq!(policies.len(), 14);
    let cells: Vec<(App, &PolicySpec)> = App::ALL
        .into_iter()
        .flat_map(|app| policies.iter().map(move |p| (app, p)))
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let mut row = 0;
    for ((app, policy), stats) in cells.iter().zip(rows) {
        let got = render(*app, &policy.label(), &stats);
        assert_eq!(
            Some(got.as_str()),
            golden.get(row).copied(),
            "golden row {row} ({app} under {}) moved",
            policy.label()
        );
        row += 1;
    }
    assert_eq!(row, golden.len(), "the golden table has extra rows");
}

#[test]
fn every_zoo_cell_reproduces_its_golden_stats() {
    let g = zoo_graph();
    let cfg = HierarchyConfig::small_test();
    let policies = zoo();
    assert_golden(
        App::ALL
            .into_iter()
            .flat_map(|app| policies.iter().map(move |p| (app, p)))
            .map(|(app, policy)| simulate(app, &g, &cfg, policy)),
    );
}

#[test]
fn the_shared_stream_path_reproduces_the_golden_stats() {
    // The same table as one session batch: each kernel's stream is
    // recorded once and every policy replays only the LLC from it.
    let session = Session::parallel(2);
    let g = session.named_graph("zoo-golden/kron-tiny-dbg", zoo_graph);
    let cfg = HierarchyConfig::small_test();
    let policies = zoo();
    let mut cells = Vec::new();
    for app in App::ALL {
        for policy in &policies {
            cells.push(session.sim_cell(
                format!("zoo/{app}/{}", policy.cell_tag()),
                app,
                &g,
                "zoo-golden/kron-tiny-dbg",
                &cfg,
                policy,
            ));
        }
    }
    assert_golden(session.run(cells));
    let streams = session.stream_counters();
    assert_eq!(
        (streams.recorded, streams.replayed),
        (5, 70),
        "one recording per kernel: {streams:?}"
    );
}
