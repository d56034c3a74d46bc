//! Propagation Blocking (Beamer et al. [10]) and the PHI in-cache update
//! aggregation model (Mukkara et al. [41]) — the Figure 14 study.
//!
//! Both optimize the *scatter* (push) phase of PageRank-style kernels:
//!
//! * **PB** bins updates by destination range during the dominant *binning*
//!   phase: appends go to one active cache line per bin, turning random
//!   scatter into a small set of sequential streams. We model each bin's
//!   append buffer as its (cyclically rewritten) active line, which
//!   preserves the reuse structure replacement policies see; the
//!   policy-independent cold flush traffic of full lines is folded into
//!   the line's rewrites.
//! * **PHI** scatters directly but coalesces commutative updates in a
//!   private aggregation structure; only evicted (uncoalesced) updates
//!   reach the LLC. Its effectiveness depends on private-cache-level
//!   locality — high for power-law graphs (hub updates repeat), low for
//!   uniform graphs, exactly the contrast Figure 14 draws.

use crate::common::{Emit, IrregSpec, TracePlan, EDGE_INSTRS, VERTEX_INSTRS};
use popt_graph::{Csr, Graph, VertexId};
use popt_trace::{AddressSpace, RegionClass, TraceSink};

/// Access-site IDs.
pub mod sites {
    /// Offsets-array read.
    pub const OA: u32 = 60;
    /// Neighbor-array read.
    pub const NA: u32 = 61;
    /// Contribution read (streaming, src-major).
    pub const CONTRIB: u32 = 62;
    /// Bin append write (PB).
    pub const BIN: u32 = 63;
    /// Direct destination update (PHI).
    pub const DST: u32 = 64;
}

/// Elements of 4 B in one bin's active line.
const ELEMS_PER_BIN_LINE: u64 = 16;

/// Destination-range bins for PB. `num_bins` should divide the vertex
/// space into ranges that fit a private cache during the accumulate phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningConfig {
    /// Number of destination-range bins.
    pub num_bins: usize,
}

impl BinningConfig {
    /// PB's usual sizing: destination ranges that fit the (scaled) L2.
    pub fn for_graph(g: &Graph) -> Self {
        // 32 KB scaled L2 / 4 B elements = 8K destinations per bin.
        let span = 8 * 1024;
        BinningConfig {
            num_bins: g.num_vertices().div_ceil(span).max(1),
        }
    }

    /// Destinations per bin for a graph of `n` vertices.
    pub fn span(&self, n: usize) -> usize {
        n.div_ceil(self.num_bins).max(1)
    }

    /// Bin of destination `dst`.
    pub fn bin_of(&self, dst: VertexId, n: usize) -> usize {
        (dst as usize / self.span(n)).min(self.num_bins - 1)
    }
}

/// Builds the bin-granular transpose: "vertex" `b` of the result is bin
/// `b`, whose neighbor list is the sorted sources having an edge into
/// `b`'s destination range. A Rereference Matrix built on this (rows
/// covering one bin each via [`popt_core::RerefMatrix::build_range`])
/// gives P-OPT the next source that touches each bin's active line.
pub fn bin_transpose(g: &Graph, cfg: BinningConfig) -> Csr {
    let n = g.num_vertices();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.num_edges());
    for src in 0..n as VertexId {
        for &dst in g.out_neighbors(src) {
            edges.push((cfg.bin_of(dst, n) as VertexId, src));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Csr::from_edges(n.max(cfg.num_bins), &edges).expect("bin ids and sources are in range")
}

/// Lays out the PB binning phase: streaming OA/NA/contributions, one
/// irregular active line per bin, plus the streaming spill region that
/// absorbs filled bin lines.
pub fn plan_pb(g: &Graph, cfg: BinningConfig) -> TracePlan {
    let n = g.num_vertices() as u64;
    let mut space = AddressSpace::new();
    let _oa = space.alloc("oa", n + 1, 8, RegionClass::Streaming);
    let _na = space.alloc("na", g.num_edges() as u64, 4, RegionClass::Streaming);
    let _contrib = space.alloc("contrib", n, 4, RegionClass::Streaming);
    let bins = space.alloc(
        "bins",
        cfg.num_bins as u64 * ELEMS_PER_BIN_LINE,
        4,
        RegionClass::Irregular,
    );
    // Every full active line spills to the bin's DRAM segment; the spill
    // stream is compulsory, sequential-per-bin write traffic.
    let _spill = space.alloc(
        "bin_spill",
        (g.num_edges() as u64).max(1),
        4,
        RegionClass::Streaming,
    );
    // One row per bin line; granularity is informational here (the P-OPT
    // binding for bins is built from `bin_transpose`, not from this spec).
    TracePlan {
        space,
        irregs: vec![IrregSpec {
            region: bins,
            vertices_per_elem: 1,
        }],
    }
}

/// Emits the PB binning phase: per edge, a streaming contribution read and
/// an append into the destination's bin; every 16th append to a bin spills
/// the filled line toward DRAM (the compulsory |E|/16 lines of bin-buffer
/// write traffic software PB pays).
pub fn trace_pb<S: TraceSink>(g: &Graph, cfg: BinningConfig, plan: &TracePlan, sink: S) {
    let regions = plan.region_ids();
    let (oa, na, contrib, bins, spill) =
        (regions[0], regions[1], regions[2], regions[3], regions[4]);
    let mut emit = Emit {
        space: &plan.space,
        sink,
    };
    emit.iteration_begin();
    let n = g.num_vertices();
    let mut cursors = vec![0u64; cfg.num_bins];
    let mut edge_cursor = 0u64;
    let mut spill_cursor = 0u64;
    for src in 0..n as VertexId {
        emit.current_vertex(src);
        emit.read(oa, src as u64, sites::OA);
        emit.read(contrib, src as u64, sites::CONTRIB);
        emit.instructions(VERTEX_INSTRS);
        for &dst in g.out_neighbors(src) {
            emit.read(na, edge_cursor, sites::NA);
            let b = cfg.bin_of(dst, n);
            let slot = b as u64 * ELEMS_PER_BIN_LINE + cursors[b] % ELEMS_PER_BIN_LINE;
            emit.write(bins, slot, sites::BIN);
            cursors[b] += 1;
            if cursors[b].is_multiple_of(ELEMS_PER_BIN_LINE) {
                // The active line filled up: one line of spill traffic.
                emit.write(spill, spill_cursor * ELEMS_PER_BIN_LINE, sites::BIN);
                spill_cursor += 1;
            }
            emit.instructions(EDGE_INSTRS);
            edge_cursor += 1;
        }
    }
}

/// PHI's private aggregation structure: a direct-mapped table of
/// destination accumulators. Updates that hit coalesce (no LLC traffic);
/// conflicting updates evict the old entry to memory.
#[derive(Debug, Clone)]
pub struct PhiModel {
    slots: Vec<Option<VertexId>>,
    /// Updates coalesced (absorbed without LLC traffic).
    pub coalesced: u64,
    /// Updates forwarded to the LLC.
    pub forwarded: u64,
}

impl PhiModel {
    /// Creates a table with `entries` slots (the paper sizes PHI to the
    /// private cache; 4096 × 8 B matches the scaled L2).
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "PHI needs at least one slot");
        PhiModel {
            slots: vec![None; entries],
            coalesced: 0,
            forwarded: 0,
        }
    }

    /// Offers an update to `dst`; returns the destination whose accumulated
    /// update must be written out now, if any.
    pub fn offer(&mut self, dst: VertexId) -> Option<VertexId> {
        let idx = dst as usize % self.slots.len();
        match self.slots[idx] {
            Some(cur) if cur == dst => {
                self.coalesced += 1;
                None
            }
            old => {
                self.slots[idx] = Some(dst);
                if old.is_some() {
                    self.forwarded += 1;
                }
                old
            }
        }
    }

    /// Drains every resident accumulator (end of phase).
    pub fn flush(&mut self) -> Vec<VertexId> {
        let out: Vec<VertexId> = self.slots.iter().flatten().copied().collect();
        self.forwarded += out.len() as u64;
        self.slots.iter_mut().for_each(|s| *s = None);
        out
    }
}

/// Lays out the PHI scatter phase: streaming OA/NA/contributions plus the
/// irregular destination array the filtered updates land in.
pub fn plan_phi(g: &Graph) -> TracePlan {
    let n = g.num_vertices() as u64;
    let mut space = AddressSpace::new();
    let _oa = space.alloc("oa", n + 1, 8, RegionClass::Streaming);
    let _na = space.alloc("na", g.num_edges() as u64, 4, RegionClass::Streaming);
    let _contrib = space.alloc("contrib", n, 4, RegionClass::Streaming);
    let dst = space.alloc("dstData", n, 4, RegionClass::Irregular);
    TracePlan {
        space,
        irregs: vec![IrregSpec {
            region: dst,
            vertices_per_elem: 1,
        }],
    }
}

/// Emits the PHI scatter phase: per edge an update is offered to the
/// aggregation table; only evictions (and the final flush) reach the LLC
/// as irregular `dstData` writes.
pub fn trace_phi<S: TraceSink>(g: &Graph, phi_entries: usize, plan: &TracePlan, sink: S) {
    let regions = plan.region_ids();
    let (oa, na, contrib, dst_data) = (regions[0], regions[1], regions[2], regions[3]);
    let mut emit = Emit {
        space: &plan.space,
        sink,
    };
    emit.iteration_begin();
    let mut phi = PhiModel::new(phi_entries);
    let n = g.num_vertices();
    let mut edge_cursor = 0u64;
    for src in 0..n as VertexId {
        emit.current_vertex(src);
        emit.read(oa, src as u64, sites::OA);
        emit.read(contrib, src as u64, sites::CONTRIB);
        emit.instructions(VERTEX_INSTRS);
        for &dst in g.out_neighbors(src) {
            emit.read(na, edge_cursor, sites::NA);
            if let Some(evicted) = phi.offer(dst) {
                emit.write(dst_data, evicted as u64, sites::DST);
            }
            emit.instructions(EDGE_INSTRS);
            edge_cursor += 1;
        }
    }
    for dst in phi.flush() {
        emit.write(dst_data, dst as u64, sites::DST);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;
    use popt_trace::CountingSink;

    #[test]
    fn bin_config_partitions_destinations() {
        let cfg = BinningConfig { num_bins: 8 };
        for dst in 0..1000u32 {
            assert!(cfg.bin_of(dst, 1000) < 8);
        }
        assert_eq!(cfg.bin_of(0, 1000), 0);
        assert_eq!(cfg.bin_of(999, 1000), 7);
    }

    #[test]
    fn bin_transpose_lists_sources_per_bin() {
        let g = popt_graph::Graph::from_edges(8, &[(3, 0), (5, 1), (3, 7)]).unwrap();
        let cfg = BinningConfig { num_bins: 2 }; // bins: [0,4), [4,8)
        let t = bin_transpose(&g, cfg);
        assert_eq!(t.neighbors(0), &[3, 5]); // edges into dsts 0..4
        assert_eq!(t.neighbors(1), &[3]); // edge into dst 7
    }

    #[test]
    fn pb_trace_writes_one_append_per_edge_plus_spills() {
        let g = generators::uniform_random(256, 2048, 1);
        let cfg = BinningConfig { num_bins: 4 };
        let p = plan_pb(&g, cfg);
        let mut sink = CountingSink::new();
        trace_pb(&g, cfg, &p, &mut sink);
        let e = g.num_edges() as u64;
        // One append per edge plus one spill per filled 16-entry line.
        assert!(sink.writes >= e + e / 16 - cfg.num_bins as u64);
        assert!(sink.writes <= e + e / 16 + cfg.num_bins as u64);
    }

    #[test]
    fn phi_coalesces_hub_updates_on_skewed_graphs() {
        let kron = generators::rmat(12, 1 << 14, generators::RmatParams::KRONECKER, 2);
        let urand = generators::uniform_random(1 << 12, 1 << 14, 2);
        let ratio = |g: &Graph| {
            let mut phi = PhiModel::new(1024);
            for src in 0..g.num_vertices() as u32 {
                for &dst in g.out_neighbors(src) {
                    phi.offer(dst);
                }
            }
            phi.coalesced as f64 / g.num_edges() as f64
        };
        let rk = ratio(&kron);
        let ru = ratio(&urand);
        assert!(
            rk > ru + 0.1,
            "PHI should coalesce far more on KRON ({rk:.2}) than URAND ({ru:.2})"
        );
    }

    #[test]
    fn phi_trace_emits_fewer_irregular_writes_than_edges() {
        let g = generators::rmat(10, 8192, generators::RmatParams::KRONECKER, 4);
        let p = plan_phi(&g);
        let mut sink = CountingSink::new();
        trace_phi(&g, 1024, &p, &mut sink);
        assert!(
            sink.writes < g.num_edges() as u64,
            "coalescing must reduce writes"
        );
    }

    #[test]
    fn phi_flush_accounts_for_all_updates() {
        let mut phi = PhiModel::new(4);
        for dst in [1u32, 1, 2, 3, 5, 1] {
            phi.offer(dst);
        }
        let flushed = phi.flush();
        // Every offered update is either coalesced or forwarded.
        assert_eq!(phi.coalesced + phi.forwarded, 6);
        assert!(flushed.len() <= 4);
        // Table is empty after the flush.
        assert!(phi.flush().is_empty());
    }
}
