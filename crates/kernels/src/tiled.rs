//! CSR-segmented (1-D tiled) pull PageRank — the Figure 13 interaction
//! study (Zhang et al. \[57\]).
//!
//! The kernel runs once per tile; within tile `t` every irregular
//! `srcData` access falls in the tile's source range, shrinking the
//! random-access footprint by the tile count. For P-OPT, each tile gets a
//! range-scoped Rereference Matrix
//! ([`popt_core::RerefMatrix::build_range`]), so the resident column also
//! shrinks — the mutual-enablement the paper highlights.

use crate::common::{Emit, IrregSpec, TracePlan, EDGE_INSTRS, VERTEX_INSTRS};
use crate::pagerank::sites;
use popt_graph::tiling::Tile;
use popt_graph::{Graph, VertexId};
use popt_trace::{AddressSpace, RegionClass, TraceSink};

/// Lays out the tiled kernel's arrays. The layout matches
/// [`crate::pagerank::plan`] (OA/NA sized for the whole graph; per-tile
/// OA/NA reuse the same streaming regions since their locality behavior is
/// identical).
pub fn plan(g: &Graph) -> TracePlan {
    let n = g.num_vertices() as u64;
    let mut space = AddressSpace::new();
    let _oa = space.alloc("oa", n + 1, 8, RegionClass::Streaming);
    let _na = space.alloc("na", g.num_edges() as u64, 4, RegionClass::Streaming);
    let src = space.alloc("srcData", n, 4, RegionClass::Irregular);
    let _dst = space.alloc("dstData", n, 4, RegionClass::Streaming);
    TracePlan {
        space,
        irregs: vec![IrregSpec {
            region: src,
            vertices_per_elem: 1,
        }],
    }
}

/// Emits one full PageRank iteration executed tile by tile.
///
/// Epoch semantics: each tile is its own pass over the destinations, so an
/// `IterationBegin` fires per tile and `CurrentVertex` tracks the tile's
/// destination scan — exactly what a per-tile Rereference Matrix
/// quantizes.
pub fn trace<S: TraceSink>(g: &Graph, tiles: &[Tile], plan: &TracePlan, mut sink: S) {
    let regions = plan.region_ids();
    let (oa, na, src_data, dst_data) = (regions[0], regions[1], regions[2], regions[3]);
    let n = g.num_vertices() as VertexId;
    for tile in tiles {
        let mut emit = Emit {
            space: &plan.space,
            sink: &mut sink,
        };
        emit.iteration_begin();
        let mut edge_cursor = 0u64;
        for dst in 0..n {
            emit.current_vertex(dst);
            let neighbors = tile.csc.neighbors(dst);
            if neighbors.is_empty() {
                emit.instructions(1);
                continue;
            }
            emit.read(oa, dst as u64, sites::OA);
            emit.instructions(VERTEX_INSTRS);
            for &src in neighbors {
                debug_assert!(src >= tile.src_begin && src < tile.src_end);
                emit.read(na, edge_cursor, sites::NA);
                emit.read(src_data, src as u64, sites::SRC);
                emit.instructions(EDGE_INSTRS);
                edge_cursor += 1;
            }
            emit.write(dst_data, dst as u64, sites::DST);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::{generators, tiling};
    use popt_trace::{CountingSink, RecordingSink};

    #[test]
    fn tiled_trace_covers_every_edge_exactly_once() {
        let g = generators::uniform_random(128, 1024, 4);
        let p = plan(&g);
        for k in [1usize, 2, 4] {
            let tiles = tiling::segment(&g, k);
            let mut sink = CountingSink::new();
            trace(&g, &tiles, &p, &mut sink);
            // srcData + NA per edge; OA per (tile, dst-with-neighbors).
            let e = g.num_edges() as u64;
            assert!(sink.reads >= 2 * e, "tiles {k}");
            assert_eq!(sink.iterations, k as u64);
        }
    }

    #[test]
    fn irregular_accesses_stay_in_tile_ranges() {
        let g = generators::uniform_random(64, 512, 7);
        let p = plan(&g);
        let tiles = tiling::segment(&g, 4);
        let mut rec = RecordingSink::new();
        trace(&g, &tiles, &p, &mut rec);
        let src_region = &p.space.regions()[2];
        // Partition the recorded srcData reads by IterationBegin markers.
        let mut tile_idx = 0usize;
        let mut started = false;
        for ev in rec.events() {
            match ev {
                popt_trace::TraceEvent::IterationBegin => {
                    if started {
                        tile_idx += 1;
                    }
                    started = true;
                }
                popt_trace::TraceEvent::Access(a) if src_region.contains(a.addr) => {
                    let v = ((a.addr - src_region.base()) / 4) as u32;
                    let t = &tiles[tile_idx];
                    assert!(v >= t.src_begin && v < t.src_end);
                }
                _ => {}
            }
        }
        assert_eq!(tile_idx, 3);
    }
}
