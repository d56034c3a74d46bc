//! CSR-segmenting: the 1-D tiling optimization of Zhang et al. \[57\],
//! reproduced for the Figure 13 interaction study.
//!
//! Tiling splits the *source* vertex range into `k` contiguous segments and
//! builds a sub-CSC per segment. A pull kernel then runs once per tile; the
//! irregular `srcData` accesses of tile `t` fall only within segment `t`'s
//! vertex range, shrinking the random-access footprint by `k×`. As the paper
//! observes, this also lets P-OPT "store only a tile of a Rereference Matrix
//! column in LLC" — the per-tile matrices cover `numVertices / k` lines.

use crate::{Csr, Graph, VertexId};

/// One tile of a segmented graph: a pull CSC whose neighbor entries are
/// restricted to `[src_begin, src_end)`.
#[derive(Debug, Clone)]
pub struct Tile {
    /// First source vertex covered by this tile (inclusive).
    pub src_begin: VertexId,
    /// One past the last source vertex covered.
    pub src_end: VertexId,
    /// Pull CSC over the full destination range, containing only the edges
    /// whose source lies in `[src_begin, src_end)`.
    pub csc: Csr,
}

impl Tile {
    /// Number of source vertices spanned by the tile.
    pub fn src_span(&self) -> usize {
        (self.src_end - self.src_begin) as usize
    }
}

/// Segments `g` into `num_tiles` tiles over the source-vertex dimension.
///
/// The union of the tiles' edges is exactly the graph's edge set; tile `t`
/// covers sources `[t*ceil(V/k), min((t+1)*ceil(V/k), V))`. Matches the
/// "each tile requires building a CSR" preprocessing cost the paper cites:
/// this function does `k` counting sorts.
///
/// # Panics
///
/// Panics if `num_tiles == 0`.
///
/// # Example
///
/// ```
/// use popt_graph::{generators, tiling};
///
/// let g = generators::uniform_random(64, 512, 9);
/// let tiles = tiling::segment(&g, 4);
/// assert_eq!(tiles.len(), 4);
/// let total: usize = tiles.iter().map(|t| t.csc.num_edges()).sum();
/// assert_eq!(total, g.num_edges());
/// ```
pub fn segment(g: &Graph, num_tiles: usize) -> Vec<Tile> {
    let n = g.num_vertices();
    let ranges = src_ranges(n, num_tiles);
    let span = n.div_ceil(num_tiles);
    let mut per_tile_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); num_tiles];
    // Walk the pull CSC once, scattering edges (dst <- src) into tiles by src.
    let csc = g.in_csr();
    for dst in 0..n as VertexId {
        for &src in csc.neighbors(dst) {
            let t = (src as usize / span).min(num_tiles - 1);
            per_tile_edges[t].push((dst, src));
        }
    }
    per_tile_edges
        .into_iter()
        .zip(ranges)
        .map(|(edges, (src_begin, src_end))| {
            let csc = Csr::from_edges(n, &edges).expect("edges come from a valid graph");
            Tile {
                src_begin,
                src_end,
                csc,
            }
        })
        .collect()
}

/// The source range `[begin, end)` of each of [`segment`]'s `num_tiles`
/// tiles over `num_vertices` sources, without building the tiles.
///
/// # Panics
///
/// Panics if `num_tiles == 0`.
pub fn src_ranges(num_vertices: usize, num_tiles: usize) -> Vec<(VertexId, VertexId)> {
    assert!(num_tiles > 0, "need at least one tile");
    let span = num_vertices.div_ceil(num_tiles);
    let at = |t: usize| (t * span).min(num_vertices) as VertexId;
    (0..num_tiles).map(|t| (at(t), at(t + 1))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn tiles_partition_edges_by_source_range() {
        let g = generators::uniform_random(100, 1000, 4);
        let tiles = segment(&g, 3);
        assert_eq!(tiles.len(), 3);
        let mut total = 0;
        for tile in &tiles {
            total += tile.csc.num_edges();
            for dst in 0..g.num_vertices() as VertexId {
                for &src in tile.csc.neighbors(dst) {
                    assert!(src >= tile.src_begin && src < tile.src_end);
                }
            }
        }
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn single_tile_is_the_whole_csc() {
        let g = generators::uniform_random(50, 400, 8);
        let tiles = segment(&g, 1);
        assert_eq!(tiles.len(), 1);
        assert_eq!(&tiles[0].csc, g.in_csr());
        assert_eq!(tiles[0].src_span(), 50);
    }

    #[test]
    fn more_tiles_than_vertices_yields_empty_tail_tiles() {
        let g = generators::uniform_random(4, 12, 1);
        let tiles = segment(&g, 8);
        assert_eq!(tiles.len(), 8);
        let total: usize = tiles.iter().map(|t| t.csc.num_edges()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn pull_result_is_tile_count_invariant() {
        // Summing srcData over tiles must equal summing over the whole CSC.
        let g = generators::uniform_random(60, 600, 2);
        let src_data: Vec<u64> = (0..60).map(|v| v * v + 1).collect();
        let full: Vec<u64> = (0..60u32)
            .map(|d| {
                g.in_neighbors(d)
                    .iter()
                    .map(|&s| src_data[s as usize])
                    .sum()
            })
            .collect();
        for k in [2usize, 3, 7] {
            let tiles = segment(&g, k);
            let mut acc = vec![0u64; 60];
            for tile in &tiles {
                for d in 0..60u32 {
                    for &s in tile.csc.neighbors(d) {
                        acc[d as usize] += src_data[s as usize];
                    }
                }
            }
            assert_eq!(acc, full, "tile count {k}");
        }
    }
}
