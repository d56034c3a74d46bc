//! HATS-BDFS traversal scheduling (Mukkara et al. \[40\]) — the Figure 12b
//! comparator.
//!
//! HATS reorders the *visit order* of the outer loop at run time with a
//! Bounded Depth-First Search: after processing a vertex, BDFS dives into
//! its not-yet-visited neighbors up to a depth bound, so consecutive outer
//! iterations touch overlapping neighborhoods. On community-structured
//! graphs this clusters irregular accesses; on graphs without community
//! structure it scrambles an already-reasonable vertex order — exactly the
//! sensitivity the paper contrasts against P-OPT's structure-agnostic
//! gains. Per the paper we model an *aggressive* HATS with zero scheduling
//! overhead: only the visit order changes.

use popt_graph::{Graph, VertexId};

/// Default BDFS depth bound (the HATS paper's sweet spot of 8).
pub const DEFAULT_DEPTH_BOUND: u32 = 8;

/// Computes the BDFS visit order over the pull traversal's destination
/// vertices (exploring incoming neighbors, since those are the vertices
/// whose data a pull iteration reuses).
///
/// Every vertex appears exactly once; unreached vertices seed new DFS
/// roots in ascending ID order.
pub fn bdfs_order(g: &Graph, depth_bound: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(VertexId, u32)> = Vec::new();
    for root in 0..n as VertexId {
        if visited[root as usize] {
            continue;
        }
        stack.push((root, 0));
        visited[root as usize] = true;
        while let Some((v, depth)) = stack.pop() {
            order.push(v);
            if depth >= depth_bound {
                continue;
            }
            // Reverse order keeps the lowest-ID neighbor on top (visited
            // next), mirroring a sequential DFS.
            for &u in g.in_neighbors(v).iter().rev() {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    stack.push((u, depth + 1));
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;

    fn is_permutation(order: &[VertexId], n: usize) -> bool {
        let mut seen = vec![false; n];
        if order.len() != n {
            return false;
        }
        for &v in order {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }

    #[test]
    fn order_is_a_permutation() {
        let g = generators::uniform_random(500, 3000, 2);
        let order = bdfs_order(&g, DEFAULT_DEPTH_BOUND);
        assert!(is_permutation(&order, 500));
    }

    #[test]
    fn depth_zero_is_the_identity() {
        let g = generators::uniform_random(100, 600, 1);
        let order = bdfs_order(&g, 0);
        assert_eq!(order, (0..100u32).collect::<Vec<_>>());
    }

    #[test]
    fn community_graphs_get_clustered_visits() {
        // Average |id distance| between consecutive visited vertices'
        // neighborhoods should shrink relative to sequential order on a
        // community graph: measure the mean distance between consecutive
        // scheduled vertices' community blocks.
        let communities = 32;
        let n = 2048;
        let g = generators::community(n, 16 * n, communities, 0.95, 5);
        let order = bdfs_order(&g, DEFAULT_DEPTH_BOUND);
        let block = n / communities;
        let switches = |seq: &[VertexId]| -> usize {
            seq.windows(2)
                .filter(|w| (w[0] as usize / block) != (w[1] as usize / block))
                .count()
        };
        let sequential: Vec<VertexId> = (0..n as u32).collect();
        // BDFS on a community graph should not switch communities much more
        // than the sequential order does (it dives within communities).
        assert!(
            switches(&order) < 4 * switches(&sequential) + n / 4,
            "BDFS switched communities too often: {} vs sequential {}",
            switches(&order),
            switches(&sequential)
        );
        assert!(is_permutation(&order, n));
    }
}
