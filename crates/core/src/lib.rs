//! P-OPT: practical optimal cache replacement for graph analytics.
//!
//! This crate is the paper's primary contribution. The key insight
//! (Section III): for a graph kernel, *the transpose of the graph encodes
//! the next reference of every vertex* — a pull execution processing
//! destination `d` will next touch `srcData[v]` at the smallest
//! out-neighbor of `v` greater than `d`. That turns Belady's MIN from an
//! oracle into a data-structure lookup:
//!
//! * [`Topt`] — **T-OPT** (Section III): consults the transpose CSR
//!   directly at replacement time. Near-optimal, but each decision costs
//!   `O(out-degree)` per vertex in the line; treated by the paper as the
//!   idealized upper bound.
//! * [`RerefMatrix`] — the **Rereference Matrix** (Section IV): an
//!   epoch-quantized compression of the transpose,
//!   `numCacheLines × numEpochs` entries of a few bits each, with three
//!   encodings ([`Encoding`]): inter-only (Figure 5), inter+intra
//!   (Figure 6, the default), and single-epoch (P-OPT-SE, Section VII-B).
//! * [`next_ref`](RerefMatrix::next_ref) — Algorithm 2: computes a line's
//!   next-reference distance from the current and next epoch columns.
//! * [`Popt`] — the **P-OPT policy** (Section V): plugs into `popt-sim`'s
//!   LLC, pins matrix columns in reserved ways, tracks the `currVertex`
//!   register, streams columns at epoch boundaries, and breaks
//!   quantization ties with an RRIP fallback.
//! * [`preprocess`] — the parallel Rereference Matrix construction whose
//!   cost Table IV reports.
//!
//! # Example
//!
//! ```
//! use popt_core::{Encoding, Quantization, RerefMatrix};
//! use popt_graph::Graph;
//!
//! // Figure 1's example graph; pull traversal, 1 vertex per line to match
//! // the paper's walkthrough.
//! let g = Graph::from_edges(5, &[
//!     (0, 2), (1, 0), (1, 4), (2, 0), (2, 1), (2, 3), (3, 1), (3, 4), (4, 0), (4, 2),
//! ])?;
//! let m = RerefMatrix::build(g.out_csr(), 1, 1, Quantization::EIGHT, Encoding::InterIntra);
//! // Vertex S1 (= line 1) is referenced while processing D0 and D4.
//! assert_eq!(m.next_ref(1, 0), 0); // being referenced this epoch
//! # Ok::<(), popt_graph::GraphError>(())
//! ```

pub use popt_graph::cast;

mod engine;
mod entry;
mod epoch;
mod policy;
pub mod prefetch;
pub mod preprocess;
mod reref;
pub mod serialize;
mod topt;

pub use engine::{NextRefEngine, NextRefSource, VictimChoice};
pub use entry::{Encoding, RawEntry};
pub use epoch::Quantization;
pub use policy::{Popt, PoptConfig, StreamBinding, TieBreak};
pub use reref::RerefMatrix;
pub use topt::{IrregularStream, Topt};

/// Next-reference distance treated as "infinitely far" (no further use).
pub const INFINITE_DISTANCE: u32 = u32::MAX;
