//! Graph kernels of the P-OPT evaluation (paper Table II), each with:
//!
//! * `run` — the real computation (used for correctness tests and for the
//!   native wall-clock baseline of Table IV), and
//! * `trace` — an instrumented execution emitting the memory-access stream
//!   a Pin tool would observe: streaming accesses to the CSR/CSC arrays and
//!   per-vertex result data, irregular accesses to neighbor-indexed vertex
//!   data (and frontier bit-vectors), `CurrentVertex` register updates, and
//!   instruction ticks.
//!
//! | App | Module | Style (Table II) | Irregular data |
//! |-----|--------|------------------|----------------|
//! | PageRank | [`pagerank`] | pull-only | 4 B ranks |
//! | Connected Components | [`components`] | push-only | 4 B labels |
//! | PageRank-delta | [`pagerank_delta`] | pull-mostly | 8 B deltas + frontier bit |
//! | Radii | [`radii`] | pull-mostly | 8 B bitmasks + frontier bit |
//! | Maximal Independent Set | [`mis`] | pull-mostly | 4 B states + frontier bit |
//!
//! Prior-work comparators for Section VII: [`pb`] (Propagation Blocking and
//! the PHI aggregation model), [`hats`] (HATS-BDFS traversal scheduling),
//! and [`tiled`] (CSR-segmenting pull PageRank).
//!
//! # Example
//!
//! ```
//! use popt_kernels::{App, pagerank};
//! use popt_graph::generators;
//! use popt_trace::CountingSink;
//!
//! let g = generators::uniform_random(100, 600, 1);
//! let ranks = pagerank::run(&g, 10);
//! assert_eq!(ranks.len(), 100);
//!
//! let plan = App::Pagerank.plan(&g);
//! let mut sink = CountingSink::new();
//! App::Pagerank.trace(&g, &plan, &mut sink);
//! assert!(sink.reads > 0);
//! ```

mod app;
mod common;
pub mod components;
pub mod hats;
pub mod mis;
pub mod pagerank;
pub mod pagerank_delta;
pub mod pb;
pub mod radii;
pub mod tiled;

pub use app::App;
pub use common::{IrregSpec, TracePlan};
