//! popt-harness: parallel, resumable experiment orchestration with a
//! content-addressed artifact cache.
//!
//! The paper's evaluation is a kernels × graphs × policies × hierarchies
//! sweep matrix. `popt-cli`'s `exec::Session` is its one cell runner: it
//! resumes, shares and schedules the cells of each batch. This crate
//! provides the run-wide machinery it runs on:
//!
//! * [`pool`] — a shared-queue thread pool whose results come back in
//!   submission order, so parallel sweeps emit byte-identical result
//!   files to serial ones, and [`pool::panic_message`], which renders a
//!   caught panic for the sweep runner and the service alike.
//! * [`cache`] — a content-addressed on-disk artifact cache that dedupes
//!   the expensive shared prerequisites (suite graphs, Rereference
//!   Matrices) across cells, runs, and processes.
//! * [`manifest`] — the JSONL run journal that makes a killed sweep
//!   resumable: completed cells replay from disk, only unfinished ones
//!   re-simulate.
//! * [`report`] — per-cell wall-time/throughput aggregation.
//! * [`hash`] — the stable (cross-process) hash underneath cache keys and
//!   manifest digests.
//! * [`json`] — the minimal JSON dialect shared by the manifest and the
//!   `popt-service` HTTP API (objects, arrays, strings, unsigned ints).

pub mod cache;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod pool;
pub mod report;

pub use cache::{ArtifactCache, ArtifactKey, ArtifactKind, CacheCounters};
pub use manifest::Manifest;
pub use report::{CellMetric, CellOutcome, SweepReport};
