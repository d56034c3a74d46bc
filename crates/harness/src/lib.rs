//! popt-harness: parallel, resumable experiment orchestration with a
//! content-addressed artifact cache.
//!
//! The paper's evaluation is a kernels × graphs × policies × hierarchies
//! sweep matrix; this crate turns each cell of that matrix into a
//! schedulable job and provides the run-wide machinery around it:
//!
//! * [`pool`] — a shared-queue thread pool whose results come back in
//!   submission order, so parallel sweeps emit byte-identical result
//!   files to serial ones.
//! * [`cache`] — a content-addressed on-disk artifact cache that dedupes
//!   the expensive shared prerequisites (suite graphs, Rereference
//!   Matrices) across cells, runs, and processes.
//! * [`manifest`] — the JSONL run journal that makes a killed sweep
//!   resumable: completed cells replay from disk, only unfinished ones
//!   re-simulate.
//! * [`report`] — per-cell wall-time/throughput aggregation.
//! * [`sweep`] — the session object gluing the above together for the
//!   experiment drivers in `popt-cli`.
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
pub mod sweep;

pub use cache::{ArtifactCache, ArtifactKey, ArtifactKind, CacheCounters};
pub use manifest::Manifest;
pub use report::{CellMetric, CellOutcome, SweepReport};
pub use sweep::{SweepCell, SweepSession};
