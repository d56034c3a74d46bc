//! Memory-access trace model for the P-OPT reproduction.
//!
//! The paper drives its cache simulator from Pin-instrumented executions.
//! This crate provides the equivalent plumbing for our self-instrumented
//! kernels:
//!
//! * [`AddressSpace`] — a simulated flat physical address space into which
//!   each kernel array (offsets, neighbors, vertex data, frontier, …) is
//!   allocated as a [`Region`] tagged *streaming* or *irregular*. The
//!   irregular regions play the role of the paper's `irregData` tracked by
//!   the `irreg_base` / `irreg_bound` registers (Section V-B).
//! * [`TraceEvent`] — the event vocabulary flowing from kernels to the
//!   simulator: data accesses, `CurrentVertex` updates (the paper's
//!   `update_index` instruction), `EpochBoundary` markers (the paper's
//!   `stream_nextrefs` instruction), and retired-instruction ticks used for
//!   MPKI accounting.
//! * [`TraceSink`] — the consumer interface; `popt-sim`'s cache hierarchy is
//!   the main implementor. Recording and counting sinks support testing.
//!
//! # Example
//!
//! ```
//! use popt_trace::{AddressSpace, RegionClass, TraceEvent, RecordingSink, TraceSink};
//!
//! let mut space = AddressSpace::new();
//! let data = space.alloc("srcData", 1024, 4, RegionClass::Irregular);
//! let mut sink = RecordingSink::new();
//! sink.event(TraceEvent::read(space.addr_of(data, 10), 1));
//! assert_eq!(sink.events().len(), 1);
//! ```

mod address_space;
mod event;
pub mod paging;
mod sink;

pub use address_space::{AddressSpace, Region, RegionClass, RegionId};
pub use event::{Access, AccessKind, SiteId, TraceEvent};
pub use sink::{CountingSink, RecordingSink, TraceSink};

/// Cache line size in bytes. Fixed at 64 throughout, like the paper
/// ("a typical cache line of 64B", Section V-A).
pub const LINE_SIZE: u64 = 64;

/// Log2 of [`LINE_SIZE`], the shift used in all line-number arithmetic.
pub const LINE_SHIFT: u32 = 6;

/// Maps a byte address to its cache-line address (line-aligned).
pub fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}
