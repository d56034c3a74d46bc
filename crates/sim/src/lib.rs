//! Trace-driven cache simulator for the P-OPT reproduction.
//!
//! Models the memory hierarchy of the paper's Table I — private L1 and L2
//! with Bit-PLRU, and a shared, optionally NUCA-banked, way-partitionable
//! LLC whose replacement policy is pluggable — plus the replacement-policy
//! zoo the paper evaluates against:
//!
//! | Policy | Module | Paper reference |
//! |--------|--------|-----------------|
//! | LRU | [`policies::Lru`] | baseline of Figs 2/4/10 |
//! | Bit-PLRU | [`policies::BitPlru`] | L1/L2 policy (Table I) |
//! | SRRIP / BRRIP / DRRIP | [`policies::Drrip`] | Jaleel et al. \[30\] |
//! | SHiP-PC / SHiP-Mem | [`policies::Ship`] | Wu et al. \[53\] |
//! | Hawkeye | [`policies::Hawkeye`] | Jain & Lin \[28\] |
//! | SDBP | [`policies::Sdbp`] | Khan et al. \[32\] (related work) |
//! | Leeway | [`policies::Leeway`] | Faldu & Grot \[21\] (related work) |
//! | Belady's MIN | [`policies::Belady`] | the unconstrained oracle |
//! | GRASP | [`policies::Grasp`] | Faldu et al. \[20\] |
//!
//! The graph-aware T-OPT and P-OPT policies live in `popt-core` and plug
//! into the same [`ReplacementPolicy`] trait.
//!
//! # Example
//!
//! ```
//! use popt_sim::{CacheConfig, HierarchyConfig, Hierarchy, PolicyKind};
//! use popt_trace::{TraceEvent, TraceSink};
//!
//! let cfg = HierarchyConfig::scaled_table1();
//! let mut hier = Hierarchy::new(&cfg, |sets, ways| PolicyKind::Lru.build(sets, ways));
//! for i in 0..1000u64 {
//!     hier.event(TraceEvent::read(i * 64, 0));
//! }
//! assert_eq!(hier.stats().llc.demand_accesses(), 1000);
//! ```

mod cache;
mod config;
mod fasthash;
mod hierarchy;
mod nuca;
pub mod policies;
mod replace;
mod stats;
mod timing;

pub use cache::{AccessOutcome, SetAssocCache};
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{
    ChunkRecorder, GroupLlc, GroupRun, Hierarchy, Llc, LlcOp, LlcSink, LlcThread, MemberRun,
    PrivateLevels, Recorder,
};
pub use nuca::{BankMapping, NucaConfig};
pub use policies::PolicyKind;
pub use replace::{AccessMeta, ControlEvent, PolicyOverheads, ReplacementPolicy, VictimCtx};
pub use stats::{CacheStats, HierarchyStats, StatsViolation};
pub use timing::{TimingBreakdown, TimingModel};
