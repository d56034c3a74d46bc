use popt_graph::VertexId;
use popt_trace::{AccessKind, RegionClass, SiteId};

/// Per-access metadata handed to replacement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessMeta {
    /// Cache line number (`byte address >> 6`).
    pub line: u64,
    /// Static access site (PC surrogate) — consumed by SHiP-PC / Hawkeye.
    pub site: SiteId,
    /// Read or write.
    pub kind: AccessKind,
    /// Streaming/irregular classification of the accessed region.
    pub class: RegionClass,
}

/// Context for a victim decision.
///
/// `ways` contains only the *replaceable* ways: reserved (way-partitioned)
/// ways are excluded before the policy ever sees the set, which structurally
/// enforces the paper's "P-OPT never evicts Rereference Matrix data". Every
/// way in it is valid — fills prefer invalid ways without consulting the
/// policy — so the slice is the set's line numbers, borrowed straight from
/// the cache's way array.
#[derive(Debug)]
pub struct VictimCtx<'a> {
    /// Set index within the cache (bank).
    pub set: usize,
    /// Line number held by each replaceable way, indexed 0..data_ways.
    pub ways: &'a [u64],
    /// The access that triggered the replacement.
    pub incoming: &'a AccessMeta,
}

/// Software→cache control messages (the paper's new instructions and
/// memory-mapped registers, Sections V-C/V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// `update_index`: the outer-loop vertex now being processed.
    CurrentVertex(VertexId),
    /// `stream_nextrefs`: epoch boundary; swap/refill Rereference Matrix
    /// columns.
    EpochBoundary,
    /// A new pass over the graph begins (epoch counter restarts).
    IterationBegin,
    /// The process was context-switched out and back in; P-OPT refetches
    /// its Rereference Matrix columns on resumption (Section V-F).
    ContextSwitch,
}

/// Costs a policy accrues outside the demand-access stream, consumed by the
/// timing model (Section VI: "we also account for the latency of the
/// streaming engine …").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyOverheads {
    /// Bytes DMA-ed from DRAM by the streaming engine (Rereference Matrix
    /// column refills).
    pub streamed_bytes: u64,
    /// Number of Rereference Matrix entry lookups performed by the next-ref
    /// engine (bank-local reads that contend with demand accesses).
    pub matrix_lookups: u64,
    /// Replacement decisions that ended in a tie broken by the fallback
    /// policy (reported for the Figure 15 tie-rate analysis).
    pub ties: u64,
    /// Total victim decisions taken (denominator for the tie rate).
    pub decisions: u64,
}

impl PolicyOverheads {
    /// Component-wise sum.
    pub fn merged(self, other: PolicyOverheads) -> PolicyOverheads {
        PolicyOverheads {
            streamed_bytes: self.streamed_bytes + other.streamed_bytes,
            matrix_lookups: self.matrix_lookups + other.matrix_lookups,
            ties: self.ties + other.ties,
            decisions: self.decisions + other.decisions,
        }
    }
}

/// A cache replacement policy.
///
/// One policy instance serves one cache (bank); it is constructed knowing
/// the bank's geometry. The cache calls, in order per access:
/// [`on_access`](ReplacementPolicy::on_access) for every lookup, then
/// exactly one of [`on_hit`](ReplacementPolicy::on_hit) or — after a miss
/// and a possible [`victim`](ReplacementPolicy::victim)/
/// [`on_evict`](ReplacementPolicy::on_evict) pair —
/// [`on_fill`](ReplacementPolicy::on_fill).
pub trait ReplacementPolicy {
    /// Human-readable policy name (figure labels).
    fn name(&self) -> String;

    /// Called for every demand lookup before hit/miss resolution. Oracular
    /// policies use this to advance their position in the recorded trace.
    fn on_access(&mut self, _set: usize, _meta: &AccessMeta) {}

    /// The lookup hit `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// After a miss, the line was installed into `way` of `set` (which was
    /// either invalid or just vacated by [`victim`](Self::victim)).
    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// A valid line is about to be replaced (SHiP uses this for outcome
    /// training).
    fn on_evict(&mut self, _set: usize, _way: usize, _line: u64) {}

    /// Chooses which replaceable way to evict. Returns an index into
    /// `ctx.ways`.
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize;

    /// Receives software control events (graph-aware policies only).
    fn on_control(&mut self, _event: &ControlEvent) {}

    /// Extra-stream costs for the timing model.
    fn overheads(&self) -> PolicyOverheads {
        PolicyOverheads::default()
    }
}

/// Boxed policies forward every call, so the LLC's `Box<dyn
/// ReplacementPolicy>` banks and the monomorphic private levels share one
/// [`SetAssocCache`](crate::SetAssocCache) implementation.
impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    #[inline]
    fn on_access(&mut self, set: usize, meta: &AccessMeta) {
        (**self).on_access(set, meta);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        (**self).on_hit(set, way, meta);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        (**self).on_fill(set, way, meta);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, line: u64) {
        (**self).on_evict(set, way, line);
    }

    #[inline]
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        (**self).victim(ctx)
    }

    fn on_control(&mut self, event: &ControlEvent) {
        (**self).on_control(event);
    }

    fn overheads(&self) -> PolicyOverheads {
        (**self).overheads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_merge_componentwise() {
        let a = PolicyOverheads {
            streamed_bytes: 1,
            matrix_lookups: 2,
            ties: 3,
            decisions: 4,
        };
        let b = PolicyOverheads {
            streamed_bytes: 10,
            matrix_lookups: 20,
            ties: 30,
            decisions: 40,
        };
        assert_eq!(
            a.merged(b),
            PolicyOverheads {
                streamed_bytes: 11,
                matrix_lookups: 22,
                ties: 33,
                decisions: 44
            }
        );
    }
}
