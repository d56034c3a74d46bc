//! T-OPT: transpose-based optimal replacement (paper Section III).
//!
//! T-OPT consults the graph's transpose directly: the next reference of
//! `srcData[v]` while the pull loop processes destination `d` is `v`'s
//! first out-neighbor greater than `d`. The paper treats T-OPT as the
//! idealized upper bound ("incurs no overhead for tracking next
//! references"), and so does our timing model: the policy reports no
//! metadata overheads.
//!
//! The lookup is amortized `O(1)`: kernels visit destinations in
//! ascending order within an iteration, so each vertex keeps a cursor into
//! its sorted transpose row that only moves forward. The cursors reset at
//! every `IterationBegin`; if the order ever goes backwards (a reordered
//! traversal), lookups fall back to an `O(log degree)` binary search until
//! the next `IterationBegin`.
//!
//! Beside each cursor sits the neighbor it points at (the vertex's
//! *absolute* next reference), and beside every irregular line the line's
//! absolute next reference (the minimum over its vertices). While
//! destinations ascend, a memoized reference `A` stays exact as long as
//! the current vertex is below `A`, and one with no next reference keeps
//! none until the next `IterationBegin`; so most lookups read one word per
//! way, and the rest read the line's vertices from one contiguous run
//! instead of walking every transpose row.

use crate::engine::{NextRefEngine, NextRefSource, TieBreaker};
use crate::INFINITE_DISTANCE;
use popt_graph::{Csr, VertexId};
use popt_sim::{AccessMeta, ControlEvent, PolicyOverheads, ReplacementPolicy, VictimCtx};
use std::sync::Arc;

/// One irregularly-accessed data structure tracked by T-OPT — the contents
/// of one (`irreg_base`, `irreg_bound`) register pair plus the granularity
/// needed to map cache lines back to vertex ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrregularStream {
    /// First byte of the region.
    pub base: u64,
    /// One past the last byte.
    pub bound: u64,
    /// Vertices whose data share one 64 B line (16 for 4 B elements,
    /// 512 for a bit-vector frontier).
    pub vertices_per_line: u32,
}

impl IrregularStream {
    /// Whether the line-aligned address of `line` falls in the region.
    fn contains_line(&self, line: u64) -> bool {
        let addr = line << popt_trace::LINE_SHIFT;
        addr >= self.base && addr < self.bound
    }

    /// Index of `line` among the region's lines.
    fn line_index(&self, line: u64) -> u64 {
        ((line << popt_trace::LINE_SHIFT) - self.base) / popt_trace::LINE_SIZE
    }

    /// Lines the region spans.
    fn num_lines(&self) -> usize {
        usize::try_from((self.bound - self.base).div_ceil(popt_trace::LINE_SIZE)).unwrap_or(0)
    }

    /// First vertex covered by `line`.
    fn first_vertex(&self, line: u64) -> u64 {
        self.line_index(line) * self.vertices_per_line as u64
    }
}

/// Memo entry of a vertex or line whose next reference is not known.
const MEMO_UNKNOWN: u32 = 0;
/// Memo entry of a vertex or line with no next reference in this
/// iteration.
const MEMO_NONE: u32 = u32::MAX;

/// The lookup state that is valid while destinations ascend.
///
/// Every memoized next reference `A` — of a vertex or of a line — is
/// exact while `current_vertex < A`. Next references are always beyond
/// the current vertex, so [`MEMO_UNKNOWN`] (0) is never valid and
/// [`MEMO_NONE`] (`u32::MAX`, above every vertex id) always is.
#[derive(Debug, Clone)]
struct Cursor {
    /// Per vertex: a position in its transpose row at or before the first
    /// neighbor beyond the current vertex.
    positions: Vec<u32>,
    /// Per vertex: the neighbor at its position once looked up — its
    /// absolute next reference. A line's vertices are adjacent here, so a
    /// line's lookup reads one contiguous run.
    next: Vec<u32>,
    /// Per line of each irregular stream: the minimum of its vertices'
    /// next references.
    memo: Vec<Vec<u32>>,
}

impl Cursor {
    /// Rewinds every position and forgets every memoized reference (an
    /// `IterationBegin`).
    fn reset(&mut self) {
        self.positions.fill(0);
        self.next.fill(MEMO_UNKNOWN);
        for memo in &mut self.memo {
            memo.fill(MEMO_UNKNOWN);
        }
    }
}

/// The T-OPT replacement policy.
pub struct Topt {
    transpose: Arc<Csr>,
    streams: Vec<IrregularStream>,
    current_vertex: VertexId,
    /// Per-vertex row positions and per-line next references. `None`
    /// disables both ([`Topt::without_cursor`]).
    cursor: Option<Cursor>,
    /// Whether `current_vertex` has never decreased since the last
    /// `IterationBegin` — the condition under which the cursor is valid.
    monotone: bool,
    engine: NextRefEngine,
    tie_break: TieBreaker,
    ties: u64,
    decisions: u64,
}

impl std::fmt::Debug for Topt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topt")
            .field("streams", &self.streams.len())
            .finish()
    }
}

impl Topt {
    /// Creates T-OPT for an LLC bank of `sets × ways`.
    ///
    /// `transpose` must encode the dimension opposite to the traversal
    /// ([`popt_graph::Graph::transpose_of`]).
    pub fn new(
        transpose: Arc<Csr>,
        streams: Vec<IrregularStream>,
        sets: usize,
        ways: usize,
    ) -> Self {
        Topt {
            cursor: Some(Cursor {
                positions: vec![0; transpose.num_vertices()],
                next: vec![MEMO_UNKNOWN; transpose.num_vertices()],
                memo: streams
                    .iter()
                    .map(|s| vec![MEMO_UNKNOWN; s.num_lines()])
                    .collect(),
            }),
            transpose,
            streams,
            current_vertex: 0,
            monotone: true,
            engine: NextRefEngine::new(),
            tie_break: TieBreaker::new(sets, ways),
            ties: 0,
            decisions: 0,
        }
    }

    /// Drops the per-vertex cursor and the per-line memo, so every
    /// next-reference lookup binary-searches the transpose rows of the
    /// line's vertices. Decisions are identical either way; this is the
    /// reference the cursor and memo are differentially tested against.
    pub fn without_cursor(mut self) -> Self {
        self.cursor = None;
        self
    }
}

/// T-OPT's next-reference oracle during one victim search.
struct TransposeRefs<'a> {
    transpose: &'a Csr,
    streams: &'a [IrregularStream],
    current_vertex: VertexId,
    /// The cursor and memo while they are valid; `None` selects the
    /// binary search.
    cursor: Option<&'a mut Cursor>,
}

impl TransposeRefs<'_> {
    /// `v`'s first transpose neighbor beyond the current vertex.
    fn next_neighbor(&mut self, v: VertexId) -> Option<VertexId> {
        let current = self.current_vertex;
        let Some((next, pos)) = self.cursor.as_deref_mut().and_then(|c| {
            let i = v as usize;
            c.next.get_mut(i).zip(c.positions.get_mut(i))
        }) else {
            return self.transpose.next_neighbor_after(v, current);
        };
        if current >= *next {
            let row = self.transpose.neighbors(v);
            while row.get(*pos as usize).is_some_and(|&n| n <= current) {
                *pos += 1;
            }
            *next = row.get(*pos as usize).copied().unwrap_or(MEMO_NONE);
        }
        Some(*next).filter(|&n| n != MEMO_NONE)
    }

    /// Exact next-reference distance of `line` within `stream`: the minimum
    /// over the line's vertices of (first transpose-neighbor beyond the
    /// current outer vertex) minus the current vertex.
    fn exact_next_ref(&mut self, stream: &IrregularStream, line: u64) -> u32 {
        let first = stream.first_vertex(line);
        let last =
            (first + stream.vertices_per_line as u64).min(self.transpose.num_vertices() as u64);
        let mut best = INFINITE_DISTANCE;
        for v in first..last {
            if let Some(next) = self.next_neighbor(v as VertexId) {
                best = best.min(next - self.current_vertex);
                if best == 1 {
                    break; // cannot get closer
                }
            }
        }
        best
    }
}

impl NextRefSource for TransposeRefs<'_> {
    fn is_streaming(&self, line: u64) -> bool {
        !self.streams.iter().any(|s| s.contains_line(line))
    }

    fn next_ref(&mut self, line: u64) -> u32 {
        let Some((i, &stream)) = self
            .streams
            .iter()
            .enumerate()
            .find(|(_, s)| s.contains_line(line))
        else {
            return INFINITE_DISTANCE;
        };
        let current = self.current_vertex;
        // A slot past the memo reads as unmemoized.
        let slot = usize::try_from(stream.line_index(line)).unwrap_or(usize::MAX);
        let memoized = self
            .cursor
            .as_deref()
            .and_then(|c| c.memo.get(i))
            .and_then(|memo| memo.get(slot))
            .copied()
            .filter(|&next| current < next);
        if let Some(next) = memoized {
            return if next == MEMO_NONE {
                INFINITE_DISTANCE
            } else {
                next - current
            };
        }
        let distance = self.exact_next_ref(&stream, line);
        if let Some(entry) = self
            .cursor
            .as_deref_mut()
            .and_then(|c| c.memo.get_mut(i))
            .and_then(|memo| memo.get_mut(slot))
        {
            *entry = if distance == INFINITE_DISTANCE {
                MEMO_NONE
            } else {
                current + distance
            };
        }
        distance
    }
}

impl ReplacementPolicy for Topt {
    fn name(&self) -> String {
        "T-OPT".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_fill(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let mut refs = TransposeRefs {
            transpose: &self.transpose,
            streams: &self.streams,
            current_vertex: self.current_vertex,
            cursor: self.cursor.as_mut().filter(|_| self.monotone),
        };
        let choice = self.engine.choose(ctx.ways, &mut refs);
        self.decisions += 1;
        if !choice.is_tie() {
            return choice.way;
        }
        self.ties += 1;
        self.tie_break
            .break_tie(ctx.set, self.engine.candidates(&choice))
    }

    fn on_control(&mut self, event: &ControlEvent) {
        match event {
            ControlEvent::CurrentVertex(v) => {
                self.monotone &= *v >= self.current_vertex;
                self.current_vertex = *v;
            }
            ControlEvent::IterationBegin => {
                self.current_vertex = 0;
                self.monotone = true;
                if let Some(cursor) = &mut self.cursor {
                    cursor.reset();
                }
            }
            ControlEvent::EpochBoundary | ControlEvent::ContextSwitch => {}
        }
    }

    fn overheads(&self) -> PolicyOverheads {
        // T-OPT is the idealized design: no streamed metadata, no matrix
        // lookups — only tie statistics are reported.
        PolicyOverheads {
            ties: self.ties,
            decisions: self.decisions,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::Graph;
    use popt_trace::{AccessKind, RegionClass, SiteId};

    /// Figure 1's example graph.
    fn figure1() -> Graph {
        Graph::from_edges(
            5,
            &[
                (0, 2),
                (1, 0),
                (1, 4),
                (2, 0),
                (2, 1),
                (2, 3),
                (3, 1),
                (3, 4),
                (4, 0),
                (4, 2),
            ],
        )
        .unwrap()
    }

    /// A stream where line k holds exactly vertex k (degenerate 1-vertex
    /// lines let tests mirror the paper's walkthrough).
    fn unit_stream() -> IrregularStream {
        IrregularStream {
            base: 0,
            bound: 5 * 64,
            vertices_per_line: 1,
        }
    }

    fn meta(line: u64) -> AccessMeta {
        AccessMeta {
            line,
            site: SiteId(0),
            kind: AccessKind::Read,
            class: RegionClass::Irregular,
        }
    }

    #[test]
    fn figure3_scenario_a_evicts_s1() {
        // Processing D0's neighbors; cache ways hold srcData[S1], srcData[S2].
        // "to emulate OPT we must evict srcData[S1] because its next reuse
        // (D4) is further into the future than srcData[S2] (D1)".
        let g = figure1();
        let mut topt = Topt::new(Arc::new(g.out_csr().clone()), vec![unit_stream()], 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(0));
        let ways = [1, 2];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(4),
        });
        assert_eq!(victim, 0, "S1 must be evicted");
    }

    #[test]
    fn figure3_scenario_b_evicts_s2() {
        // Two accesses later, processing D1; ways hold S4 and S2.
        // S4's next ref is D2, S2's is D3 -> evict S2.
        let g = figure1();
        let mut topt = Topt::new(Arc::new(g.out_csr().clone()), vec![unit_stream()], 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(1));
        let ways = [4, 2];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(3),
        });
        assert_eq!(victim, 1, "S2 must be evicted");
    }

    #[test]
    fn streaming_ways_lose_to_irregular_ways() {
        let g = figure1();
        let mut topt = Topt::new(Arc::new(g.out_csr().clone()), vec![unit_stream()], 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(0));
        // Line 100 is outside the stream: streaming, evicted first even
        // though the irregular line is never referenced again.
        let ways = [0, 100];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(3),
        });
        assert_eq!(victim, 1);
    }

    #[test]
    fn multi_vertex_lines_take_the_minimum() {
        // Line covering vertices {0,1}: v0 next at 2, v1 next at 4 (from
        // current 0) -> line distance is 2.
        let g = figure1();
        let stream = IrregularStream {
            base: 0,
            bound: 5 * 64,
            vertices_per_line: 2,
        };
        let mut refs = TransposeRefs {
            transpose: g.out_csr(),
            streams: &[stream],
            current_vertex: 0,
            cursor: None,
        };
        assert_eq!(refs.exact_next_ref(&stream, 0), 2);
        let mut cursor = Cursor {
            positions: vec![0; 5],
            next: vec![MEMO_UNKNOWN; 5],
            memo: vec![vec![MEMO_UNKNOWN; stream.num_lines()]],
        };
        refs.cursor = Some(&mut cursor);
        assert_eq!(refs.exact_next_ref(&stream, 0), 2);
        assert_eq!(refs.next_ref(0), 2);
        assert_eq!(cursor.memo[0][0], 2, "memoized as absolute vertex D2");
    }

    #[test]
    fn iteration_begin_resets_the_register() {
        let g = figure1();
        let mut topt = Topt::new(Arc::new(g.out_csr().clone()), vec![unit_stream()], 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(4));
        topt.on_control(&ControlEvent::IterationBegin);
        assert_eq!(topt.current_vertex, 0);
    }

    #[test]
    fn cursor_tracks_ascending_vertices_and_falls_back_on_reversal() {
        // Vertex 0's transpose row is [2], vertex 1's is [0, 4].
        let g = figure1();
        let mut topt = Topt::new(Arc::new(g.out_csr().clone()), vec![unit_stream()], 1, 2);
        let next_ref_of = |topt: &mut Topt, line: u64| {
            let mut refs = TransposeRefs {
                transpose: &topt.transpose,
                streams: &topt.streams,
                current_vertex: topt.current_vertex,
                cursor: topt.cursor.as_mut().filter(|_| topt.monotone),
            };
            refs.next_ref(line)
        };
        topt.on_control(&ControlEvent::CurrentVertex(1));
        assert_eq!(next_ref_of(&mut topt, 1), 3, "S1 next at D4");
        assert_eq!(
            topt.cursor.as_ref().map(|c| c.positions[1]),
            Some(1),
            "cursor moved past D0"
        );
        assert_eq!(topt.cursor.as_ref().map(|c| c.memo[0][1]), Some(4));
        topt.on_control(&ControlEvent::CurrentVertex(4));
        assert_eq!(next_ref_of(&mut topt, 1), INFINITE_DISTANCE);
        assert_eq!(
            topt.cursor.as_ref().map(|c| c.memo[0][1]),
            Some(MEMO_NONE),
            "no reference beyond D4"
        );
        // Going backwards invalidates the cursor; lookups binary-search.
        topt.on_control(&ControlEvent::CurrentVertex(0));
        assert!(!topt.monotone);
        assert_eq!(next_ref_of(&mut topt, 1), 4, "S1 next at D4 again");
        assert_eq!(next_ref_of(&mut topt, 0), 2);
        // The next iteration restores and rewinds the cursor.
        topt.on_control(&ControlEvent::IterationBegin);
        assert!(topt.monotone);
        assert_eq!(topt.cursor.as_ref().map(|c| c.positions[1]), Some(0));
        assert_eq!(
            topt.cursor.as_ref().map(|c| c.memo[0][1]),
            Some(MEMO_UNKNOWN),
            "the memo is forgotten"
        );
        assert_eq!(next_ref_of(&mut topt, 1), 4);
    }

    #[test]
    fn ties_are_counted_and_broken_by_recency() {
        // Two lines whose next reference is the same destination.
        let transpose = popt_graph::Csr::from_edges(4, &[(0, 3), (1, 3)]).unwrap();
        let stream = IrregularStream {
            base: 0,
            bound: 4 * 64,
            vertices_per_line: 1,
        };
        let mut topt = Topt::new(Arc::new(transpose), vec![stream], 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(1));
        topt.on_fill(0, 0, &meta(0));
        topt.on_fill(0, 1, &meta(1));
        topt.on_hit(0, 0, &meta(0)); // way 0 recently re-referenced
        let ways = [0, 1];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(2),
        });
        assert_eq!(victim, 1, "staler way loses the tie");
        assert_eq!(topt.overheads().ties, 1);
        assert_eq!(topt.overheads().decisions, 1);
    }
}
