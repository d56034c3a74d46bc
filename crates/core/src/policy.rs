//! The P-OPT replacement policy (paper Section V).
//!
//! P-OPT is T-OPT made practical: next references come from the
//! LLC-resident columns of the [`RerefMatrix`](crate::RerefMatrix) instead
//! of transpose walks. The policy models every architectural cost the
//! paper accounts for:
//!
//! * **Reserved ways** — the columns occupy way-partitioned LLC capacity.
//!   Reservation itself is enforced by `popt-sim` (the policy never sees
//!   reserved ways); the experiment driver sizes it with
//!   [`RerefMatrix::reserved_llc_ways`](crate::RerefMatrix::reserved_llc_ways).
//! * **`currVertex` register** — updated by [`ControlEvent::CurrentVertex`]
//!   (the paper's `update_index` instruction).
//! * **Streaming engine** — on every epoch transition the next column is
//!   DMA-ed from DRAM; the policy accrues `column_bytes` per stream into
//!   [`PolicyOverheads::streamed_bytes`] (the `stream_nextrefs`
//!   instruction, Section V-D).
//! * **Next-ref engine** — matrix lookups per victim search are counted
//!   into [`PolicyOverheads::matrix_lookups`]; ties are broken by an
//!   RRIP-state fallback (the paper uses DRRIP) and counted for the
//!   Figure 15 tie-rate analysis.

use crate::cast;
use crate::engine::{NextRefEngine, NextRefSource, TieBreaker};
use crate::{RerefMatrix, INFINITE_DISTANCE};
use popt_graph::VertexId;
use popt_sim::{AccessMeta, ControlEvent, PolicyOverheads, ReplacementPolicy, VictimCtx};
use std::sync::Arc;

/// Binds one irregular data region to its Rereference Matrix — one
/// (`irreg_base`, `irreg_bound`, `set-base`/`way-base`) register group of
/// Section V-F.
#[derive(Debug, Clone)]
pub struct StreamBinding {
    /// First byte of the irregular region.
    pub base: u64,
    /// One past the last byte.
    pub bound: u64,
    /// The region's Rereference Matrix (shared with the preprocessing
    /// stage; matrices are immutable after construction).
    pub matrix: Arc<RerefMatrix>,
}

impl StreamBinding {
    fn contains_line(&self, line: u64) -> bool {
        let addr = line << popt_trace::LINE_SHIFT;
        addr >= self.base && addr < self.bound
    }

    fn line_id(&self, line: u64) -> usize {
        (((line << popt_trace::LINE_SHIFT) - self.base) / popt_trace::LINE_SIZE) as usize
    }
}

/// How quantization ties between eviction candidates are settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// RRIP recency state decides among tied candidates ("settling a tie
    /// using a baseline replacement policy (P-OPT uses DRRIP)",
    /// Section V-C). The default.
    #[default]
    Rrip,
    /// Take the first tied way — the cheapest hardware, used by the
    /// tie-break ablation to quantify what the baseline fallback buys.
    FirstCandidate,
}

/// Configuration of a [`Popt`] policy instance.
#[derive(Debug, Clone)]
pub struct PoptConfig {
    /// The irregular streams to track (vertex data, frontier, …).
    pub streams: Vec<StreamBinding>,
    /// Whether epoch-boundary column refills accrue streamed bytes
    /// (disabled for limit studies like Figure 15 that "omit the costs of
    /// storing Rereference Matrix columns").
    pub charge_streaming: bool,
    /// Tie-settling strategy.
    pub tie_break: TieBreak,
}

impl PoptConfig {
    /// Standard configuration over the given streams.
    pub fn new(streams: Vec<StreamBinding>) -> Self {
        PoptConfig {
            streams,
            charge_streaming: true,
            tie_break: TieBreak::Rrip,
        }
    }
}

/// The P-OPT replacement policy.
pub struct Popt {
    streams: Vec<StreamBinding>,
    charge_streaming: bool,
    tie_break_mode: TieBreak,
    epoch_size: u32,
    current_vertex: VertexId,
    current_epoch: u32,
    engine: NextRefEngine,
    tie_break: TieBreaker,
    overheads: PolicyOverheads,
}

impl std::fmt::Debug for Popt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Popt")
            .field("streams", &self.streams.len())
            .field("epoch_size", &self.epoch_size)
            .finish()
    }
}

impl Popt {
    /// Creates P-OPT for an LLC bank of `sets × ways`.
    ///
    /// # Panics
    ///
    /// Panics if `config.streams` is empty or the streams disagree on epoch
    /// geometry (they must: all matrices quantize the same outer loop).
    pub fn new(config: PoptConfig, sets: usize, ways: usize) -> Self {
        assert!(
            !config.streams.is_empty(),
            "P-OPT needs at least one irregular stream"
        );
        let epoch_size = config.streams[0].matrix.epoch_size();
        for s in &config.streams {
            assert_eq!(
                s.matrix.epoch_size(),
                epoch_size,
                "all streams must share the outer loop's epoch geometry"
            );
        }
        let mut policy = Popt {
            streams: config.streams,
            charge_streaming: config.charge_streaming,
            tie_break_mode: config.tie_break,
            epoch_size,
            current_vertex: 0,
            current_epoch: 0,
            engine: NextRefEngine::new(),
            tie_break: TieBreaker::new(sets, ways),
            overheads: PolicyOverheads::default(),
        };
        // Initial fill of the resident columns.
        policy.charge_columns(1);
        policy
    }

    /// Total LLC bytes the policy's resident columns occupy (for sizing the
    /// way reservation).
    pub fn resident_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.matrix.resident_bytes()).sum()
    }

    fn charge_columns(&mut self, epochs_crossed: u32) {
        if !self.charge_streaming {
            return;
        }
        let per_boundary: u64 = self.streams.iter().map(|s| s.matrix.column_bytes()).sum();
        self.overheads.streamed_bytes += per_boundary * epochs_crossed as u64;
    }
}

/// P-OPT's next-reference metadata during one victim search: every
/// stream's resident columns, read at the `currVertex` register.
struct ResidentColumns<'a> {
    streams: &'a [StreamBinding],
    current_vertex: VertexId,
}

impl ResidentColumns<'_> {
    /// The stream whose matrix covers `line`, with the line's matrix row.
    fn locate(&self, line: u64) -> Option<(&StreamBinding, usize)> {
        let stream = self.streams.iter().find(|s| s.contains_line(line))?;
        let line_id = stream.line_id(line);
        // A base/bound hit without matrix coverage can only happen when
        // software misconfigured the registers (e.g. irregData not on a
        // huge page, Section V-B); treat the line as streaming rather than
        // read out of bounds.
        (line_id < stream.matrix.num_lines()).then_some((stream, line_id))
    }
}

impl NextRefSource for ResidentColumns<'_> {
    fn is_streaming(&self, line: u64) -> bool {
        self.locate(line).is_none()
    }

    fn next_ref(&mut self, line: u64) -> u32 {
        self.locate(line)
            .map_or(INFINITE_DISTANCE, |(stream, line_id)| {
                stream.matrix.next_ref(line_id, self.current_vertex)
            })
    }
}

impl ReplacementPolicy for Popt {
    fn name(&self) -> String {
        self.streams[0].matrix.encoding().label().to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_fill(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let mut columns = ResidentColumns {
            streams: &self.streams,
            current_vertex: self.current_vertex,
        };
        let choice = self.engine.choose(ctx.ways, &mut columns);
        self.overheads.decisions += 1;
        self.overheads.matrix_lookups += choice.lookups;
        if !choice.is_tie() {
            return choice.way;
        }
        self.overheads.ties += 1;
        match self.tie_break_mode {
            TieBreak::Rrip => self
                .tie_break
                .break_tie(ctx.set, self.engine.candidates(&choice)),
            TieBreak::FirstCandidate => choice.way,
        }
    }

    fn on_control(&mut self, event: &ControlEvent) {
        match event {
            ControlEvent::CurrentVertex(v) => {
                self.current_vertex = *v;
                let epoch = *v / self.epoch_size;
                if epoch != self.current_epoch {
                    // `stream_nextrefs`: one column refill per boundary
                    // crossed (normally exactly one).
                    let crossed = epoch.abs_diff(self.current_epoch);
                    self.charge_columns(crossed);
                    self.current_epoch = epoch;
                }
            }
            ControlEvent::EpochBoundary => self.charge_columns(1),
            ControlEvent::IterationBegin => {
                self.current_vertex = 0;
                self.current_epoch = 0;
                self.charge_columns(1);
            }
            ControlEvent::ContextSwitch => {
                // "On resumption, P-OPT invokes the streaming engine to
                // refetch Rereference Matrix contents into reserved LLC
                // ways" (Section V-F): both resident columns per stream.
                let resident = self.streams[0].matrix.encoding().resident_columns();
                self.charge_columns(cast::exact::<u32, usize>(resident));
            }
        }
    }

    fn overheads(&self) -> PolicyOverheads {
        self.overheads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoding, Quantization};
    use popt_graph::Graph;
    use popt_trace::{AccessKind, RegionClass, SiteId};

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

    fn unit_binding(g: &Graph) -> StreamBinding {
        let matrix = Arc::new(RerefMatrix::build(
            g.out_csr(),
            1,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        ));
        StreamBinding {
            base: 0,
            bound: 5 * 64,
            matrix,
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
    fn popt_reproduces_figure3_scenario_a() {
        let g = figure1();
        let mut popt = Popt::new(PoptConfig::new(vec![unit_binding(&g)]), 1, 2);
        // Scenario A happens *after* D0's accesses, i.e. S1 and S2's final
        // sub-epooch at D0 has passed when the miss on S4 resolves at D0
        // with epoch size 1; evaluate at the next outer vertex as the paper
        // does for its distances.
        popt.on_control(&ControlEvent::CurrentVertex(1));
        let ways = [1, 2];
        let victim = popt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(4),
        });
        assert_eq!(victim, 0, "S1 (next ref D4) must lose to S2 (next ref D1)");
    }

    #[test]
    fn epoch_transitions_charge_streaming_bytes() {
        let g = figure1();
        let binding = unit_binding(&g);
        let column = binding.matrix.column_bytes();
        let mut popt = Popt::new(PoptConfig::new(vec![binding]), 1, 2);
        let initial = popt.overheads().streamed_bytes;
        assert_eq!(initial, column); // construction-time fill
        popt.on_control(&ControlEvent::CurrentVertex(0));
        popt.on_control(&ControlEvent::CurrentVertex(1)); // epoch 0 -> 1
        popt.on_control(&ControlEvent::CurrentVertex(2)); // epoch 1 -> 2
        assert_eq!(popt.overheads().streamed_bytes, initial + 2 * column);
    }

    #[test]
    fn limit_mode_charges_nothing() {
        let g = figure1();
        let mut cfg = PoptConfig::new(vec![unit_binding(&g)]);
        cfg.charge_streaming = false;
        let mut popt = Popt::new(cfg, 1, 2);
        popt.on_control(&ControlEvent::CurrentVertex(3));
        popt.on_control(&ControlEvent::IterationBegin);
        assert_eq!(popt.overheads().streamed_bytes, 0);
    }

    #[test]
    fn matrix_lookups_are_counted_per_irregular_way() {
        let g = figure1();
        let mut popt = Popt::new(PoptConfig::new(vec![unit_binding(&g)]), 1, 2);
        popt.on_control(&ControlEvent::CurrentVertex(1));
        let ways = [1, 2];
        let _ = popt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(4),
        });
        assert_eq!(popt.overheads().matrix_lookups, 2);
        assert_eq!(popt.overheads().decisions, 1);
    }

    #[test]
    fn streaming_lines_evicted_before_matrix_is_consulted() {
        let g = figure1();
        let mut popt = Popt::new(PoptConfig::new(vec![unit_binding(&g)]), 1, 2);
        let ways = [1000, 1];
        let victim = popt.victim(&VictimCtx {
            set: 0,
            ways: &ways,
            incoming: &meta(4),
        });
        assert_eq!(victim, 0);
        assert_eq!(popt.overheads().matrix_lookups, 0);
    }

    #[test]
    fn multiple_streams_resolve_to_their_own_matrices() {
        let g = figure1();
        let data = unit_binding(&g);
        let frontier = StreamBinding {
            base: 64 * 1024,
            bound: 64 * 1024 + 64,
            matrix: Arc::new(RerefMatrix::build(
                g.out_csr(),
                8,
                64,
                Quantization::EIGHT,
                Encoding::InterIntra,
            )),
        };
        let popt = Popt::new(PoptConfig::new(vec![data, frontier]), 1, 2);
        let columns = ResidentColumns {
            streams: &popt.streams,
            current_vertex: 0,
        };
        assert!(!columns.is_streaming(1));
        assert!(!columns.is_streaming(1024));
        assert!(columns.is_streaming(500));
        let row = |line| columns.locate(line).map(|(s, id)| (s.base, id));
        assert_eq!(row(1), Some((0, 1)));
        assert_eq!(row(1024), Some((64 * 1024, 0)));
        assert!(popt.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one irregular stream")]
    fn empty_config_is_rejected() {
        let _ = Popt::new(PoptConfig::new(vec![]), 1, 2);
    }
}
