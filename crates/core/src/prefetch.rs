//! Rereference-Matrix-driven prefetching — the paper's future-work sketch
//! made concrete.
//!
//! "We note that next references in a graph's transpose could also be used
//! for timely prefetching of irregular data" (Section VIII). The matrix
//! makes the per-epoch working set explicit: every line whose entry for
//! epoch `e` is *present* will be demanded during `e`. A streaming
//! prefetcher can therefore warm the next epoch's lines while the current
//! epoch executes.

use crate::RerefMatrix;
use popt_sim::{LlcSink, PrivateLevels};

/// Lines of the irregular array that are referenced during `epoch`
/// (candidates to prefetch before the epoch starts).
pub fn lines_referenced_in_epoch(matrix: &RerefMatrix, epoch: usize) -> Vec<usize> {
    let (quant, enc) = (matrix.quantization(), matrix.encoding());
    (0..matrix.num_lines())
        .filter(|&line| matrix.entry(line, epoch).is_present(quant, enc))
        .collect()
}

/// Epoch-ahead prefetch planner.
///
/// Tracks the outer-loop vertex and, on each epoch transition, emits the
/// next epoch's referenced lines exactly once.
#[derive(Debug, Clone)]
pub struct EpochPrefetcher<'a> {
    matrix: &'a RerefMatrix,
    last_planned_epoch: Option<u32>,
}

impl<'a> EpochPrefetcher<'a> {
    /// Creates a planner over `matrix`.
    pub fn new(matrix: &'a RerefMatrix) -> Self {
        EpochPrefetcher {
            matrix,
            last_planned_epoch: None,
        }
    }

    /// Advances to `current_vertex`; returns the lines to prefetch for the
    /// *next* epoch, or `None` if that epoch was already planned.
    pub fn advance(&mut self, current_vertex: u32) -> Option<Vec<usize>> {
        let epoch = self.matrix.epoch_of(current_vertex);
        if self.last_planned_epoch == Some(epoch) {
            return None;
        }
        self.last_planned_epoch = Some(epoch);
        Some(lines_referenced_in_epoch(self.matrix, epoch as usize + 1))
    }
}

/// Trace-sink adapter that drives an epoch-ahead prefetcher alongside a
/// hierarchy's private levels (live or recording): every event is
/// forwarded, and on each epoch transition the next epoch's referenced
/// irregular lines are installed into the LLC via
/// [`PrivateLevels::prefetch_fill`].
///
/// This is the concrete form of the paper's future-work remark that "next
/// references in a graph's transpose could also be used for timely
/// prefetching of irregular data" (Section VIII).
pub struct PrefetchingSink<'a, S> {
    levels: &'a mut PrivateLevels<S>,
    matrix: &'a RerefMatrix,
    /// Base byte address of the irregular region the matrix describes.
    region_base: u64,
    planned_epoch: Option<u32>,
    issued: u64,
}

impl<'a, S: LlcSink> PrefetchingSink<'a, S> {
    /// Wraps `levels`, prefetching lines of the region at `region_base`
    /// as described by `matrix`.
    pub fn new(
        levels: &'a mut PrivateLevels<S>,
        matrix: &'a RerefMatrix,
        region_base: u64,
    ) -> Self {
        PrefetchingSink {
            levels,
            matrix,
            region_base,
            planned_epoch: None,
            issued: 0,
        }
    }

    /// Prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn plan(&mut self, current_vertex: u32) {
        let epoch = self.matrix.epoch_of(current_vertex);
        if self.planned_epoch == Some(epoch) {
            return;
        }
        self.planned_epoch = Some(epoch);
        for line in lines_referenced_in_epoch(self.matrix, epoch as usize + 1) {
            let addr = self.region_base + line as u64 * popt_trace::LINE_SIZE;
            self.levels.prefetch_fill(addr);
            self.issued += 1;
        }
    }
}

impl<S: LlcSink> popt_trace::TraceSink for PrefetchingSink<'_, S> {
    fn event(&mut self, event: popt_trace::TraceEvent) {
        if let popt_trace::TraceEvent::CurrentVertex(v) = event {
            self.plan(v);
        }
        self.levels.event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoding, Quantization};
    use popt_graph::Csr;

    fn matrix() -> RerefMatrix {
        // 8 vertices, epoch size 1 at 8-bit quantization. Line k = vertex k.
        let transpose = Csr::from_edges(8, &[(0, 1), (0, 5), (2, 1), (3, 5), (3, 6)]).unwrap();
        RerefMatrix::build(&transpose, 1, 1, Quantization::EIGHT, Encoding::InterIntra)
    }

    #[test]
    fn per_epoch_working_sets_are_exact() {
        let m = matrix();
        assert_eq!(lines_referenced_in_epoch(&m, 1), vec![0, 2]);
        assert_eq!(lines_referenced_in_epoch(&m, 5), vec![0, 3]);
        assert_eq!(lines_referenced_in_epoch(&m, 6), vec![3]);
        assert!(lines_referenced_in_epoch(&m, 7).is_empty());
    }

    #[test]
    fn prefetcher_plans_each_epoch_once() {
        let m = matrix();
        let mut p = EpochPrefetcher::new(&m);
        let first = p.advance(0).expect("first epoch plans");
        assert_eq!(first, vec![0, 2]); // lines referenced in epoch 1
        assert!(p.advance(0).is_none(), "same epoch: no replanning");
        let next = p.advance(4).expect("new epoch plans");
        assert_eq!(next, vec![0, 3]); // lines referenced in epoch 5
    }

    #[test]
    fn prefetch_beyond_the_last_epoch_is_empty() {
        let m = matrix();
        let mut p = EpochPrefetcher::new(&m);
        let plan = p.advance(7).expect("plans");
        assert!(plan.is_empty());
    }

    #[test]
    fn prefetching_sink_warms_lines_and_reduces_misses() {
        use popt_sim::{Hierarchy, HierarchyConfig, PolicyKind};
        use popt_trace::{TraceEvent, TraceSink};
        // 64 irregular lines, each demanded in its own epoch; a prefetcher
        // that installs each line one epoch ahead removes every LLC miss
        // after the first epoch.
        let edges: Vec<(u32, u32)> = (0..64u32).map(|v| (v, v)).collect();
        let transpose = Csr::from_edges(64, &edges).unwrap();
        // One vertex per line so line v is demanded at outer vertex v.
        let m = RerefMatrix::build(&transpose, 1, 1, Quantization::EIGHT, Encoding::InterIntra);
        let base = 0x10_0000u64;
        let cfg = HierarchyConfig::small_test();
        let run = |prefetch: bool| {
            let mut h = Hierarchy::new(&cfg, |s, w| PolicyKind::Lru.build(s, w));
            let feed = |sink: &mut dyn TraceSink| {
                for v in 0..64u32 {
                    sink.event(TraceEvent::CurrentVertex(v));
                    sink.event(TraceEvent::read(base + v as u64 * 64, 1));
                }
            };
            if prefetch {
                let mut sink = PrefetchingSink::new(&mut h, &m, base);
                feed(&mut sink);
                assert!(sink.issued() > 0);
            } else {
                feed(&mut h);
            }
            h.stats().llc.misses
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "prefetching ({with}) should cut misses ({without})"
        );
    }
}
