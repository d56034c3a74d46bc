//! Service metrics in Prometheus text exposition format.
//!
//! Everything `/v1/metrics` serves is assembled here: admission and
//! rejection counters, cell outcome counters, LLC stream counters, the
//! per-cell latency histogram, and gauges sampled at render time (queue depth, in-flight
//! cells) plus the artifact-cache hit/build counters the runner reports.
//! Counters are plain relaxed atomics — the daemon never blocks to count.
//!
//! Hot-path scope: nothing here panics; workers call
//! [`Metrics::observe_latency`] on every cell completion.

use crate::CellSummary;
use popt_harness::CacheCounters;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds. Cells span milliseconds
/// (tiny-scale smoke cells) to minutes (standard-scale Belady cells).
const LATENCY_BOUNDS: [f64; 10] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 30.0, 120.0, 600.0];

/// A fixed-bucket latency histogram (counts + sum, Prometheus semantics).
#[derive(Debug)]
pub struct Histogram {
    /// One counter per bound plus the overflow (`+Inf`) bucket.
    counts: [AtomicU64; LATENCY_BOUNDS.len() + 1],
    sum_micros: AtomicU64,
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, wall: Duration) {
        let secs = wall.as_secs_f64();
        let slot = LATENCY_BOUNDS
            .iter()
            .position(|bound| secs <= *bound)
            .unwrap_or(LATENCY_BOUNDS.len());
        if let Some(count) = self.counts.get(slot) {
            count.fetch_add(1, Ordering::Relaxed);
        }
        let micros = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String, name: &str) {
        let mut cumulative = 0u64;
        for (bound, count) in LATENCY_BOUNDS.iter().zip(&self.counts) {
            cumulative += count.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let total = self.count();
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "{name}_sum {sum:.6}");
        let _ = writeln!(out, "{name}_count {total}");
    }
}

/// Gauges sampled at render time by the router.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Cells waiting in the admission queue.
    pub queue_depth: u64,
    /// The queue's configured capacity.
    pub queue_capacity: u64,
    /// Cells queued or running (the coalescer's in-flight map).
    pub inflight: u64,
}

/// All monotonic service counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Accepted sweep submissions.
    pub submits: AtomicU64,
    /// Submissions shed with `429` because the queue was full.
    pub rejected_full: AtomicU64,
    /// Submissions refused with `400` (unknown experiment/scale, bad body).
    pub rejected_invalid: AtomicU64,
    /// Cells that finished successfully.
    pub cells_completed: AtomicU64,
    /// Cells whose runner failed (or panicked).
    pub cells_failed: AtomicU64,
    /// Cells skipped because their deadline passed while queued.
    pub cells_expired: AtomicU64,
    /// LLC streams the completed cells recorded.
    pub llc_streams_recorded: AtomicU64,
    /// LLC replays the completed cells ran.
    pub llc_streams_replayed: AtomicU64,
    /// Per-cell wall-time histogram.
    pub latency: Histogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Relaxed increment helper for the counter fields.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a completed cell's LLC stream counts.
    pub fn count_streams(&self, summary: &CellSummary) {
        self.llc_streams_recorded
            .fetch_add(summary.streams_recorded, Ordering::Relaxed);
        self.llc_streams_replayed
            .fetch_add(summary.streams_replayed, Ordering::Relaxed);
    }

    /// Records one cell execution's wall time.
    pub fn observe_latency(&self, wall: Duration) {
        self.latency.observe(wall);
    }

    /// Renders the full Prometheus text exposition. Metric families are
    /// emitted in a fixed order so scrapes diff cleanly.
    pub fn render(&self, gauges: Gauges, cache: CacheCounters, coalesced: u64) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        gauge(
            &mut out,
            "popt_queue_depth",
            "Cells waiting in the admission queue.",
            gauges.queue_depth,
        );
        gauge(
            &mut out,
            "popt_queue_capacity",
            "Admission queue capacity.",
            gauges.queue_capacity,
        );
        gauge(
            &mut out,
            "popt_inflight_cells",
            "Cells queued or running.",
            gauges.inflight,
        );
        let _ = writeln!(out, "# HELP popt_submits_total Accepted sweep submissions.");
        let _ = writeln!(out, "# TYPE popt_submits_total counter");
        let _ = writeln!(
            out,
            "popt_submits_total {}",
            self.submits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP popt_rejected_total Requests shed or refused, by reason."
        );
        let _ = writeln!(out, "# TYPE popt_rejected_total counter");
        let _ = writeln!(
            out,
            "popt_rejected_total{{reason=\"queue_full\"}} {}",
            self.rejected_full.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "popt_rejected_total{{reason=\"invalid\"}} {}",
            self.rejected_invalid.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP popt_coalesced_total Submissions that joined an identical in-flight cell."
        );
        let _ = writeln!(out, "# TYPE popt_coalesced_total counter");
        let _ = writeln!(out, "popt_coalesced_total {coalesced}");
        let _ = writeln!(out, "# HELP popt_cells_total Finished cells, by outcome.");
        let _ = writeln!(out, "# TYPE popt_cells_total counter");
        let _ = writeln!(
            out,
            "popt_cells_total{{outcome=\"completed\"}} {}",
            self.cells_completed.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "popt_cells_total{{outcome=\"failed\"}} {}",
            self.cells_failed.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "popt_cells_total{{outcome=\"deadline_expired\"}} {}",
            self.cells_expired.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP popt_llc_streams_total Post-L2 streams recorded, and LLC replays run from them."
        );
        let _ = writeln!(out, "# TYPE popt_llc_streams_total counter");
        for (kind, count) in [
            ("recorded", &self.llc_streams_recorded),
            ("replayed", &self.llc_streams_replayed),
        ] {
            let _ = writeln!(
                out,
                "popt_llc_streams_total{{kind=\"{kind}\"}} {}",
                count.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# HELP popt_cache_requests_total Artifact-cache requests, by kind and outcome."
        );
        let _ = writeln!(out, "# TYPE popt_cache_requests_total counter");
        for (kind, hits, builds) in [
            ("graph", cache.graph_hits, cache.graph_builds),
            ("matrix", cache.matrix_hits, cache.matrix_builds),
        ] {
            let _ = writeln!(
                out,
                "popt_cache_requests_total{{kind=\"{kind}\",outcome=\"hit\"}} {hits}"
            );
            let _ = writeln!(
                out,
                "popt_cache_requests_total{{kind=\"{kind}\",outcome=\"build\"}} {builds}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP popt_cell_latency_seconds Wall time per executed cell."
        );
        let _ = writeln!(out, "# TYPE popt_cell_latency_seconds histogram");
        self.latency.render(&mut out, "popt_cell_latency_seconds");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(500)); // <= 0.001
        h.observe(Duration::from_millis(50)); // <= 0.1
        h.observe(Duration::from_secs(1000)); // +Inf
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render(&mut out, "x");
        assert!(out.contains("x_bucket{le=\"0.001\"} 1"));
        assert!(out.contains("x_bucket{le=\"0.1\"} 2"));
        assert!(out.contains("x_bucket{le=\"600\"} 2"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_count 3"));
    }

    #[test]
    fn render_exposes_required_families() {
        let m = Metrics::new();
        Metrics::bump(&m.submits);
        Metrics::bump(&m.rejected_full);
        m.count_streams(&CellSummary {
            streams_recorded: 2,
            streams_replayed: 7,
            ..CellSummary::default()
        });
        m.observe_latency(Duration::from_millis(2));
        let text = m.render(
            Gauges {
                queue_depth: 3,
                queue_capacity: 16,
                inflight: 4,
            },
            CacheCounters {
                graph_hits: 7,
                graph_builds: 1,
                matrix_hits: 9,
                matrix_builds: 2,
            },
            5,
        );
        for needle in [
            "popt_queue_depth 3",
            "popt_queue_capacity 16",
            "popt_inflight_cells 4",
            "popt_submits_total 1",
            "popt_rejected_total{reason=\"queue_full\"} 1",
            "popt_rejected_total{reason=\"invalid\"} 0",
            "popt_coalesced_total 5",
            "popt_cells_total{outcome=\"completed\"} 0",
            "popt_llc_streams_total{kind=\"recorded\"} 2",
            "popt_llc_streams_total{kind=\"replayed\"} 7",
            "popt_cache_requests_total{kind=\"graph\",outcome=\"hit\"} 7",
            "popt_cache_requests_total{kind=\"matrix\",outcome=\"build\"} 2",
            "popt_cell_latency_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn render_is_deterministic() {
        let m = Metrics::new();
        let a = m.render(Gauges::default(), CacheCounters::default(), 0);
        let b = m.render(Gauges::default(), CacheCounters::default(), 0);
        assert_eq!(a, b);
    }
}
