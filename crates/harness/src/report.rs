//! Per-cell wall-time/throughput aggregation: the sweep report.
//!
//! The report is the *performance* side-channel of a sweep — wall times,
//! throughput, and which cells were executed, resumed from the journal
//! or shared with an equal cell. It lives next to the results CSVs but is deliberately not
//! part of the byte-identical determinism contract (wall clocks aren't
//! deterministic); rows are still emitted in sorted cell order so diffs
//! between runs line up.

use popt_sim::HierarchyStats;
use std::path::Path;
use std::time::Duration;

/// How a cell's result materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Simulated in this run.
    Executed,
    /// Replayed from the run manifest (a previous run finished it).
    Resumed,
    /// Not simulated: another cell of the session with the same content
    /// key was, and this cell took its stats.
    Shared,
    /// The simulation panicked; no stats exist and nothing was journaled.
    Failed,
}

impl CellOutcome {
    fn label(self) -> &'static str {
        match self {
            CellOutcome::Executed => "executed",
            CellOutcome::Resumed => "resumed",
            CellOutcome::Shared => "shared",
            CellOutcome::Failed => "failed",
        }
    }
}

/// One row of the sweep report.
#[derive(Debug, Clone)]
pub struct CellMetric {
    /// The cell id.
    pub cell: String,
    /// How the result materialized.
    pub outcome: CellOutcome,
    /// Wall-clock simulation time (zero for resumed and shared cells).
    pub wall: Duration,
    /// Instructions the simulation retired.
    pub instructions: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
}

impl CellMetric {
    /// Builds a metric row from a cell's stats.
    pub fn new(cell: String, outcome: CellOutcome, wall: Duration, stats: &HierarchyStats) -> Self {
        CellMetric {
            cell,
            outcome,
            wall,
            instructions: stats.instructions,
            llc_misses: stats.llc.misses,
        }
    }

    /// A row for a failed cell: the wall time was spent, but there are no
    /// stats to report.
    pub fn failed(cell: String, wall: Duration) -> Self {
        CellMetric {
            cell,
            outcome: CellOutcome::Failed,
            wall,
            instructions: 0,
            llc_misses: 0,
        }
    }

    /// Simulated instructions per wall-second (0 when unmeasured).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.instructions as f64 / secs
        } else {
            0.0
        }
    }
}

/// The aggregated report of one sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    rows: Vec<CellMetric>,
}

impl SweepReport {
    /// Builds a report, sorting rows by cell id.
    pub fn new(mut rows: Vec<CellMetric>) -> Self {
        rows.sort_by(|a, b| a.cell.cmp(&b.cell));
        SweepReport { rows }
    }

    /// The sorted rows.
    pub fn rows(&self) -> &[CellMetric] {
        &self.rows
    }

    /// Cells whose result materialized as `outcome`.
    pub fn count(&self, outcome: CellOutcome) -> usize {
        self.rows.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Total wall time spent simulating (excludes resumed cells).
    pub fn total_wall(&self) -> Duration {
        self.rows.iter().map(|r| r.wall).sum()
    }

    /// The CSV form: one row per cell plus a header.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("cell,outcome,wall_seconds,instructions,llc_misses,mi_per_second\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{:.6},{},{},{:.3}\n",
                r.cell,
                r.outcome.label(),
                r.wall.as_secs_f64(),
                r.instructions,
                r.llc_misses,
                r.throughput() / 1e6,
            ));
        }
        out
    }

    /// A human-oriented summary (slowest cells first).
    pub fn to_text(&self) -> String {
        let failures = self.count(CellOutcome::Failed);
        let failed_note = if failures > 0 {
            format!(", {failures} FAILED")
        } else {
            String::new()
        };
        let mut out = format!(
            "sweep report: {} cells ({} executed, {} resumed, {} shared{failed_note}), {:.3}s simulated wall time\n",
            self.rows.len(),
            self.count(CellOutcome::Executed),
            self.count(CellOutcome::Resumed),
            self.count(CellOutcome::Shared),
            self.total_wall().as_secs_f64(),
        );
        let mut by_cost: Vec<&CellMetric> = self
            .rows
            .iter()
            .filter(|r| r.outcome == CellOutcome::Executed)
            .collect();
        by_cost.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.cell.cmp(&b.cell)));
        for r in by_cost.iter().take(10) {
            out.push_str(&format!(
                "  {:>9.3}s  {:>8.1} Mi/s  {}\n",
                r.wall.as_secs_f64(),
                r.throughput() / 1e6,
                r.cell,
            ));
        }
        out
    }

    /// Writes `sweep_report.csv` and `sweep_report.txt` into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("sweep_report.csv"), self.to_csv())?;
        std::fs::write(dir.join("sweep_report.txt"), self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instructions: u64, misses: u64) -> HierarchyStats {
        let mut s = HierarchyStats {
            instructions,
            ..Default::default()
        };
        s.llc.misses = misses;
        s
    }

    #[test]
    fn rows_sort_by_cell_and_counts_split() {
        let report = SweepReport::new(vec![
            CellMetric::new(
                "fig4/z".into(),
                CellOutcome::Executed,
                Duration::from_millis(500),
                &stats(1_000_000, 10),
            ),
            CellMetric::new(
                "fig4/a".into(),
                CellOutcome::Resumed,
                Duration::ZERO,
                &stats(2_000_000, 20),
            ),
        ]);
        assert_eq!(report.rows()[0].cell, "fig4/a");
        assert_eq!(report.count(CellOutcome::Executed), 1);
        assert_eq!(report.count(CellOutcome::Resumed), 1);
        assert_eq!(report.count(CellOutcome::Shared), 0);
        assert_eq!(report.total_wall(), Duration::from_millis(500));
    }

    #[test]
    fn csv_shape() {
        let report = SweepReport::new(vec![CellMetric::new(
            "fig2/tiny/dbp/lru".into(),
            CellOutcome::Executed,
            Duration::from_secs(2),
            &stats(4_000_000, 123),
        )]);
        let csv = report.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("cell,outcome,wall_seconds,instructions,llc_misses,mi_per_second")
        );
        assert_eq!(
            lines.next(),
            Some("fig2/tiny/dbp/lru,executed,2.000000,4000000,123,2.000")
        );
    }

    #[test]
    fn text_mentions_slowest_cells() {
        let report = SweepReport::new(vec![
            CellMetric::new(
                "a".into(),
                CellOutcome::Executed,
                Duration::from_secs(1),
                &stats(1, 0),
            ),
            CellMetric::new(
                "b".into(),
                CellOutcome::Executed,
                Duration::from_secs(3),
                &stats(1, 0),
            ),
        ]);
        let text = report.to_text();
        assert!(text.starts_with("sweep report: 2 cells (2 executed, 0 resumed, 0 shared)"));
        let b_pos = text.find("  b\n").unwrap();
        let a_pos = text.find("  a\n").unwrap();
        assert!(b_pos < a_pos, "slowest first");
    }

    #[test]
    fn throughput_handles_zero_wall() {
        let m = CellMetric::new(
            "x".into(),
            CellOutcome::Resumed,
            Duration::ZERO,
            &stats(5, 0),
        );
        assert_eq!(m.throughput(), 0.0);
    }
}
