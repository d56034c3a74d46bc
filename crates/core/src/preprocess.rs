//! Parallel Rereference Matrix construction — the preprocessing step whose
//! cost the paper's Table IV measures.
//!
//! "Pre-computing P-OPT's modified Rereference Matrix is a low-cost
//! preprocessing step that runs before execution" (Section IV-B), and "the
//! Rereference Matrix is algorithm agnostic and needs to be created only
//! once for a graph" (Section VII-D). Construction is embarrassingly
//! parallel over matrix rows (cache lines), so this module fans runs of
//! rows out across scoped worker threads (`std::thread::scope`); every run
//! goes through the same row routine as the serial builders.

use crate::{reref, Encoding, Quantization, RerefMatrix};
use popt_graph::Csr;
use std::time::{Duration, Instant};

/// Outcome of a timed preprocessing run (one Table IV cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessReport {
    /// Wall-clock build time.
    pub duration: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Total matrix bytes produced.
    pub bytes: u64,
}

/// Builds the Rereference Matrix using `threads` workers. Equivalent to
/// [`RerefMatrix::build`] but parallel; the output is bit-identical.
///
/// # Panics
///
/// Panics if `threads == 0` or the granularities are invalid.
pub fn build_parallel(
    transpose: &Csr,
    elems_per_line: u32,
    vertices_per_elem: u32,
    quant: Quantization,
    encoding: Encoding,
    threads: usize,
) -> RerefMatrix {
    assert!(threads > 0, "need at least one worker thread");
    let n = transpose.num_vertices();
    let vertices_per_line = reref::line_vertices(elems_per_line, vertices_per_elem);
    let mut m = RerefMatrix::shell(n, 0, n, vertices_per_line, quant, encoding);
    let num_epochs = m.num_epochs();
    let mut data = vec![0; m.num_lines() * num_epochs];
    let rows_per_run = m.num_lines().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let m = &m;
        let mut runs = data.chunks_mut(rows_per_run * num_epochs).enumerate();
        // The calling thread builds the last run itself.
        let last = runs.next_back();
        for (i, rows) in runs {
            scope.spawn(move || m.fill_lines(transpose, i * rows_per_run, rows));
        }
        if let Some((i, rows)) = last {
            m.fill_lines(transpose, i * rows_per_run, rows);
        }
    });
    m.set_data(data);
    m
}

/// Times [`build_parallel`].
pub fn timed_build(
    transpose: &Csr,
    elems_per_line: u32,
    vertices_per_elem: u32,
    quant: Quantization,
    encoding: Encoding,
    threads: usize,
) -> (RerefMatrix, PreprocessReport) {
    let start = Instant::now();
    let m = build_parallel(
        transpose,
        elems_per_line,
        vertices_per_elem,
        quant,
        encoding,
        threads,
    );
    let report = PreprocessReport {
        duration: start.elapsed(),
        threads,
        bytes: m.total_bytes(),
    };
    (m, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;

    #[test]
    fn parallel_build_matches_serial() {
        let g = generators::uniform_random(2000, 16_000, 5);
        let serial = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        for threads in [1usize, 2, 4, 7] {
            let parallel = build_parallel(
                g.out_csr(),
                16,
                1,
                Quantization::EIGHT,
                Encoding::InterIntra,
                threads,
            );
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn timed_build_reports_shape() {
        let g = generators::uniform_random(500, 2000, 1);
        let (m, report) = timed_build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
            2,
        );
        assert_eq!(report.threads, 2);
        assert_eq!(report.bytes, m.total_bytes());
    }

    #[test]
    fn empty_graph_builds_an_empty_matrix() {
        let transpose = popt_graph::Csr::from_edges(0, &[]).unwrap();
        let m = build_parallel(
            &transpose,
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
            4,
        );
        assert_eq!(m.num_lines(), 0);
    }
}
