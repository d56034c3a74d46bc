//! The `sweep` subcommand: every experiment as one parallel, resumable
//! run.
//!
//! A sweep owns three on-disk artifacts under its output directory:
//!
//! - `cache/` — the content-addressed artifact cache (suite graphs,
//!   Rereference Matrices), shared across cells, runs and processes;
//! - `sweep_manifest.jsonl` — the resume journal: a killed sweep restarted
//!   with the same arguments re-simulates only the unfinished cells;
//! - `sweep_report.{csv,txt}` + `sweep_summary.json` — per-cell wall-time
//!   metrics and the run-level executed/resumed/shared/cache/stream-counter
//!   digest.
//!
//! The result tables land next to them under the exact historical file
//! names, byte-identical to the serial `experiments` runs at any `--jobs`
//! level.

use crate::exec::{Session, StreamCounters};
use crate::experiments::{emit_tables, find_experiment, Runner, EXPERIMENTS};
use crate::Scale;
use popt_harness::{ArtifactCache, CellOutcome, Manifest};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed `sweep` invocation.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Suite scale for every experiment.
    pub scale: Scale,
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Output directory (tables, cache, manifest, report).
    pub out: PathBuf,
    /// Experiment names to run; empty means the full registry.
    pub only: Vec<String>,
    /// Fault injection: panic every cell whose id contains this pattern
    /// (exercises the failure path end to end; see `--inject-fail`).
    pub inject_fail: Option<String>,
}

impl SweepOptions {
    /// Defaults: tiny scale, serial, `results/sweep`, all experiments.
    pub fn new() -> Self {
        SweepOptions {
            scale: Scale::Tiny,
            jobs: 1,
            out: PathBuf::from("results/sweep"),
            only: Vec::new(),
            inject_fail: None,
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::new()
    }
}

/// What a finished sweep did, for callers that want to assert on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// Cells simulated in this run.
    pub executed: usize,
    /// Cells replayed from the resume journal.
    pub resumed: usize,
    /// Cells that took the stats of an equal cell (same content key) of
    /// this run instead of simulating.
    pub shared: usize,
    /// Experiments with at least one failed cell, in registry order. A
    /// non-empty list makes the `sweep` subcommand exit nonzero.
    pub failed: Vec<String>,
    /// Artifact-cache counters at completion.
    pub counters: popt_harness::CacheCounters,
    /// LLC streams recorded, and replayed by every executed cell.
    pub streams: StreamCounters,
    /// Time the executed stream groups spent recording, summed over
    /// groups.
    pub record_time: Duration,
}

impl SweepSummary {
    /// The `sweep_summary.json` body (fixed key order, trailing newline).
    pub fn to_json(&self, scale: Scale, jobs: usize) -> String {
        let failed = self
            .failed
            .iter()
            .map(|name| popt_harness::json::encode_str(name))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"scale\":\"{}\",\"jobs\":{},\"cells\":{},\"executed\":{},\"resumed\":{},\"shared\":{},\"failed\":[{}],\"cache\":{},\"streams\":{}}}\n",
            scale.name(),
            jobs,
            self.executed + self.resumed + self.shared,
            self.executed,
            self.resumed,
            self.shared,
            failed,
            self.counters.to_json(),
            self.streams.to_json(self.record_time),
        )
    }
}

/// Resolves the experiment selection against the registry, in registry
/// order (so a sweep always emits in the same order the serial binary
/// would).
fn select(only: &[String]) -> std::io::Result<Vec<&'static (&'static str, &'static str, Runner)>> {
    if only.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let mut picked = Vec::new();
    for name in only {
        match find_experiment(name) {
            Some(e) if picked.iter().any(|p: &&(&str, &str, Runner)| p.0 == e.0) => {}
            Some(e) => picked.push(e),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unknown experiment: {name}"),
                ))
            }
        }
    }
    picked.sort_by_key(|e| EXPERIMENTS.iter().position(|r| r.0 == e.0));
    Ok(picked)
}

/// Runs a sweep end to end: open cache + journal, drive every selected
/// experiment through one shared [`Session`], emit tables, finish the
/// journal and write the report + summary.
///
/// An experiment whose batch contains a failing (panicking) cell does not
/// abort the sweep: its healthy cells are still simulated and journaled,
/// its tables are *not* emitted, and the experiment is recorded in
/// [`SweepSummary::failed`] so the caller can exit nonzero. Fixing the
/// cell and re-running resumes everything else from the journal.
///
/// # Errors
///
/// Fails on unknown experiment names and on any I/O failure (cache,
/// journal, table emission, report). Cell failures are *not* `Err`: they
/// come back in [`SweepSummary::failed`].
pub fn run_sweep(opts: &SweepOptions) -> std::io::Result<SweepSummary> {
    let selected = select(&opts.only)?;
    std::fs::create_dir_all(&opts.out)?;
    let cache = Arc::new(ArtifactCache::open(opts.out.join("cache"))?);
    let manifest = Manifest::open(opts.out.join("sweep_manifest.jsonl"))?;
    let mut session = Session::parallel(opts.jobs)
        .with_cache(Arc::clone(&cache))
        .with_manifest(manifest);
    if let Some(pattern) = &opts.inject_fail {
        session = session.with_fault(pattern.clone());
    }
    let mut failed = Vec::new();
    for (name, desc, runner) in selected {
        eprintln!(
            ">>> {name}: {desc} ({} scale, {} jobs)",
            opts.scale.name(),
            session.threads()
        );
        let started = std::time::Instant::now();
        // The harness completes and journals every healthy cell of a batch
        // before re-raising a cell failure, so catching here loses nothing
        // but the failed experiment's table emission.
        let tables = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner(&session, opts.scale)
        }));
        match tables {
            Ok(tables) => {
                emit_tables(&tables, &opts.out, name)?;
                eprintln!("<<< {name} done in {:.1}s", started.elapsed().as_secs_f64());
            }
            Err(_) => {
                eprintln!("!!! {name} FAILED (completed cells are journaled)");
                failed.push((*name).to_string());
            }
        }
    }
    let summary = SweepSummary {
        executed: session.count(CellOutcome::Executed),
        resumed: session.count(CellOutcome::Resumed),
        shared: session.count(CellOutcome::Shared),
        failed,
        counters: cache.counters(),
        streams: session.stream_counters(),
        record_time: session.record_time(),
    };
    let report = session.finish()?;
    report.write(&opts.out)?;
    std::fs::write(
        opts.out.join("sweep_summary.json"),
        summary.to_json(opts.scale, opts.jobs),
    )?;
    eprint!("{}", report.to_text());
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_resolves_aliases_dedups_and_rejects_unknowns() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let picked = select(&[
            "fig12a".to_string(),
            "fig12b".to_string(),
            "fig2".to_string(),
        ])
        .unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.0).collect();
        assert_eq!(names, ["fig2", "fig12"], "deduped, registry order");
        assert!(select(&["nope".to_string()]).is_err());
    }

    #[test]
    fn summary_json_is_stable() {
        let mut s = SweepSummary {
            executed: 3,
            resumed: 2,
            shared: 4,
            failed: Vec::new(),
            counters: popt_harness::CacheCounters {
                graph_hits: 4,
                graph_builds: 1,
                matrix_hits: 6,
                matrix_builds: 2,
            },
            streams: StreamCounters {
                recorded: 1,
                replayed: 3,
            },
            record_time: Duration::from_micros(250_500),
        };
        assert_eq!(
            s.to_json(Scale::Tiny, 2),
            "{\"scale\":\"tiny\",\"jobs\":2,\"cells\":9,\"executed\":3,\"resumed\":2,\"shared\":4,\"failed\":[],\
             \"cache\":{\"graph_hits\":4,\"graph_builds\":1,\"matrix_hits\":6,\"matrix_builds\":2},\
             \"streams\":{\"recorded\":1,\"replayed\":3,\"record_seconds\":0.250500}}\n"
        );
        s.failed = vec!["fig2".to_string(), "fig7".to_string()];
        assert!(s
            .to_json(Scale::Tiny, 2)
            .contains("\"failed\":[\"fig2\",\"fig7\"]"));
    }
}
