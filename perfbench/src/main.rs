//! `popt-perfbench` — the repository benchmark.
//!
//! ```text
//! popt-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up at least five times and for at least a
//! second, then repeats the workload's operation until `--seconds` have
//! passed, checks every output, and prints one JSON object as the last
//! line of stdout:
//!
//! ```text
//! {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones: `op_ms`, the mean
//! operation time, and `setup_s`, the median set-up time. Both are scaled
//! to nominal host speed by the reference runs of [`calib`] around every
//! timed stretch; the unscaled figures go to stderr. With `--trace 1` the
//! same operations run, and the metrics are the per-crate layer figures of
//! [`layers::probe`], taken on the workload's own inputs. All scratch
//! files live under `.bench_work/` in the current directory and are
//! removed before exit.

mod calib;
mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
pub struct Report {
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Whether every end-of-run check on the outputs passed.
    pub checks_passed: bool,
    /// Each operation of the measured window.
    pub ops: Timings,
    /// Each set-up.
    pub setups: Timings,
    /// Per-crate layer metrics (only with `--trace 1`).
    pub layers: Vec<Metric>,
}

/// Timed stretches of work, each with the reference time around it.
#[derive(Default)]
pub struct Timings {
    /// Wall time of each stretch.
    pub wall: Vec<Duration>,
    /// Mean of the reference runs just before and just after each stretch.
    pub reference: Vec<Duration>,
}

impl Timings {
    /// Records `walls`, timed back to back between reference runs that
    /// took `before` and `after`.
    pub fn record(&mut self, walls: &[Duration], before: Duration, after: Duration) {
        for &wall in walls {
            self.wall.push(wall);
            self.reference.push((before + after) / 2);
        }
    }

    /// Each stretch at nominal host speed, in seconds.
    pub fn scaled(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.reference)
            .map(|(&w, &r)| calib::scale(w, r))
            .collect()
    }

    /// Mean stretch at nominal host speed, in seconds: total wall time over
    /// total reference time. Weighting by time keeps a run that switches
    /// between fast and slow host states from landing on either mode.
    pub fn scaled_mean(&self) -> f64 {
        let wall: Duration = self.wall.iter().sum();
        let reference: Duration = self.reference.iter().sum();
        calib::scale(wall, reference)
    }
}

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Set-ups repeat until at least this long has passed, so that a cheap
/// set-up's median rests on many samples.
pub const SETUP_SPAN: Duration = Duration::from_secs(1);

/// Fewest operations a window completes, however long they take.
const MIN_OPS: usize = 3;

/// Shortest stretch of operations timed between two reference runs.
const BLOCK: Duration = Duration::from_millis(400);

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `op` back to back until `seconds` have passed (and at least
/// [`MIN_OPS`] times), in blocks of at least [`BLOCK`] with a reference
/// run between blocks. `op` returns whether its output was correct.
pub fn measure(seconds: f64, mut op: impl FnMut() -> bool) -> (Timings, u64) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut timings = Timings::default();
    let mut failed = 0;
    let mut before = calib::reference();
    while timings.wall.len() < MIN_OPS || start.elapsed() < budget {
        let block = Instant::now();
        let mut walls = Vec::new();
        while walls.is_empty() || block.elapsed() < BLOCK {
            let t = Instant::now();
            if !op() {
                failed += 1;
            }
            walls.push(t.elapsed());
        }
        let after = calib::reference();
        timings.record(&walls, before, after);
        before = after;
    }
    (timings, failed)
}

/// Median of a non-empty sample.
pub fn median(sample: &[f64]) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a non-empty sample, in seconds.
pub fn median_secs(sample: &[Duration]) -> f64 {
    median(&sample.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// A small deterministic generator (SplitMix64) for seeded choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_u64() % (i as u64 + 1);
            items.swap(i, usize::try_from(j).expect("j <= i"));
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    match args.workload.as_str() {
        "policy-zoo" => workloads::policy_zoo(args, work),
        "cold-popt" => workloads::cold_popt(args, work),
        "daemon" => workloads::daemon(args, work),
        other => Err(format!(
            "unknown workload {other} (policy-zoo|cold-popt|daemon)"
        )),
    }
}

fn main() -> ExitCode {
    // Single-threaded Rereference Matrix builds: on a small shared host a
    // second preprocessing thread speeds a build up only when the other
    // core happens to be free, which makes timings bimodal.
    std::env::set_var("POPT_THREADS", "1");
    // Hidden child mode: one `experiments sweep`, run in its own process.
    if std::env::args().nth(1).as_deref() == Some(workloads::SWEEP_CHILD) {
        return workloads::sweep_child(std::env::args().skip(2).collect());
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("usage: popt-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::FAILURE;
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Leave `.bench_work` behind only if another run still uses it.
    let _ = std::fs::remove_dir(".bench_work");
    let report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let attempted = report.ops.wall.len();
    eprintln!(
        "perfbench: unscaled: op mean {:.3} ms, setup median {:.4} s; reference median {:.2} ms",
        report.ops.wall.iter().sum::<Duration>().as_secs_f64() * 1e3 / attempted as f64,
        median_secs(&report.setups.wall),
        median_secs(&report.ops.reference) * 1e3
    );
    let metrics = if args.trace {
        report.layers
    } else {
        vec![
            Metric {
                name: "op_ms",
                value: report.ops.scaled_mean() * 1e3,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&report.setups.scaled()),
                unit: "s",
            },
        ]
    };
    let correct = report.checks_passed && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
