//! Golden sweep outputs: every cell of the full tiny sweep, and every
//! result table it emits, pinned to checked-in bytes.
//!
//! The test runs `experiments sweep --scale tiny --jobs 2` through
//! [`popt_cli::sweep::run_sweep`] into a scratch directory under
//! `target/`, then compares
//!
//! - every `(cell id, digest)` pair of its journal against
//!   `tests/golden/tiny/digests` (one `ID DIGEST` line per cell, sorted by
//!   id), and
//! - every emitted CSV byte for byte against `tests/golden/tiny/`, except
//!   `table4.csv` (preprocessing wall times) and `sweep_report.csv` (cell
//!   wall times).
//!
//! A failure names the first cell or file that moved. A change that moves
//! a cell on purpose regenerates the golden from a release build and says
//! in its change notes which cells moved and why:
//!
//! ```text
//! cargo run --release -p popt-cli -- sweep --scale tiny --jobs 2 --out target/golden-tiny
//! cp target/golden-tiny/*.csv tests/golden/tiny/
//! rm tests/golden/tiny/table4.csv tests/golden/tiny/sweep_report.csv
//! sed -n 's/^{"cell":"\([^"]*\)","digest":"\([0-9a-f]*\)".*/\1 \2/p' \
//!     target/golden-tiny/sweep_manifest.jsonl > tests/golden/tiny/digests
//! ```
//!
//! `tests/golden/small.digests` is the same digest list at small scale
//! (`--scale small`, `sed` into `tests/golden/small.digests`); CI checks it
//! in a release build.
//!
//! The test also pins how the cold sweep deduplicated its cells: how many
//! it executed, resumed and shared, and how many LLC streams it recorded
//! and replayed. A change that moves these on purpose takes the new counts
//! from `target/golden-tiny/sweep_summary.json` of the run above (its
//! `"executed"`, `"resumed"` and `"shared"` fields and the `"recorded"`
//! and `"replayed"` fields of its `"streams"` object), and says in its
//! change notes why they moved.

use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result files outside the byte-identical contract: wall-clock timings.
const UNPINNED: [&str; 2] = ["table4.csv", "sweep_report.csv"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny")
}

/// `ID DIGEST` lines as a map.
fn parse_digests(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(|line| {
            let (id, digest) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed digest line {line:?}"));
            (id.to_string(), digest.to_string())
        })
        .collect()
}

/// The `(cell, digest)` pairs of a sweep journal.
fn journal_digests(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"cell\":\"")?;
            let (id, rest) = rest.split_once("\",\"digest\":\"")?;
            let (digest, _) = rest.split_once('"')?;
            Some((id.to_string(), digest.to_string()))
        })
        .collect()
}

/// The pinned CSVs of a directory, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let bytes = std::fs::read(&path).expect("readable result file");
            (!UNPINNED.contains(&name.as_str())).then_some((name, bytes))
        })
        .collect()
}

/// The first line on which two texts differ, for failure messages.
fn first_difference(want: &[u8], got: &[u8]) -> String {
    let (want, got) = (String::from_utf8_lossy(want), String::from_utf8_lossy(got));
    let mut lines = want.lines().zip(got.lines()).enumerate();
    match lines.find(|(_, (w, g))| w != g) {
        Some((n, (w, g))) => format!("line {}: golden {w:?}, got {g:?}", n + 1),
        None => format!(
            "golden has {} lines, got {}",
            want.lines().count(),
            got.lines().count()
        ),
    }
}

#[test]
fn tiny_sweep_matches_the_golden() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/sweep-golden/tiny");
    let _ = std::fs::remove_dir_all(&out);
    let mut opts = SweepOptions::new();
    opts.scale = Scale::Tiny;
    opts.jobs = 2;
    opts.out = out.clone();
    let summary = run_sweep(&opts).expect("tiny sweep runs");
    assert!(summary.failed.is_empty(), "failed: {:?}", summary.failed);
    assert_eq!(
        (summary.executed, summary.resumed, summary.shared),
        (359, 0, 151),
        "the 510 cells' executed, resumed and shared counts moved"
    );
    assert_eq!(
        (summary.streams.recorded, summary.streams.replayed),
        (119, 359),
        "the recorded and replayed stream counts moved"
    );

    let golden = golden_dir();
    let want = parse_digests(&std::fs::read_to_string(golden.join("digests")).unwrap());
    let got = journal_digests(&std::fs::read_to_string(out.join("sweep_manifest.jsonl")).unwrap());
    for (id, digest) in &want {
        match got.get(id) {
            Some(d) if d == digest => {}
            Some(d) => panic!("cell {id} moved: golden digest {digest}, got {d}"),
            None => panic!("cell {id} is missing from the sweep"),
        }
    }
    if let Some(id) = got.keys().find(|id| !want.contains_key(*id)) {
        panic!("cell {id} is not in the golden");
    }

    let want = csvs(&golden);
    let got = csvs(&out);
    assert!(!want.is_empty(), "the golden holds result tables");
    for (name, bytes) in &want {
        let Some(mine) = got.get(name) else {
            panic!("{name} was not emitted");
        };
        assert!(
            mine == bytes,
            "{name} moved: {}",
            first_difference(bytes, mine)
        );
    }
    if let Some(name) = got.keys().find(|name| !want.contains_key(*name)) {
        panic!("{name} is not in the golden");
    }
}
