//! Flag handling of the `graphgen` and `tracesim` binaries: a numeric
//! flag that is present but unparsable or out of range prints the usage
//! and exits nonzero instead of silently falling back to its default,
//! and the well-formed invocations still succeed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bin-flags");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

fn graphgen(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_graphgen"), args)
}

fn tracesim(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tracesim"), args)
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "expected success, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_usage_failure(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, stderr: {stderr}");
    assert!(stderr.contains("usage"), "no usage text: {stderr}");
}

/// Writes a small Kronecker graph and its PageRank trace; returns both paths.
fn graph_and_trace(tag: &str) -> (String, String) {
    let g = scratch(&format!("{tag}.bin")).display().to_string();
    let trc = scratch(&format!("{tag}.trc")).display().to_string();
    assert_ok(&graphgen(&["gen", "kron", &g, "--scale", "8"]));
    assert_ok(&graphgen(&["trace", &g, "pr", &trc]));
    (g, trc)
}

#[test]
fn graphgen_rejects_bad_bits() {
    let (g, _) = graph_and_trace("bits");
    let rrm = scratch("bits.rrm").display().to_string();
    let _ = std::fs::remove_file(&rrm);
    for bad in ["264", "eight", "1", "17"] {
        assert_usage_failure(&graphgen(&["reref", &g, &rrm, "--bits", bad]));
    }
    assert!(
        !std::path::Path::new(&rrm).exists(),
        "a rejected flag must not write a matrix"
    );
    assert_ok(&graphgen(&["reref", &g, &rrm, "--bits", "8"]));
    assert_ok(&graphgen(&["reref", &g, &rrm]));
}

#[test]
fn graphgen_rejects_bad_generator_flags() {
    let g = scratch("gen.bin").display().to_string();
    assert_usage_failure(&graphgen(&["gen", "kron", &g, "--scale", "40"]));
    assert_usage_failure(&graphgen(&["gen", "urand", &g, "--vertices", "0"]));
    assert_usage_failure(&graphgen(&["gen", "urand", &g, "--edges", "many"]));
    assert_usage_failure(&graphgen(&["gen", "urand", &g, "--seed"]));
    assert_ok(&graphgen(&[
        "gen",
        "urand",
        &g,
        "--vertices",
        "64",
        "--edges",
        "256",
    ]));
}

#[test]
fn tracesim_rejects_bad_llc_and_accepts_every_policy_spelling() {
    let (_, trc) = graph_and_trace("sim");
    assert_usage_failure(&tracesim(&[&trc, "--llc", "1M"]));
    assert_usage_failure(&tracesim(&[&trc, "--llc", "1000"]));
    assert_usage_failure(&tracesim(&[&trc, "--ways", "0"]));
    assert_usage_failure(&tracesim(&[&trc, "--cores", "-1"]));
    // Each core gets its own L1 and L2, so an unbounded `--cores` or
    // `--llc` would exhaust memory instead of printing the usage.
    assert_usage_failure(&tracesim(&[&trc, "--cores", "0"]));
    assert_usage_failure(&tracesim(&[&trc, "--cores", "65"]));
    assert_usage_failure(&tracesim(&[&trc, "--llc", "2147483648"]));
    assert_usage_failure(&tracesim(&[&trc, "--policy", "nope"]));
    for policy in ["bit-plru", "SHiP-PC", "drrip", "opt"] {
        assert_ok(&tracesim(&[&trc, "--policy", policy]));
    }
    let out = tracesim(&[&trc, "--llc", "262144", "--ways", "8"]);
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("256 KB x 8 ways"), "{stdout}");
}
