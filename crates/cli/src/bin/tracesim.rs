//! `tracesim` — replay a recorded `POPTTRC2` trace file (see `graphgen
//! trace` and `experiments trace record`) through the cache hierarchy
//! under a chosen baseline policy, printing hierarchy statistics.
//! Completes the decoupled capture/simulate workflow of Pin-style studies.
//! Every run decodes the file once into the private levels' recorder,
//! whose post-L2 stream the policy's LLC replays on a second thread as it
//! is recorded; `--policy opt` builds Belady's oracle from the whole
//! recorded stream. A numeric flag whose value does not parse or is out
//! of range prints the usage and exits nonzero.
//!
//! ```text
//! tracesim <trace.trc> [--policy NAME] [--llc BYTES] [--ways N] [--cores N]
//! ```

use popt_cli::numeric_flag;
use popt_cli::trace_cmd::parse_policy_kind;
use popt_sim::{
    CacheConfig, GroupLlc, Hierarchy, HierarchyConfig, Llc, MemberRun, PolicyKind, Recorder,
};
use popt_trace::LINE_SIZE;
use std::process::ExitCode;

/// Reports `msg` and the usage text, returning the failure exit code.
fn fail(msg: &str) -> ExitCode {
    let policies: Vec<String> = PolicyKind::ALL
        .iter()
        .map(|k| k.label().to_ascii_lowercase())
        .collect();
    eprintln!("{msg}");
    eprintln!(
        "usage: tracesim <trace.trc> [--policy {}|opt] [--llc BYTES] [--ways 1..=64] [--cores N]",
        policies.join("|")
    );
    ExitCode::FAILURE
}

/// The `--llc`, `--ways` and `--cores` values, checked so that neither
/// `CacheConfig::new` nor the recorder can panic on them.
fn geometry(args: &[String]) -> Result<(usize, usize, usize), String> {
    // Bit-PLRU caps associativity at 64 ways.
    let ways = numeric_flag(args, "--ways", 16, 1..=64)?;
    let llc_bytes = numeric_flag(args, "--llc", 256 * 1024, 1..)?;
    if !(llc_bytes as u64).is_multiple_of(ways as u64 * LINE_SIZE) {
        return Err(format!(
            "bad --llc value {llc_bytes}: must be a multiple of ways x {LINE_SIZE} bytes"
        ));
    }
    let cores = numeric_flag(args, "--cores", 1, 1..)?;
    Ok((llc_bytes, ways, cores))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first().filter(|a| !a.starts_with('-')) else {
        return fail("missing trace file");
    };
    let policy_name = args
        .iter()
        .position(|a| a == "--policy")
        .and_then(|i| args.get(i + 1))
        .map_or("drrip", String::as_str);
    let (llc_bytes, ways, cores) = match geometry(&args) {
        Ok(geometry) => geometry,
        Err(msg) => return fail(&msg),
    };

    let mut cfg = HierarchyConfig::scaled_table1();
    cfg.llc = CacheConfig::new(llc_bytes, ways);

    // `opt` is tracesim's own case: Belady is built from a recorded LLC
    // stream, so it is not a `PolicyKind`.
    let kind = match parse_policy_kind(policy_name) {
        Some(kind) => Some(kind),
        None if policy_name == "opt" => None,
        None => return fail(&format!("unknown policy: {policy_name}")),
    };

    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Belady is built from one globally ordered LLC stream, which a
    // multi-core recording interleaves.
    if kind.is_none() && cores != 1 {
        eprintln!("--policy opt requires --cores 1");
        return ExitCode::FAILURE;
    }
    // The file is decoded once, into the private levels' recorder, and the
    // policy's LLC consumes only their post-L2 stream on a second thread:
    // chunk by chunk as it is recorded, or, for Belady's oracle, which
    // needs the whole stream first, after the recording ends.
    let replay = |h: &mut Recorder| popt_tracestore::replay_any(&bytes[..], h).map(drop);
    let llc = match kind {
        Some(kind) => {
            let cfg = &cfg;
            GroupLlc::Live(move || Llc::new(cfg, move |s, w| kind.build(s, w)))
        }
        None => GroupLlc::Belady(cfg.clone()),
    };
    let run = match Hierarchy::group(&cfg, cores, vec![llc], replay) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let [member] = <[MemberRun; 1]>::try_from(run.members).expect("one LLC, one member");
    let stats = member
        .stats
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    println!("policy        {policy_name}");
    println!("llc           {} KB x {} ways", llc_bytes / 1024, ways);
    println!("instructions  {}", stats.instructions);
    for (name, level) in [("l1", &stats.l1), ("l2", &stats.l2), ("llc", &stats.llc)] {
        println!(
            "{name:4} accesses {:>10}  misses {:>10}  rate {:5.1}%",
            level.demand_accesses(),
            level.misses,
            level.miss_rate() * 100.0
        );
    }
    println!("llc mpki      {:.2}", stats.llc_mpki());
    println!("dram traffic  {} lines", stats.dram_transfers());
    ExitCode::SUCCESS
}
