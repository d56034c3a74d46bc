//! The `trace` subcommand: record, inspect and replay `POPTTRC2` trace
//! artifacts. Sweeps do not use them; every sweep cell runs its kernel.
//!
//! ```text
//! experiments trace record --app pr --graph urand [--scale S] --out FILE
//! experiments trace replay FILE --app pr --graph urand [--scale S] [--policies lru,drrip,popt]
//! experiments trace info FILE [--verify]
//! ```
//!
//! `record` executes one kernel over one suite graph and writes the
//! compressed event stream; `replay` decodes that file once into an L1/L2
//! recorder (the kernel never re-executes) whose post-L2 stream every
//! policy's LLC takes as it is recorded ([`Hierarchy::group`]); `info`
//! prints the footer index without decoding chunk payloads, and
//! `--verify` additionally decodes every chunk against its checksum.

use crate::runner::{group_llcs, member_stats, Feed, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_kernels::App;
use popt_sim::{GroupRun, Hierarchy, HierarchyConfig, LlcThread, PolicyKind, Recorder};
use popt_tracestore::{replay_any, trace_info, verify, ChunkWriter, ReplayStats, TraceFileError};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: experiments trace record --app A --graph G [--scale S] --out FILE\n\
         \u{20}      experiments trace replay FILE --app A --graph G [--scale S] [--policies P,P,..]\n\
         \u{20}      experiments trace info FILE [--verify]\n\
         apps:     pr cc pr-delta radii mis\n\
         graphs:   dbp uk02 kron urand hbubl\n\
         policies: lru bit-plru random srrip brrip drrip ship-pc ship-mem\n\
         \u{20}         hawkeye sdbp leeway topt popt opt"
    );
}

/// Parses a kernel name as [`App::name`] spells it (`pr`, `cc`,
/// `pr-delta`, `radii`, `mis`). Shared with `graphgen trace`.
pub fn parse_app(s: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| a.name() == s)
}

fn parse_suite_graph(s: &str) -> Option<SuiteGraph> {
    SuiteGraph::ALL.into_iter().find(|g| g.name() == s)
}

/// Policy names compare on their lower-case alphanumerics, so `SHiP-PC`,
/// `ship-pc` and `shippc` all name the same policy.
fn normalize(s: &str) -> String {
    s.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Parses a baseline policy name against the [`PolicyKind::label`] of
/// every [`PolicyKind::ALL`] entry, ignoring case and punctuation. Shared
/// with `tracesim`.
pub fn parse_policy_kind(s: &str) -> Option<PolicyKind> {
    let norm = normalize(s);
    PolicyKind::ALL
        .into_iter()
        .find(|k| normalize(k.label()) == norm)
}

fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    if let Some(kind) = parse_policy_kind(s) {
        return Ok(PolicySpec::Baseline(kind));
    }
    match normalize(s).as_str() {
        "topt" => Ok(PolicySpec::Topt),
        "popt" => Ok(PolicySpec::popt_default()),
        "opt" | "belady" => Ok(PolicySpec::Belady),
        _ => Err(format!("unknown policy: {s}")),
    }
}

/// Shared `--app/--graph/--scale` selection of the record/replay verbs.
struct Workload {
    app: App,
    which: SuiteGraph,
    scale: Scale,
}

impl Workload {
    fn materialize(&self) -> Graph {
        suite_graph(self.which, self.scale.suite())
    }

    /// The descriptor embedded in a recorded file's header: the suite
    /// graph, its scale and the kernel that produced the events.
    fn descriptor(&self) -> String {
        format!(
            "trace/v2/suite/v1/{}/{}/{}",
            self.which,
            self.scale.name(),
            self.app.name()
        )
    }
}

/// Folds one `--app/--graph/--scale` flag into the partial selection.
/// Returns `Ok(true)` when the flag was consumed.
fn parse_workload_flag(
    arg: &str,
    iter: &mut std::vec::IntoIter<String>,
    app: &mut Option<App>,
    which: &mut Option<SuiteGraph>,
    scale: &mut Scale,
) -> Result<bool, String> {
    match arg {
        "--app" => {
            let v = iter.next().ok_or("--app needs a kernel name")?;
            *app = Some(parse_app(&v).ok_or_else(|| format!("unknown app: {v}"))?);
        }
        "--graph" => {
            let v = iter.next().ok_or("--graph needs a suite graph name")?;
            *which = Some(parse_suite_graph(&v).ok_or_else(|| format!("unknown graph: {v}"))?);
        }
        "--scale" => {
            let v = iter.next().ok_or("--scale needs tiny|small|standard")?;
            *scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale: {v}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn record_main(args: Vec<String>) -> Result<(), String> {
    let mut app = None;
    let mut which = None;
    let mut scale = Scale::Tiny;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(iter.next().ok_or("--out needs a file path")?)),
            other => return Err(format!("unknown trace record argument: {other}")),
        }
    }
    let wl = Workload {
        app: app.ok_or("trace record requires --app")?,
        which: which.ok_or("trace record requires --graph")?,
        scale,
    };
    let out = out.ok_or("trace record requires --out")?;
    let g = wl.materialize();
    let plan = wl.app.plan(&g);
    let file = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer =
        ChunkWriter::create(file, &plan.space, &wl.descriptor()).map_err(|e| e.to_string())?;
    wl.app.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().map_err(|e| e.to_string())?;
    println!(
        "recorded {}: {} events in {} chunks, {} bytes (raw v1 {} bytes, {:.2}x smaller)",
        out.display(),
        summary.events,
        summary.chunks,
        summary.v2_bytes,
        summary.v1_bytes,
        summary.ratio(),
    );
    Ok(())
}

fn replay_main(args: Vec<String>) -> Result<(), String> {
    let mut app = None;
    let mut which = None;
    let mut scale = Scale::Tiny;
    let mut file: Option<PathBuf> = None;
    let mut policies = vec!["lru".to_string(), "drrip".to_string(), "popt".to_string()];
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale)? {
            continue;
        }
        match arg.as_str() {
            "--policies" => {
                let v = iter
                    .next()
                    .ok_or("--policies needs a comma-separated list")?;
                policies = v.split(',').map(str::to_string).collect();
            }
            name if !name.starts_with('-') && file.is_none() => file = Some(PathBuf::from(name)),
            other => return Err(format!("unknown trace replay argument: {other}")),
        }
    }
    let wl = Workload {
        app: app.ok_or("trace replay requires --app (to rebuild policy inputs)")?,
        which: which.ok_or("trace replay requires --graph")?,
        scale,
    };
    let file = file.ok_or("trace replay requires a trace file")?;
    let specs = policies
        .iter()
        .map(|p| parse_policy(p))
        .collect::<Result<Vec<_>, _>>()?;
    if specs.is_empty() {
        return Err("trace replay needs at least one policy".to_string());
    }
    // Policy inputs (T-OPT transposes, P-OPT matrices) come from the graph;
    // the *event stream* comes exclusively from the file.
    let g = wl.materialize();
    let cfg = wl.scale.config();
    let llcs: Vec<_> = specs.iter().map(|spec| (&cfg, spec)).collect();
    let (run, stats) = group_file(&file, wl.app, &g, &cfg, &llcs)?;
    println!(
        "replayed {} events ({} chunks, one decode pass) into {} policies:",
        stats.events,
        stats.chunks_decoded,
        specs.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "policy", "llc_hits", "llc_misses", "miss%"
    );
    for (spec, member) in specs.iter().zip(run.members) {
        let s = member_stats(member, Feed::Kernel(wl.app), spec);
        let total = s.llc.hits + s.llc.misses;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * s.llc.misses as f64 / total as f64
        };
        println!(
            "{:<12} {:>12} {:>12} {:>7.2}%",
            spec.label(),
            s.llc.hits,
            s.llc.misses,
            pct
        );
    }
    Ok(())
}

/// Decodes a trace file once into a recorder under `cfg`'s L1 and L2,
/// whose post-L2 stream every LLC of `llcs` takes as it is recorded: a
/// [`Hierarchy::group`] of `app`'s kernel feed's [`group_llcs`].
fn group_file(
    file: &std::path::Path,
    app: App,
    g: &Graph,
    cfg: &HierarchyConfig,
    llcs: &[(&HierarchyConfig, &PolicySpec)],
) -> Result<(GroupRun, ReplayStats), String> {
    let reader = std::fs::File::open(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut stats = ReplayStats::default();
    let members = group_llcs(Feed::Kernel(app), g, llcs, None);
    let drive = |recorder: &mut Recorder| {
        recorder.set_address_space(&app.plan(g).space);
        stats = replay_any(std::io::BufReader::new(reader), recorder)?;
        Ok(())
    };
    let run = std::thread::scope(|scope| {
        Hierarchy::group(&LlcThread::spawn(scope), cfg, 1, members, drive)
    })
    .map_err(|e: TraceFileError| format!("{}: {e}", file.display()))?;
    Ok((run, stats))
}

fn info_main(args: Vec<String>) -> Result<(), String> {
    let mut file: Option<PathBuf> = None;
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--verify" => check = true,
            name if !name.starts_with('-') && file.is_none() => file = Some(PathBuf::from(name)),
            other => return Err(format!("unknown trace info argument: {other}")),
        }
    }
    let file = file.ok_or("trace info requires a trace file")?;
    let info = trace_info(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("format:   POPTTRC2");
    println!("meta:     {}", info.meta);
    println!("regions:  {}", info.regions);
    println!("events:   {}", info.events);
    println!("chunks:   {}", info.chunks.len());
    println!("v2 bytes: {}", info.file_bytes);
    println!("v1 bytes: {} ({:.2}x smaller)", info.v1_bytes, info.ratio());
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "chunk", "offset", "events", "payload", "first_line", "last_line"
    );
    for (i, c) in info.chunks.iter().enumerate() {
        println!(
            "{i:>6} {:>12} {:>10} {:>12} {:>12} {:>12}",
            c.offset, c.events, c.payload_len, c.first_line, c.last_line
        );
    }
    if check {
        let stats = verify(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "verified: {} events across {} chunks, all checksums OK",
            stats.events, stats.chunks_decoded
        );
    }
    Ok(())
}

/// Entry point for `experiments trace ...`.
pub fn trace_main(mut args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let verb = args.remove(0);
    let result = match verb.as_str() {
        "record" => record_main(args),
        "replay" => replay_main(args),
        "info" => info_main(args),
        "--help" | "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown trace verb: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_flags_parse_and_reject() {
        let mut app = None;
        let mut which = None;
        let mut scale = Scale::Tiny;
        let args: Vec<String> = ["--app", "cc", "--graph", "kron", "--scale", "small"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            assert!(
                parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale).unwrap()
            );
        }
        assert_eq!(app, Some(App::Components));
        assert_eq!(which, Some(SuiteGraph::Kron));
        assert_eq!(scale, Scale::Small);
        assert!(parse_app("nope").is_none());
        assert!(parse_suite_graph("nope").is_none());
    }

    #[test]
    fn policy_parsing_covers_the_zoo_and_rejects_belady() {
        assert!(matches!(
            parse_policy("ship-pc"),
            Ok(PolicySpec::Baseline(PolicyKind::ShipPc))
        ));
        assert!(matches!(parse_policy("TOPT"), Ok(PolicySpec::Topt)));
        assert!(matches!(parse_policy("popt"), Ok(PolicySpec::Popt { .. })));
        assert!(matches!(parse_policy("belady"), Ok(PolicySpec::Belady)));
        assert!(matches!(parse_policy("opt"), Ok(PolicySpec::Belady)));
        assert!(parse_policy("what").is_err());
    }

    #[test]
    fn every_policy_kind_round_trips_through_the_shared_parser() {
        for kind in PolicyKind::ALL {
            let label = kind.label();
            assert_eq!(parse_policy_kind(label), Some(kind), "{label}");
            let cli = label.to_ascii_lowercase();
            assert_eq!(parse_policy_kind(&cli), Some(kind), "{cli}");
        }
        assert_eq!(parse_policy_kind("bit-plru"), Some(PolicyKind::BitPlru));
        assert_eq!(parse_policy_kind("opt"), None);
        assert_eq!(parse_policy_kind("topt"), None);
    }

    #[test]
    fn record_then_info_then_replay_round_trips() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/trace-cmd");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("pr-urand.trc");
        record_main(
            ["--app", "pr", "--graph", "urand", "--out"]
                .iter()
                .map(|s| s.to_string())
                .chain([out.display().to_string()])
                .collect(),
        )
        .unwrap();
        info_main(vec![out.display().to_string(), "--verify".to_string()]).unwrap();
        replay_main(
            ["--app", "pr", "--graph", "urand", "--policies", "lru,drrip"]
                .iter()
                .map(|s| s.to_string())
                .chain([out.display().to_string()])
                .collect(),
        )
        .unwrap();
        // The replayed stats match a direct kernel-driven simulation, for
        // Belady too.
        let g = suite_graph(SuiteGraph::Urand, Scale::Tiny.suite());
        let cfg = Scale::Tiny.config();
        let specs = [PolicySpec::Baseline(PolicyKind::Lru), PolicySpec::Belady];
        let llcs: Vec<_> = specs.iter().map(|spec| (&cfg, spec)).collect();
        let (run, stats) = group_file(&out, App::Pagerank, &g, &cfg, &llcs).unwrap();
        assert_eq!(
            stats.chunks_decoded,
            trace_info(&out).unwrap().chunks.len() as u64
        );
        for (spec, member) in specs.iter().zip(run.members) {
            let direct = crate::runner::simulate(App::Pagerank, &g, &cfg, spec);
            let replayed = member_stats(member, Feed::Kernel(App::Pagerank), spec);
            assert_eq!(replayed, direct, "replay is bit-identical to execution");
        }
    }
}
