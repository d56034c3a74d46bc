//! `graphgen` — generate, convert and inspect graph files.
//!
//! ```text
//! graphgen gen   <kind> <out.bin> [--scale N | --vertices N] [--edges M] [--seed S]
//! graphgen conv  <in> <out.bin>            # edge list / MatrixMarket / binary -> binary
//! graphgen stats <path>                    # Table III-style summary
//! graphgen trace <path> <app> <out.trc>    # record an app's access trace
//! graphgen reref <path> <out.rrm> [--pull|--push] [--bits N]
//!                                           # precompute a Rereference Matrix
//! ```
//!
//! `kind` ∈ {urand, kron, powerlaw, community, mesh}. The binary format is
//! `popt_graph::io::write_binary`; traces are `POPTTRC2` files written by
//! `popt_tracestore::ChunkWriter`. A numeric flag whose value does not
//! parse or is out of range prints the usage and exits nonzero.

use popt_cli::numeric_flag;
use popt_cli::trace_cmd::parse_app;
use popt_graph::{generators, io, stats, Graph};
use popt_tracestore::ChunkWriter;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  graphgen gen <urand|kron|powerlaw|community|mesh> <out> \
         [--scale N|--vertices N] [--edges M] [--seed S]\n  graphgen conv <in> <out>\n  \
         graphgen stats <path>\n  graphgen trace <path> <pr|cc|pr-delta|radii|mis> <out>\n  \
         graphgen reref <path> <out.rrm> [--push] [--bits N]"
    );
    ExitCode::FAILURE
}

fn generate(kind: &str, args: &[String]) -> Result<Graph, String> {
    let seed = numeric_flag(args, "--seed", 42, ..)?;
    // `generators::rmat` asserts scale < 32 (vertex ids are u32).
    let scale = numeric_flag(args, "--scale", 16, 0..32)?;
    let vertices: usize = numeric_flag(args, "--vertices", 1 << scale, 1..)?;
    let edges = numeric_flag(args, "--edges", vertices.saturating_mul(4), ..)?;
    match kind {
        "urand" => Ok(generators::uniform_random(vertices, edges, seed)),
        "kron" => Ok(generators::rmat(
            scale,
            edges,
            generators::RmatParams::KRONECKER,
            seed,
        )),
        "powerlaw" => Ok(generators::rmat(
            scale,
            edges,
            generators::RmatParams::POWER_LAW,
            seed,
        )),
        "community" => {
            let communities = numeric_flag(args, "--communities", 64, 1..)?;
            Ok(generators::community(
                vertices,
                edges,
                communities,
                0.95,
                seed,
            ))
        }
        "mesh" => {
            let side = (vertices as f64).sqrt() as usize;
            Ok(generators::mesh(side.max(2), 0, seed))
        }
        other => Err(format!("unknown graph kind {other}")),
    }
}

/// Reports `msg` and the usage text, returning the failure exit code.
fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    usage()
}

fn print_stats(g: &Graph) {
    let s = stats::graph_stats(g);
    println!("vertices      {}", s.num_vertices);
    println!("edges         {}", s.num_edges);
    println!("avg degree    {:.2}", s.average_degree);
    println!("max out-deg   {}", s.max_out_degree);
    println!("max in-deg    {}", s.max_in_degree);
    println!("degree gini   {:.3}", s.degree_gini);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") if args.len() >= 3 => {
            let g = match generate(&args[1], &args[3..]) {
                Ok(g) => g,
                Err(msg) => return fail(&msg),
            };
            let file = match std::fs::File::create(&args[2]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[2]);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = io::write_binary(&g, file) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            print_stats(&g);
            ExitCode::SUCCESS
        }
        Some("conv") if args.len() == 3 => {
            let g = match io::read_path(&args[1]) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            let file = match std::fs::File::create(&args[2]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[2]);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = io::write_binary(&g, file) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            print_stats(&g);
            ExitCode::SUCCESS
        }
        Some("stats") if args.len() == 2 => match io::read_path(&args[1]) {
            Ok(g) => {
                print_stats(&g);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", args[1]);
                ExitCode::FAILURE
            }
        },
        Some("trace") if args.len() == 4 => {
            let g = match io::read_path(&args[1]) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            let Some(app) = parse_app(&args[2]) else {
                eprintln!("unknown app {}", args[2]);
                return ExitCode::FAILURE;
            };
            let file = match std::fs::File::create(&args[3]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[3]);
                    return ExitCode::FAILURE;
                }
            };
            let plan = app.plan(&g);
            let meta = format!("graphgen trace {} {}", args[1], app.name());
            let mut writer = match ChunkWriter::create(file, &plan.space, &meta) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("cannot start trace: {e}");
                    return ExitCode::FAILURE;
                }
            };
            app.trace(&g, &plan, &mut writer);
            let summary = match writer.finish() {
                Ok((_, summary)) => summary,
                Err(e) => {
                    eprintln!("trace flush failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{} events written to {}", summary.events, args[3]);
            ExitCode::SUCCESS
        }
        Some("reref") if args.len() >= 3 => {
            // The paper's amortization story (Section VII-D): the matrix is
            // algorithm agnostic — build it once per graph and reuse it
            // across applications.
            // Checked before `Quantization::new`, which asserts the range.
            let bits = match numeric_flag(&args[3..], "--bits", 8, 2..=16) {
                Ok(bits) => bits,
                Err(msg) => return fail(&msg),
            };
            let g = match io::read_path(&args[1]) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            let push = args.iter().any(|a| a == "--push");
            let transpose = if push { g.in_csr() } else { g.out_csr() };
            let quant = popt_core::Quantization::new(bits);
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let (matrix, report) = popt_core::preprocess::timed_build(
                transpose,
                16,
                1,
                quant,
                popt_core::Encoding::InterIntra,
                threads,
            );
            let file = match std::fs::File::create(&args[2]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[2]);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = popt_core::serialize::write_matrix(&matrix, file) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "built in {:.1} ms ({} threads): {} lines x {} epochs, column {} KB, total {} KB",
                report.duration.as_secs_f64() * 1000.0,
                report.threads,
                matrix.num_lines(),
                matrix.num_epochs(),
                matrix.column_bytes() / 1024,
                matrix.total_bytes() / 1024,
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
