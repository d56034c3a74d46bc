//! One module per paper table/figure. Every `run(session, scale)` submits
//! its cells to the session and returns the tables to emit; the binary
//! writes them to `results/`.

pub mod extensions;
pub mod fig02_baseline_mpki;
pub mod fig04_topt_mpki;
pub mod fig07_encodings;
pub mod fig10_main;
pub mod fig11_graph_size;
pub mod fig12_prior_work;
pub mod fig13_tiling;
pub mod fig14_pb_phi;
pub mod fig15_quantization;
pub mod fig16_llc_sensitivity;
pub mod tables;

use crate::exec::Session;
use crate::table::Table;
use crate::Scale;
use std::path::Path;

/// One registered experiment driver.
pub type Runner = fn(&Session, Scale) -> Vec<Table>;

/// Registered experiments in emission order: (name, description, runner).
pub const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    ("table1", "simulation parameters", tables::table1),
    ("table2", "application inventory", tables::table2),
    ("table3", "input graph inventory", tables::table3),
    ("table4", "P-OPT preprocessing cost", tables::table4),
    (
        "fig2",
        "baseline policies MPKI (PR)",
        fig02_baseline_mpki::run,
    ),
    ("fig4", "T-OPT MPKI (PR)", fig04_topt_mpki::run),
    ("fig7", "Rereference Matrix encodings", fig07_encodings::run),
    (
        "fig10",
        "main result: speedups + miss reductions",
        fig10_main::run,
    ),
    (
        "fig11",
        "graph-size scaling: P-OPT vs P-OPT-SE",
        fig11_graph_size::run,
    ),
    (
        "fig12",
        "prior work: GRASP and HATS-BDFS",
        fig12_prior_work::run,
    ),
    ("fig13", "CSR-segmenting interaction", fig13_tiling::run),
    ("fig14", "PB and PHI interaction", fig14_pb_phi::run),
    ("fig15", "quantization sensitivity", fig15_quantization::run),
    (
        "fig16",
        "LLC size/associativity sensitivity",
        fig16_llc_sensitivity::run,
    ),
    (
        "ext1",
        "extension: parallel execution (Sec V-F)",
        extensions::ext_parallel,
    ),
    (
        "ext2",
        "extension: matrix-driven prefetching (Sec VIII)",
        extensions::ext_prefetch,
    ),
    (
        "ext3",
        "extension: full policy zoo incl. SDBP + OPT",
        extensions::ext_zoo,
    ),
    (
        "ext4",
        "extension: context switches (Sec V-F)",
        extensions::ext_context_switch,
    ),
    (
        "ext5",
        "extension: P-OPT tie-break ablation",
        extensions::ext_tiebreak,
    ),
    (
        "ext6",
        "extension: huge-page requirement (Sec V-B)",
        extensions::ext_hugepage,
    ),
];

/// Looks up a registered experiment, resolving the `fig12a`/`fig12b`
/// aliases to the combined `fig12` module.
pub fn find_experiment(name: &str) -> Option<&'static (&'static str, &'static str, Runner)> {
    let canonical = match name {
        "fig12a" | "fig12b" => "fig12",
        other => other,
    };
    EXPERIMENTS.iter().find(|(n, _, _)| *n == canonical)
}

/// Writes a driver's tables under the historical naming scheme: a single
/// table is `name.{csv,txt}`, multiple become `name_a`, `name_b`, ...
///
/// # Errors
///
/// Propagates file-write failures.
pub fn emit_tables(tables: &[Table], out: &Path, name: &str) -> std::io::Result<()> {
    for (suffix, table) in ('a'..='z').zip(tables.iter()) {
        let file = if tables.len() == 1 {
            name.to_string()
        } else {
            format!("{name}_{suffix}")
        };
        table.emit(out, &file)?;
    }
    Ok(())
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
