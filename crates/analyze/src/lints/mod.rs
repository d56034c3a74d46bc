//! The lint passes, each enforcing one P-OPT correctness invariant.
//!
//! Every pass works on the token stream of one file ([`SourceFile`]) or,
//! for the registry pass, on the policies directory as a whole. Passes
//! return raw [`Diagnostic`](crate::Diagnostic)s; allowlisting is applied by the driver in
//! [`crate::run_check`].

pub mod casts;
pub mod determinism;
pub mod panics;
pub mod registry;

use crate::config::glob_matches;
use crate::lexer::Token;

/// One lexed workspace file plus its test-region mask.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Token stream (comments/whitespace dropped).
    pub tokens: Vec<Token>,
    /// Parallel mask: `true` where the token is inside test-only code.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` and computes its test mask.
    pub fn new(rel_path: String, source: &str) -> SourceFile {
        let tokens = crate::lexer::lex(source);
        let test_mask = crate::regions::test_mask(&tokens);
        SourceFile {
            rel_path,
            tokens,
            test_mask,
        }
    }

    /// True when this file matches any of `patterns` (single-segment `*`
    /// globs, workspace-relative).
    pub fn matches_any(&self, patterns: &[String]) -> bool {
        patterns.iter().any(|p| glob_matches(p, &self.rel_path))
    }
}

/// Static description of a lint, for `popt-analyze lints`.
pub struct LintInfo {
    /// Stable kebab-case name used in diagnostics and `analyze.toml`.
    pub name: &'static str,
    /// Default severity.
    pub severity: crate::diag::Severity,
    /// One-paragraph rationale.
    pub rationale: &'static str,
}

/// Every lint this analyzer knows, in report order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "hot-path-panic",
        severity: crate::diag::Severity::Deny,
        rationale: "Replacement decisions and next-reference lookups must not contain \
                    unwrap()/expect()/panic!-family calls: a panic swallowed (or unwound) \
                    mid-simulation corrupts every MPKI number downstream. Fallible paths \
                    return the crate error types instead.",
    },
    LintInfo {
        name: "hot-path-index",
        severity: crate::diag::Severity::Warn,
        rationale: "Slice indexing in hot paths can panic on a bad set/way computation. \
                    Reported as a warning because set-geometry indexing is bounds-asserted \
                    at construction and a checked accessor in the per-access loop is a \
                    measured cost; raise to deny per-file via review if geometry ever \
                    becomes dynamic.",
    },
    LintInfo {
        name: "lossy-cast",
        severity: crate::diag::Severity::Deny,
        rationale: "P-OPT stores next-reference epochs in 4/8/16-bit counters; a silent \
                    `as u8`-style truncation wraps at 256 epochs and skews every figure. \
                    Inside popt-core and popt-sim, narrowing `as` casts must go through \
                    popt_core::cast (narrow/exact/saturate) or TryFrom.",
    },
    LintInfo {
        name: "unregistered-policy",
        severity: crate::diag::Severity::Deny,
        rationale: "Every module under the policies directory must be declared and \
                    re-exported in policies/mod.rs, and every PolicyKind variant must \
                    appear in PolicyKind::ALL, label(), and build(). A policy file that \
                    exists but is not wired in silently vanishes from the oracle matrix.",
    },
    LintInfo {
        name: "matrix-test-not-exhaustive",
        severity: crate::diag::Severity::Deny,
        rationale: "The policy fuzz/oracle tests must iterate PolicyKind::ALL (not a \
                    hand-maintained list) so a newly registered policy is automatically \
                    exercised.",
    },
    LintInfo {
        name: "hashmap-in-ordered-path",
        severity: crate::diag::Severity::Deny,
        rationale: "Trace emission, stats aggregation, results writers, and the service \
                    response serializers feed golden files and byte-stable API bodies; \
                    HashMap/HashSet iteration order (and RandomState/DefaultHasher, which \
                    smuggle the same ordering in through a hasher parameter) varies per \
                    process and breaks byte-identical replays. Use BTreeMap/BTreeSet or \
                    sort explicitly.",
    },
    LintInfo {
        name: "unseeded-rng",
        severity: crate::diag::Severity::Deny,
        rationale: "All randomness outside popt-graph::generators must be explicitly \
                    seeded: thread_rng()/from_entropy() make traces and simulations \
                    unreproducible.",
    },
];
