//! `cargo xtask` — the workspace's own static-analysis tool.
//!
//! * `cargo xtask check` — run the lexical lint pass and the invariant
//!   verifier; exit non-zero if either finds a violation.
//! * `cargo xtask lint` — lexical lint pass only.
//! * `cargo xtask invariants` — invariant verifier only.
//! * `cargo xtask model` — bounded explicit-state model checking of the
//!   clash and request–response protocols (`--smoke` for the
//!   depth-limited CI slice).
//!
//! No external dependencies: the lint pass is a line scanner, and the
//! verifier and model checker drive the real `sdalloc-core` /
//! `sdalloc-rr` artifacts.  Panic-freedom, checked casts and
//! allocation-free hot paths are enforced by clippy, types and the
//! counting-allocator tests instead; see DESIGN.md "Static analysis
//! and verification".

mod invariants;
mod lint;
mod model;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask [check|lint|invariants|model [--smoke]]";

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map_or(manifest.clone(), PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map_or("check", String::as_str);
    match mode {
        "check" => run(true, true),
        "lint" => run(true, false),
        "invariants" => run(false, true),
        "model" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            if model::run(smoke) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "help" | "--help" | "-h" => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`; {USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(do_lint: bool, do_invariants: bool) -> ExitCode {
    let mut failed = false;

    if do_lint {
        let (findings, scanned) = lint::run(&workspace_root());
        if findings.is_empty() {
            println!("lint: OK ({scanned} files scanned)");
        } else {
            failed = true;
            println!("lint: {} violation(s) in {scanned} files:", findings.len());
            for f in &findings {
                println!("  {f}");
            }
        }
    }

    if do_invariants {
        let report = invariants::run();
        if report.failures.is_empty() {
            println!("invariants: OK ({} checks)", report.checks);
        } else {
            failed = true;
            println!(
                "invariants: {} of {} checks FAILED:",
                report.failures.len(),
                report.checks
            );
            for f in &report.failures {
                println!("  {f}");
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
