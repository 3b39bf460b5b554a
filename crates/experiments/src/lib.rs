//! # sdalloc-experiments — the paper's evaluation, regenerated
//!
//! One runner per table and figure of the paper, built on the other
//! workspace crates:
//!
//! | Module | Figures |
//! |---|---|
//! | [`analytic_figs`] | 4 (birthday), 6 (Eq 1), 10 (hop counts + TTL table), 11 (partition map), §2.3 numbers |
//! | [`fill`], [`alloc_figs`] | 5 (fill until clash) |
//! | [`steady`], [`alloc_figs`] | 12, 13 (steady-state adaptive capacity) |
//! | [`rr_figs`] | 14, 15, 16, 18, 19 (request–response suppression) |
//! | [`ext_hier`] | extension E1: §4.1 flat vs hierarchical allocation |
//! | [`eq1_sim`] | Monte-Carlo validation of Equation 1 against the closed form |
//! | [`chaos`] | fault-injection scenario matrix: partition/heal, crash/restart, burst loss, storms, allocator exhaustion |
//! | [`telemetry_report`] | `experiments report`: folds the `TELEMETRY_*.json` / `BENCH_scale.json` sidecars into `REPORT.md` |
//!
//! The `experiments` binary prints each figure's series as aligned
//! tables and optionally CSV; `--quick` (default) uses reduced grids,
//! `--full` the paper-scale ones.

#![warn(missing_docs)]

pub mod alloc_figs;
pub mod analytic_figs;
// Panic scope (DESIGN 4a): this module runs inside the check.sh gate.
#[warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
pub mod chaos;
pub mod eq1_sim;
pub mod ext_hier;
pub mod fill;
pub mod report;
pub mod rr_figs;
pub mod steady;
pub mod telemetry_report;
pub mod world;
