//! # sdalloc — Session Directories and Scalable Internet Multicast Address Allocation
//!
//! A full Rust reproduction of Mark Handley's SIGCOMM 1998 paper: the
//! sdr-style session directory, the IPRMA family of multicast address
//! allocation algorithms, the clash detection/recovery protocol, the
//! multicast request–response suppression analysis, and every substrate
//! they need (discrete-event simulation, an Mbone-like topology with
//! DVMRP routing and TTL scoping, SAP/SDP).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event engine, RNG, channel models
//! * [`topology`] — Mbone map, Doar generator, routing, scope zones
//! * [`sap`] — SDP/SAP wire formats, announce/listen engine, transports
//! * [`core`] — the allocation algorithms and analytic models
//! * [`rr`] — request–response suppression (analytics + simulation)
//! * [`runtime`] — threaded multi-agent driver, snapshot reads
//! * [`experiments`] — per-figure experiment runners
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the
//! `experiments` binary to regenerate every figure of the paper.

pub use sdalloc_core as core;
pub use sdalloc_experiments as experiments;
pub use sdalloc_rr as rr;
pub use sdalloc_runtime as runtime;
pub use sdalloc_sap as sap;
pub use sdalloc_sim as sim;
pub use sdalloc_topology as topology;
