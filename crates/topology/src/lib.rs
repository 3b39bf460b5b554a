//! # sdalloc-topology — the multicast network substrate
//!
//! Models everything the paper's simulations need from the network:
//!
//! * a topology graph of mrouters and links carrying DVMRP metrics, TTL
//!   thresholds and propagation delays ([`graph`]);
//! * DVMRP-style per-source shortest-path trees and CBT/PIM-style shared
//!   trees, with exact hop-by-hop TTL-decrement + threshold semantics
//!   ([`routing`]);
//! * scope-zone queries — who hears a session, do two sessions clash —
//!   with bitset-backed caching ([`scope`], [`nodeset`]);
//! * a synthetic 1864-node Mbone map replacing the paper's mcollect data
//!   ([`mbone`]), and the Doar-style generator used by the
//!   request–response simulations ([`doar`]);
//! * hop-count analysis for Figure 10 and its TTL table ([`hopcount`]);
//! * administrative scope zones with RFC 2365 nesting/convexity
//!   invariants ([`admin`]);
//! * a text map format for loading measured topologies ([`mapfile`]);
//! * the ds1–ds4 session TTL workload distributions ([`workload`]).
//!
//! ```
//! use sdalloc_topology::mbone::{MboneMap, MboneParams};
//! use sdalloc_topology::scope::{Scope, ScopeCache};
//!
//! let map = MboneMap::generate(&MboneParams { seed: 1, target_nodes: 200 });
//! let mut scopes = ScopeCache::new(map.topo.clone());
//! let uk_backbone = map.countries.iter().find(|c| c.name == "uk").unwrap().backbone[0];
//! // A UK-national session is invisible outside the UK...
//! let national = Scope::new(uk_backbone, 47);
//! assert!(scopes.zone_size(national) < map.topo.node_count());
//! // ...but a global session from anywhere overlaps (clashes with) it.
//! let global = Scope::new(sdalloc_topology::graph::NodeId(0), 191);
//! assert!(scopes.zones_overlap(national, global));
//! ```

#![warn(missing_docs)]
// Panic scope (DESIGN 4a): a long-running daemon degrades, it does not
// abort.  `scripts/check.sh` denies these; tests are exempt (clippy.toml).
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod admin;
pub mod doar;
pub mod graph;
pub mod hopcount;
pub mod mapfile;
pub mod mbone;
pub mod nodeset;
pub mod routing;
pub mod scope;
pub mod workload;

pub use admin::{AdminScoping, AdminZone, ZoneId};
pub use graph::{Link, LinkId, Node, NodeId, Topology, DVMRP_INFINITY};
pub use nodeset::NodeSet;
pub use routing::{SharedTree, SourceTree, SptCache, TTL_UNREACHABLE};
pub use scope::{Scope, ScopeCache};
pub use workload::TtlDistribution;
