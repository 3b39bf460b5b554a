//! # sdalloc-core — scalable multicast address allocation
//!
//! The paper's primary contribution: fully distributed multicast address
//! allocation driven by session-directory announcements, under TTL
//! scoping.  This crate implements every algorithm the paper describes
//! or evaluates:
//!
//! | Algorithm | Type | Paper section |
//! |---|---|---|
//! | `R` ([`RandomAllocator`]) | pure random baseline | §2.2 |
//! | `IR` ([`InformedRandomAllocator`]) | avoid visible addresses | §2.2 |
//! | `IPR 3/7-band` ([`StaticIpr`]) | static TTL partitions | §2.1–2.2 |
//! | `AIPR-1..4` ([`AdaptiveIpr`]) | deterministic adaptive partitions | §2.4–2.6 |
//! | `AIPR-H` ([`AdaptiveIpr::hybrid`]) | IPR-7/adaptive hybrid | §2.6 |
//!
//! plus the closed-form models ([`analytic`]: Figures 4 and 6, the §2.3
//! operating point), the TTL→partition map of Figure 11
//! ([`partition_map`]), the three-phase clash detection/recovery
//! protocol of Section 3 ([`clash`]), and the Section 4.1 hierarchical
//! prefix-allocation proposal, concretised ([`hier`]).
//!
//! Allocators are pure functions of the *view* — the `(address, TTL)`
//! pairs visible in the local session directory cache — so the same code
//! runs inside the Mbone-scale simulations (`sdalloc-experiments`) and a
//! real SAP announcer (`sdalloc-sap`).
//!
//! ```
//! use sdalloc_core::{AddrSpace, AdaptiveIpr, Allocator, View, VisibleSession, Addr};
//! use sdalloc_sim::SimRng;
//!
//! let space = AddrSpace::sdr_dynamic();
//! let alloc = AdaptiveIpr::aipr3();
//! let cache = [VisibleSession::new(Addr(32_000), 127)];
//! let view = View::new(&cache);
//! let mut rng = SimRng::new(42);
//! let addr = alloc.allocate(&space, 127, &view, &mut rng).expect("space not full");
//! assert_ne!(addr, Addr(32_000));
//! println!("allocated {}", space.ip(addr));
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

pub mod adaptive;
pub mod addr;
pub mod alloc;
pub mod analytic;
pub mod clash;
pub mod hier;
pub mod partition_map;
pub mod static_ipr;
pub mod view;

pub use adaptive::{AdaptiveIpr, BandMap};
pub use addr::{Addr, AddrSpace};
pub use alloc::{AllocOutcome, Allocator, InformedRandomAllocator, RandomAllocator};
pub use clash::{
    clash_step, ClashAction, ClashEvent, ClashPolicy, ClashResponder, ClashState, Incumbent,
    PendingDefense, SessionId,
};
pub use hier::{HierarchicalAllocator, Prefix, PrefixRegistry, GLOBAL_DOMAIN};
pub use partition_map::{PartitionMap, TtlPartition};
pub use static_ipr::StaticIpr;
pub use view::{View, VisibleSession};
