//! # sdalloc-sap — the Session Announcement Protocol substrate
//!
//! Everything "session directory" in the paper: SDP-lite session
//! descriptions ([`sdp`]), the SAP v1 wire format ([`wire`]), the
//! announce/listen cache ([`cache`]), the exponential back-off
//! announcement schedule the paper's conclusions demand ([`schedule`]),
//! and the full sdr-alike engine ([`directory`]) that couples those to
//! an address allocator from `sdalloc-core` and the three-phase clash
//! recovery protocol.
//!
//! Category-partitioned announcement channels (the paper's Section 4
//! scaling mechanism) live in [`categories`].
//!
//! The engine is sans-IO and this crate spawns no threads below it:
//! * [`testbed`] — an in-memory multicast scope over the discrete-event
//!   simulator, with loss, delay and network partitions;
//! * [`net`] — the [`SapTransport`] seam and its real UDP multicast
//!   implementation via `std::net`.  Binding a directory to a
//!   transport, a clock and a thread is `sdalloc-runtime`'s job — no
//!   threads below `crates/runtime`.
//!
//! ```
//! use sdalloc_sap::directory::{DirectoryConfig, SessionDirectory};
//! use sdalloc_sap::sdp::Media;
//! use sdalloc_core::AdaptiveIpr;
//! use sdalloc_sim::{SimRng, SimTime};
//! use std::net::Ipv4Addr;
//!
//! let cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
//! let mut sdr = SessionDirectory::new(cfg, Box::new(AdaptiveIpr::aipr3()));
//! let mut rng = SimRng::new(7);
//! let media = vec![Media { kind: "audio".into(), port: 5004, proto: "RTP/AVP".into(), format: 0 }];
//! sdr.create_session(SimTime::ZERO, "team meeting", 63, media, &mut rng).unwrap();
//! let packets = sdr.poll(SimTime::ZERO);
//! assert_eq!(packets.len(), 1); // the first announcement, ready to send
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

pub mod cache;
pub mod categories;
pub mod directory;
pub mod net;
pub mod schedule;
pub mod sdp;
pub mod slab;
pub mod testbed;
pub mod wire;

pub use cache::{AnnouncementCache, CacheKey, CacheUpdate, EntryRef, DIGEST_BUCKETS, TTL_BANDS};
pub use directory::{
    CreateError, DirectoryConfig, DirectoryEvent, GovernorConfig, ReconcileConfig,
    SessionDirectory, TimerKind,
};
pub use net::{SapSocket, SapTransport};
pub use schedule::BackoffSchedule;
pub use sdp::{DescRef, Media, MediaRef, Origin, OriginRef, SdpError, SessionDescription};
pub use slab::{Interner, SessionHandle, SessionId, Slab, Sym};
pub use wire::{
    CacheDigest, MessageType, ReconMessage, ReconcileRequest, SapFrame, SapPacket, WireError,
    SAP_GROUP, SAP_PORT,
};
