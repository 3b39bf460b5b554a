//! # sdalloc-runtime — the production runtime
//!
//! Everything below `crates/sap` is a *protocol engine*: a pure state
//! machine (`SessionDirectory`) that maps `(now, packet | timer)` to
//! emitted packets, driven so far by the discrete-event simulator.  This
//! crate is the other half of a deployable session directory: threads,
//! sockets, and a way for many concurrent queries ("which sessions are
//! visible?", "is this group in use?") to proceed while the protocol
//! thread keeps ingesting announcements.
//!
//! Three pieces:
//!
//! * **Driver** ([`AgentDriver`], [`Runtime`]) — one thread per agent,
//!   each owning its directory, sleeping until the engine's
//!   `next_deadline` or socket readability, generic over
//!   [`sdalloc_sap::SapTransport`]: real UDP multicast
//!   ([`sdalloc_sap::SapSocket`]) or the in-process [`LoopbackBus`].
//! * **Loopback bus** ([`LoopbackBus`]) — a multicast scope made of
//!   queues, with [`sdalloc_sim::FaultPlan`] applied per (packet, link)
//!   exactly like the simulator's testbed, so chaos scenarios run
//!   unmodified against real threads; deterministic under a
//!   [`VirtualClock`] with a single agent, which the differential
//!   fingerprint tests exploit.
//! * **Snapshot read path** ([`SnapshotPublisher`], [`SnapshotReader`])
//!   — whenever its cache has changed, as often as a fixed share of its
//!   loop pays for, the writer brings an immutable
//!   [`DirectorySnapshot`] up to date and publishes it with one pointer swap
//!   through a `Mutex<Arc<_>>` cell ([`crossbeam::epoch::ArcSwap`]);
//!   a reader's load is one refcount increment, allocation-free, and no
//!   snapshot is freed while a reader holds it.  Each row carries a
//!   checksum so stress tests can prove reads are never torn.
//!
//! The [`soak`] module packages the chaos scenario (crash/restart under
//! reader load) that `experiments chaos` and `scripts/check.sh` gate on.

pub mod bus;
pub mod clock;
pub mod driver;
// Panic scope (DESIGN 4a): this module runs inside every reader thread.
#[warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
pub mod snapshot;
pub mod soak;

pub use bus::{BusEndpoint, BusStats, LoopbackBus};
pub use clock::{Clock, VirtualClock, WallClock};
pub use driver::{AgentDriver, AgentExit, DriverConfig, RetryPolicy, Runtime};
pub use snapshot::{
    DirectorySnapshot, SessionRow, SnapshotCadence, SnapshotHandle, SnapshotPublisher,
    SnapshotReader, SnapshotStats,
};
pub use soak::{run_soak, SoakConfig, SoakReport};
