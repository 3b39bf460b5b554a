//! # sdalloc-sim — discrete-event simulation engine
//!
//! The substrate beneath every experiment in this workspace: a
//! deterministic discrete-event simulator with virtual time, a
//! reproducible random number generator, channel impairment models
//! (loss, delay, jitter) and the statistics helpers the paper's
//! methodology calls for (median filtering, clash-probability crossing
//! detection, histograms).
//!
//! Everything is seeded and integer-timed, so any figure in the paper
//! reproduction can be regenerated bit-for-bit from its seed.
//!
//! ```
//! use sdalloc_sim::{Simulator, SimTime, SimDuration};
//!
//! let mut sim = Simulator::new();
//! sim.context().schedule_at(SimTime::from_secs(1), "hello");
//! let mut log = Vec::new();
//! sim.run(|ctx, msg| {
//!     log.push((ctx.now(), msg));
//!     if msg == "hello" {
//!         ctx.schedule_after(SimDuration::from_secs(2), "world");
//!     }
//! });
//! assert_eq!(log.len(), 2);
//! assert_eq!(log[1].0, SimTime::from_secs(3));
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

pub mod channel;
pub mod engine;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod suppression;
pub mod time;
pub mod timer;

pub use channel::{Channel, DelayModel, LossModel, Transmission};
pub use engine::{SimContext, Simulator};
pub use faults::{
    CorruptWindow, CorruptionMode, CrashEvent, FaultPlan, LossWindow, PartitionWindow, Storm,
};
pub use rng::SimRng;
pub use stats::{first_crossing, median, median_filter, quantile, Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use timer::{ShardToken, ShardedTimerQueue, TimerQueue, TimerToken};
