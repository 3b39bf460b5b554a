//! # sdalloc-rr — the multicast request–response suppression protocol
//!
//! Section 3 of the paper: when a clash (or any multicast "request")
//! could draw a response from every group member, how should responders
//! randomise their delays so that only a few actually send, without
//! waiting too long for the first one?
//!
//! * [`analytic`] — the bucket-model upper bounds on the expected number
//!   of responders, for uniform (Equation 2, Figure 14) and exponential
//!   (Equations 3–4, Figure 18) delay distributions, in numerically
//!   stable O(d) closed form.
//! * [`sim`] — the full simulation over Doar-style topologies with
//!   source-based or shared-tree routing, distance-proportional delays,
//!   optional queueing jitter, and real suppression (Figures 15, 16, 19).
//!
//! ```
//! use sdalloc_rr::analytic::{expected_responses_uniform, expected_responses_exponential};
//!
//! // 12 800 receivers, a 51.2 s window at 200 ms RTT = 256 buckets:
//! let uniform = expected_responses_uniform(12_800, 256);
//! let exponential = expected_responses_exponential(12_800, 256);
//! assert!(exponential < 3.0 && uniform > exponential);
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

pub mod analytic;
pub mod responder;
pub mod sim;

pub use analytic::{
    buckets, expected_responses_exponential, expected_responses_uniform, EXPONENTIAL_FLOOR,
};
pub use responder::{responder_step, ResponderState, RrEvent, RrOutput};
pub use sim::{
    run_many, trace_fingerprint, DelayDist, Population, RrAggregate, RrOutcome, RrParams, RrSim,
    RrTrace, TraceEvent, TreeMode,
};
