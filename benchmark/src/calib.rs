//! Host-speed calibration.
//!
//! The 2-vCPU guests this benchmark runs on alternate, for tens of
//! seconds at a time, between an undisturbed state and one in which
//! wide-issue code — allocation, copying, parsing: what a session
//! directory does per packet — runs a third to a half slower, while
//! latency-bound and memory-bound code is untouched (README,
//! "Steadiness"; it looks like a neighbour on the sibling hardware
//! thread).  Whole runs fall into either state, so no statistic inside a
//! run removes it.
//!
//! What helps is a yardstick: a fixed kernel of the same character,
//! which is no code of the product's, timed right before and after each
//! slice of the `saturate` phase and each set-up.  The measured time is
//! then scaled by `reference / yardstick`: it is reported as it would
//! read on a host that runs the kernel at [`REFERENCE_NS`] per round.  On
//! a steady host the factor is a constant, the same for a parent commit
//! and its change.  Only `setup_s` and the per-layer
//! `driver.ingest_per_s` are scaled.  The host slows other code by other
//! factors (README, "Steadiness"), so the scaling narrows the run-to-run
//! spread of those two and does not remove it; that is why no figure
//! that is purely time on a CPU is an end-to-end metric.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// The kernel's time per round on the host class this was written on
/// (2.1 GHz Xeon guest), undisturbed.
pub const REFERENCE_NS: f64 = 22.0;

/// One round: two small heap blocks allocated and freed — the
/// allocator's fast path, nothing but short dependent-free instruction
/// runs.  Measured against the ingest path of `steady_1k` over 3 000
/// slices, the disturbed state slows this kernel 1.50× and the ingest
/// path 1.48×.
#[inline(never)]
fn round(i: u64) {
    let v: Vec<u8> = Vec::with_capacity(100 + (i & 63) as usize);
    let s = String::with_capacity(150);
    black_box((&v, &s));
}

/// Time the kernel for about `budget`; ns per round (median of batches).
pub fn sample(budget: Duration) -> f64 {
    let mut per_round = Samples::default();
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let t = Instant::now();
        for _ in 0..256 {
            round(i);
            i += 1;
        }
        per_round.push(t.elapsed().as_nanos() as f64 / 256.0);
        if start.elapsed() >= budget {
            return per_round.median();
        }
    }
}

/// A time measured while the yardstick read `yardstick_ns`, as it would
/// read at the reference host speed.
pub fn at_reference_speed(measured: f64, yardstick_ns: f64) -> f64 {
    measured * REFERENCE_NS / yardstick_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_positive_and_scaling_undoes_a_slow_host() {
        let ns = sample(Duration::from_millis(2));
        assert!(ns > 0.0 && ns.is_finite());
        assert_eq!(at_reference_speed(300.0, REFERENCE_NS), 300.0);
        assert_eq!(at_reference_speed(300.0, REFERENCE_NS * 1.5), 200.0);
    }
}
