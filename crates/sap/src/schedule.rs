//! Announcement timing.
//!
//! The paper's conclusion places a hard requirement on the announcement
//! schedule: "The session announcement rate must be non-uniform …
//! Optimally, it should start from a high announcement rate (say a 5
//! second interval) and exponentially back off the rate until a low
//! background rate is reached."  Front-loading repeats drives the mean
//! effective propagation delay (Section 2.3) from ~12 s down to ~0.3 s —
//! the difference between the `i = 0.001m` and `i = 0.00005m` curves of
//! Figure 6.
//!
//! The background rate is bandwidth-limited as in sdr/RFC 2974: all
//! announcers on a scope share a bandwidth budget, so the steady
//! interval grows with the number and size of announcements heard.

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use sdalloc_sim::{SimDuration, SimTime};

/// Exponential back-off announcement schedule.
///
/// ```
/// use sdalloc_sap::BackoffSchedule;
/// use sdalloc_sim::SimDuration;
/// let s = BackoffSchedule::default();
/// assert_eq!(s.interval_after(0), SimDuration::from_secs(5));   // fast start
/// assert_eq!(s.interval_after(20), SimDuration::from_mins(10)); // settles at the cap
/// ```
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    /// First repeat interval (paper: 5 s).
    pub initial: SimDuration,
    /// Multiplier applied to the interval after each send (paper:
    /// "exponentially backing off" — we use 2).
    pub factor: u32,
    /// Interval cap: the low background rate (sdr's default announcement
    /// period was ~5–10 minutes for a quiet scope).
    pub cap: SimDuration,
}

impl Default for BackoffSchedule {
    fn default() -> Self {
        BackoffSchedule {
            initial: SimDuration::from_secs(5),
            factor: 2,
            cap: SimDuration::from_mins(10),
        }
    }
}

impl BackoffSchedule {
    /// A constant-interval schedule (the pre-paper sdr behaviour, used
    /// as the ablation baseline).
    pub fn constant(interval: SimDuration) -> Self {
        BackoffSchedule {
            initial: interval,
            factor: 1,
            cap: interval,
        }
    }

    /// The interval to wait *after* the `n`-th transmission (n = 0 for
    /// the initial announcement).
    pub fn interval_after(&self, n: u32) -> SimDuration {
        let mut iv = self.initial;
        for _ in 0..n {
            iv = iv.saturating_mul(self.factor as u64);
            if iv >= self.cap {
                return self.cap;
            }
        }
        iv.min(self.cap)
    }

    /// Absolute send time of the `n`-th transmission given the first was
    /// at `start` (n = 0 → `start`).
    pub fn nth_time(&self, start: SimTime, n: u32) -> SimTime {
        let mut t = start;
        for k in 0..n {
            t += self.interval_after(k);
        }
        t
    }

    /// Mean effective announcement-propagation delay at this schedule's
    /// *initial* repeat spacing, per Section 2.3:
    /// `(1-loss)·delay + loss·repeat`.
    pub fn effective_initial_delay(&self, network_delay: SimDuration, loss: f64) -> SimDuration {
        network_delay.mul_f64(1.0 - loss) + self.interval_after(0).mul_f64(loss)
    }
}

/// Bandwidth-limited steady-state interval: with `n_sessions` sessions of
/// `bytes_each` announced on a scope sharing `limit_bits_per_sec`, each
/// session's announcement period must be at least
/// `n · size · 8 / limit` — but never below `floor`.
pub fn bandwidth_limited_interval(
    n_sessions: usize,
    bytes_each: usize,
    limit_bits_per_sec: f64,
    floor: SimDuration,
) -> SimDuration {
    assert!(limit_bits_per_sec > 0.0, "zero bandwidth budget");
    let total_bits = (n_sessions * bytes_each * 8) as f64;
    let secs = total_bits / limit_bits_per_sec;
    floor.max(SimDuration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_backoff_sequence() {
        let s = BackoffSchedule::default();
        // 5, 10, 20, 40, ... capped at 600.
        assert_eq!(s.interval_after(0), SimDuration::from_secs(5));
        assert_eq!(s.interval_after(1), SimDuration::from_secs(10));
        assert_eq!(s.interval_after(2), SimDuration::from_secs(20));
        assert_eq!(s.interval_after(6), SimDuration::from_secs(320));
        assert_eq!(s.interval_after(7), SimDuration::from_mins(10)); // 640 → cap
        assert_eq!(s.interval_after(100), SimDuration::from_mins(10));
    }

    #[test]
    fn nth_times_accumulate() {
        let s = BackoffSchedule::default();
        let t0 = SimTime::from_secs(100);
        assert_eq!(s.nth_time(t0, 0), t0);
        assert_eq!(s.nth_time(t0, 1), SimTime::from_secs(105));
        assert_eq!(s.nth_time(t0, 2), SimTime::from_secs(115));
        assert_eq!(s.nth_time(t0, 3), SimTime::from_secs(135));
    }

    #[test]
    fn constant_schedule() {
        let s = BackoffSchedule::constant(SimDuration::from_mins(10));
        for n in [0u32, 1, 5, 50] {
            assert_eq!(s.interval_after(n), SimDuration::from_mins(10));
        }
    }

    #[test]
    fn effective_delay_matches_paper() {
        // Constant 10-minute repeats: ~12.2 s effective delay.
        let slow = BackoffSchedule::constant(SimDuration::from_mins(10));
        let eff = slow.effective_initial_delay(SimDuration::from_millis(200), 0.02);
        assert!((eff.as_secs_f64() - 12.196).abs() < 0.01);
        // Exponential from 5 s: ~0.3 s.
        let fast = BackoffSchedule::default();
        let eff = fast.effective_initial_delay(SimDuration::from_millis(200), 0.02);
        assert!((eff.as_secs_f64() - 0.296).abs() < 0.01);
    }

    #[test]
    fn bandwidth_limit() {
        // 200 sessions × 500 bytes at 4 kbit/s → 200 s period.
        let iv = bandwidth_limited_interval(200, 500, 4_000.0, SimDuration::from_mins(5));
        assert_eq!(iv, SimDuration::from_secs(300)); // floor dominates at 200 s
        let iv2 = bandwidth_limited_interval(2_000, 500, 4_000.0, SimDuration::from_mins(5));
        assert_eq!(iv2, SimDuration::from_secs(2_000));
        // Few sessions: the floor applies.
        let iv3 = bandwidth_limited_interval(2, 500, 4_000.0, SimDuration::from_mins(5));
        assert_eq!(iv3, SimDuration::from_mins(5));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        bandwidth_limited_interval(1, 1, 0.0, SimDuration::ZERO);
    }
}
