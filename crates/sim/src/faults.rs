//! Deterministic fault-injection plans.
//!
//! The channel models in [`crate::channel`] express the paper's steady
//! operating point: independent Bernoulli loss and per-packet jitter.
//! Real deployments fail in *correlated* ways — burst loss, network
//! partitions that later heal, hosts that crash and restart with empty
//! caches, skewed clocks, announcement storms and damaged datagrams.  A
//! [`FaultPlan`] is a seeded, fully deterministic description of such a
//! failure scenario: a set of timed windows and events that a harness
//! (e.g. the SAP testbed) consults while it drives the real protocol
//! code.  Because every decision is a pure function of `(plan, time,
//! rng)`, the same plan and seed reproduce the same run bit-for-bit.
//!
//! The plan composes with — never replaces — the baseline
//! [`crate::channel::LossModel`]/[`crate::channel::DelayModel`]: burst
//! windows add loss on top of the channel's own drop probability, and
//! partitions/crashes gate delivery entirely.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A timed window of elevated packet loss (correlated burst loss).
#[derive(Debug, Clone, PartialEq)]
pub struct LossWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Additional independent drop probability while the window is
    /// active, applied after the channel's own loss process.
    pub drop_probability: f64,
}

/// A zone partition: while active, no packet crosses between the two
/// node sets (either direction).  Nodes in neither set are unaffected —
/// they hear, and are heard by, both sides, which is exactly the
/// asymmetry behind the paper's Section 3 third-party scenarios.  The
/// window end is the heal event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Heal time (exclusive — traffic flows again from here on).
    pub until: SimTime,
    /// One side of the cut.
    pub a: Vec<usize>,
    /// The other side.
    pub b: Vec<usize>,
}

/// A node crash, with an optional restart.  While down the node neither
/// sends nor receives; on restart it comes back with an empty cache
/// (state loss is the interesting part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Which node crashes.
    pub node: usize,
    /// When it goes down.
    pub at: SimTime,
    /// When it comes back, if ever.
    pub restart_at: Option<SimTime>,
}

/// How a corrupted packet is damaged on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Cut the datagram short at a random offset.
    Truncate,
    /// Flip one random bit.
    BitFlip,
    /// Overwrite the whole datagram with random bytes.
    Garbage,
}

impl CorruptionMode {
    /// Damage `bytes` in place using `rng`.  Empty buffers are left
    /// untouched; the result may or may not still decode, which is the
    /// point — receivers must tolerate both.
    pub fn apply(self, bytes: &mut Vec<u8>, rng: &mut SimRng) {
        if bytes.is_empty() {
            return;
        }
        match self {
            CorruptionMode::Truncate => {
                let keep = rng.below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            CorruptionMode::BitFlip => {
                let bit = rng.below(bytes.len() as u64 * 8);
                let idx = (bit / 8) as usize;
                if let Some(b) = bytes.get_mut(idx) {
                    *b ^= 1 << (bit % 8);
                }
            }
            CorruptionMode::Garbage => {
                for b in bytes.iter_mut() {
                    *b = rng.below(256) as u8;
                }
            }
        }
    }
}

/// A timed window during which packets may be corrupted in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-packet corruption probability while active.
    pub probability: f64,
    /// The kind of damage applied.
    pub mode: CorruptionMode,
}

/// An announcement storm: at `at`, `packets` forged announcements are
/// blasted into the scope (the harness decides their content).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// When the storm fires.
    pub at: SimTime,
    /// How many forged packets it injects.
    pub packets: u32,
}

/// A deterministic, seeded fault-injection scenario.
///
/// Build one with the chainable `with_*` methods, then query it from
/// the harness's delivery path:
///
/// ```
/// use sdalloc_sim::{FaultPlan, SimTime};
/// let plan = FaultPlan::new()
///     .with_partition(SimTime::from_secs(10), SimTime::from_secs(60), vec![0], vec![1])
///     .with_burst_loss(SimTime::from_secs(100), SimTime::from_secs(110), 1.0);
/// assert!(plan.delivers(SimTime::from_secs(5), 0, 1));
/// assert!(!plan.delivers(SimTime::from_secs(30), 0, 1));
/// assert!(plan.delivers(SimTime::from_secs(60), 0, 1)); // healed
/// assert_eq!(plan.extra_drop(SimTime::from_secs(105)), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Burst-loss windows.
    pub burst_loss: Vec<LossWindow>,
    /// Partition windows (heal at window end).
    pub partitions: Vec<PartitionWindow>,
    /// Crash/restart events.
    pub crashes: Vec<CrashEvent>,
    /// Packet-corruption windows.
    pub corruption: Vec<CorruptWindow>,
    /// Announcement storms.
    pub storms: Vec<Storm>,
    /// Per-node clock offsets in nanoseconds (local = global + offset).
    skew: Vec<(usize, i64)>,
}

fn window_active(from: SimTime, until: SimTime, now: SimTime) -> bool {
    from <= now && now < until
}

impl FaultPlan {
    /// An empty plan: no faults, every query is a no-op.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a burst-loss window.
    pub fn with_burst_loss(mut self, from: SimTime, until: SimTime, drop_probability: f64) -> Self {
        self.burst_loss.push(LossWindow {
            from,
            until,
            drop_probability: drop_probability.clamp(0.0, 1.0),
        });
        self
    }

    /// Add a partition between node sets `a` and `b`, healing at `until`.
    pub fn with_partition(
        mut self,
        from: SimTime,
        until: SimTime,
        a: Vec<usize>,
        b: Vec<usize>,
    ) -> Self {
        self.partitions.push(PartitionWindow { from, until, a, b });
        self
    }

    /// Add a crash of `node` at `at`, restarting at `restart_at` if given.
    pub fn with_crash(mut self, node: usize, at: SimTime, restart_at: Option<SimTime>) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at,
        });
        self
    }

    /// Add a corruption window.
    pub fn with_corruption(
        mut self,
        from: SimTime,
        until: SimTime,
        probability: f64,
        mode: CorruptionMode,
    ) -> Self {
        self.corruption.push(CorruptWindow {
            from,
            until,
            probability: probability.clamp(0.0, 1.0),
            mode,
        });
        self
    }

    /// Add an announcement storm.
    pub fn with_storm(mut self, at: SimTime, packets: u32) -> Self {
        self.storms.push(Storm { at, packets });
        self
    }

    /// Give `node` a constant clock offset (nanoseconds; local clock =
    /// global clock + offset, so a positive offset runs fast).
    pub fn with_clock_skew(mut self, node: usize, offset_nanos: i64) -> Self {
        self.skew.retain(|&(n, _)| n != node);
        self.skew.push((node, offset_nanos));
        self
    }

    /// Whether a packet from `from` can reach `to` at `now`, considering
    /// only partitions (loss and crashes are separate queries).
    pub fn delivers(&self, now: SimTime, from: usize, to: usize) -> bool {
        for w in &self.partitions {
            if !window_active(w.from, w.until, now) {
                continue;
            }
            let cut = (w.a.contains(&from) && w.b.contains(&to))
                || (w.b.contains(&from) && w.a.contains(&to));
            if cut {
                return false;
            }
        }
        true
    }

    /// The additional drop probability active at `now` (the maximum over
    /// overlapping burst windows; 0.0 when none is active).
    pub fn extra_drop(&self, now: SimTime) -> f64 {
        let mut p: f64 = 0.0;
        for w in &self.burst_loss {
            if window_active(w.from, w.until, now) {
                p = p.max(w.drop_probability);
            }
        }
        p
    }

    /// Whether `node` is up at `now`.
    pub fn node_up(&self, now: SimTime, node: usize) -> bool {
        for c in &self.crashes {
            if c.node != node || now < c.at {
                continue;
            }
            match c.restart_at {
                Some(r) if now >= r => {}
                _ => return false,
            }
        }
        true
    }

    /// The corruption process active at `now`, if any (first matching
    /// window wins).
    pub fn corruption_at(&self, now: SimTime) -> Option<(f64, CorruptionMode)> {
        self.corruption
            .iter()
            .find(|w| window_active(w.from, w.until, now))
            .map(|w| (w.probability, w.mode))
    }

    /// The clock offset of `node` in nanoseconds (0 when unskewed).
    pub fn clock_offset(&self, node: usize) -> i64 {
        self.skew
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, o)| o)
            .unwrap_or(0)
    }

    /// Convert global simulation time to `node`'s local clock.
    pub fn local_time(&self, node: usize, global: SimTime) -> SimTime {
        let o = self.clock_offset(node);
        if o >= 0 {
            global + SimDuration::from_nanos(o as u64)
        } else {
            global - SimDuration::from_nanos(o.unsigned_abs())
        }
    }

    /// Convert `node`'s local clock reading back to global time (inverse
    /// of [`Self::local_time`], up to saturation at the epoch).
    pub fn global_time(&self, node: usize, local: SimTime) -> SimTime {
        let o = self.clock_offset(node);
        if o >= 0 {
            local - SimDuration::from_nanos(o as u64)
        } else {
            local + SimDuration::from_nanos(o.unsigned_abs())
        }
    }

    /// Whether the plan contains any fault at all.
    pub fn is_empty(&self) -> bool {
        self.burst_loss.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.corruption.is_empty()
            && self.storms.is_empty()
            && self.skew.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(p.delivers(t(0), 0, 1));
        assert_eq!(p.extra_drop(t(0)), 0.0);
        assert!(p.node_up(t(0), 3));
        assert!(p.corruption_at(t(0)).is_none());
        assert_eq!(p.local_time(0, t(7)), t(7));
    }

    #[test]
    fn partition_window_boundaries() {
        let p = FaultPlan::new().with_partition(t(10), t(60), vec![0, 2], vec![1]);
        assert!(p.delivers(t(9), 0, 1));
        assert!(!p.delivers(t(10), 0, 1), "start is inclusive");
        assert!(!p.delivers(t(59), 1, 2), "symmetric cut");
        assert!(p.delivers(t(60), 0, 1), "heal is exclusive");
        // A node in neither set hears both sides throughout.
        assert!(p.delivers(t(30), 0, 3));
        assert!(p.delivers(t(30), 3, 1));
        // Within one side traffic flows.
        assert!(p.delivers(t(30), 0, 2));
    }

    #[test]
    fn burst_loss_max_over_overlaps() {
        let p = FaultPlan::new()
            .with_burst_loss(t(0), t(100), 0.3)
            .with_burst_loss(t(50), t(60), 0.9);
        assert_eq!(p.extra_drop(t(10)), 0.3);
        assert_eq!(p.extra_drop(t(55)), 0.9);
        assert_eq!(p.extra_drop(t(100)), 0.0);
        // Probabilities clamp.
        let q = FaultPlan::new().with_burst_loss(t(0), t(1), 7.0);
        assert_eq!(q.extra_drop(t(0)), 1.0);
    }

    #[test]
    fn crash_and_restart() {
        let p = FaultPlan::new()
            .with_crash(1, t(10), Some(t(50)))
            .with_crash(2, t(20), None);
        assert!(p.node_up(t(9), 1));
        assert!(!p.node_up(t(10), 1));
        assert!(!p.node_up(t(49), 1));
        assert!(p.node_up(t(50), 1), "restart is inclusive");
        assert!(!p.node_up(t(1_000_000), 2), "no restart: down forever");
        assert!(p.node_up(t(1_000_000), 0), "other nodes unaffected");
    }

    #[test]
    fn corruption_window_lookup() {
        let p = FaultPlan::new().with_corruption(t(5), t(15), 0.5, CorruptionMode::BitFlip);
        assert!(p.corruption_at(t(4)).is_none());
        assert_eq!(p.corruption_at(t(5)), Some((0.5, CorruptionMode::BitFlip)));
        assert!(p.corruption_at(t(15)).is_none());
    }

    #[test]
    fn clock_skew_roundtrip() {
        let p = FaultPlan::new()
            .with_clock_skew(0, 2_000_000_000)
            .with_clock_skew(1, -500_000_000);
        assert_eq!(p.local_time(0, t(10)), t(12));
        assert_eq!(p.local_time(1, t(10)), SimTime::from_millis(9_500));
        for node in [0usize, 1, 2] {
            let g = t(100);
            assert_eq!(p.global_time(node, p.local_time(node, g)), g);
        }
        // Re-skewing a node replaces the old offset.
        let p = p.with_clock_skew(0, 0);
        assert_eq!(p.clock_offset(0), 0);
    }

    #[test]
    fn corruption_modes_deterministic_and_safe() {
        let mut empty: Vec<u8> = Vec::new();
        let mut rng = SimRng::new(1);
        CorruptionMode::Truncate.apply(&mut empty, &mut rng);
        CorruptionMode::BitFlip.apply(&mut empty, &mut rng);
        CorruptionMode::Garbage.apply(&mut empty, &mut rng);
        assert!(empty.is_empty());

        let base: Vec<u8> = (0..64).collect();
        for mode in [
            CorruptionMode::Truncate,
            CorruptionMode::BitFlip,
            CorruptionMode::Garbage,
        ] {
            let mut a = base.clone();
            let mut b = base.clone();
            mode.apply(&mut a, &mut SimRng::new(42));
            mode.apply(&mut b, &mut SimRng::new(42));
            assert_eq!(a, b, "same seed, same damage ({mode:?})");
        }

        let mut flipped = base.clone();
        CorruptionMode::BitFlip.apply(&mut flipped, &mut SimRng::new(3));
        let diff: usize = flipped
            .iter()
            .zip(&base)
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum();
        assert_eq!(diff, 1, "bit flip changes exactly one bit");

        let mut cut = base.clone();
        CorruptionMode::Truncate.apply(&mut cut, &mut SimRng::new(4));
        assert!(cut.len() < base.len());
    }

    #[test]
    fn storm_listing() {
        let p = FaultPlan::new().with_storm(t(30), 200);
        assert_eq!(p.storms.len(), 1);
        assert_eq!(p.storms[0].packets, 200);
    }
}
