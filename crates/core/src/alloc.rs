//! The allocator interface and the two baseline algorithms.
//!
//! * **R — pure random allocation**: pick uniformly from the whole
//!   space, ignoring everything.  Expected to clash after O(√n)
//!   allocations (the birthday problem, Figure 4).
//! * **IR — informed random allocation**: "an address is not allocated
//!   if it is seen in another session announcement" — uniform over the
//!   addresses not currently visible in use.  The paper's Figure 5
//!   finding is that this is *not* a great improvement over R, because
//!   locally-scoped sessions elsewhere are invisible.
//!
//! The partitioned algorithms live in [`crate::static_ipr`] and
//! [`crate::adaptive`]; all share the [`Allocator`] trait.

use sdalloc_sim::SimRng;

use crate::addr::{Addr, AddrSpace};
use crate::view::View;

/// A multicast address allocation algorithm.
///
/// Allocators are deliberately stateless between calls: in the session
/// directory architecture every sdr instance recomputes its decision
/// from the announcements it currently hears (the `view`), so state
/// lives in the announcement cache, not the algorithm.  The `Send`
/// bound lets a boxed allocator move onto a background agent thread.
pub trait Allocator: Send {
    /// Short name used in figures ("R", "IR", "IPR 3-band", …).
    fn name(&self) -> String;

    /// Choose an address for a new session with the given TTL, given the
    /// sessions visible at this site.  Returns `None` when the algorithm
    /// considers its (partition of the) space full.
    fn allocate(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr>;

    /// The `[lo, hi)` address range this algorithm would draw from for
    /// a session of the given TTL — the diagnostic counterpart of
    /// [`Self::allocate`], used to label degradation events with the
    /// band that was exhausted.  Unpartitioned algorithms (and the
    /// default) report the whole space.
    fn partition_range(&self, space: &AddrSpace, _ttl: u8, _view: &View<'_>) -> (u32, u32) {
        (0, space.size())
    }

    /// Graceful-degradation allocation: try [`Self::allocate`] first,
    /// and when the algorithm's own partition is exhausted fall back to
    /// an informed-random pick over the *whole* space — trading the
    /// partition discipline for availability.  The outcome records
    /// whether widening happened so callers can log a degradation event
    /// (a widened address may clash with sessions the partitioning was
    /// protecting; the clash protocol remains the safety net).  Returns
    /// `None` only when every address in the space is visibly in use.
    fn allocate_or_widen(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<AllocOutcome> {
        let band = self.partition_range(space, ttl, view);
        if let Some(addr) = self.allocate(space, ttl, view, rng) {
            return Some(AllocOutcome {
                addr,
                widened: false,
                band,
            });
        }
        let used = view.occupied();
        pick_free_in_range(0, space.size(), &used, rng).map(|addr| AllocOutcome {
            addr,
            widened: true,
            band,
        })
    }
}

/// Result of [`Allocator::allocate_or_widen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The allocated address.
    pub addr: Addr,
    /// Whether the allocator had to widen beyond its own partition —
    /// the signal for a logged degradation event.
    pub widened: bool,
    /// The `[lo, hi)` range the algorithm's partition discipline would
    /// have drawn from ([`Allocator::partition_range`]).  When
    /// `widened` is set this is the band that was exhausted.
    pub band: (u32, u32),
}

/// Uniformly pick an address from `range` (lo..hi within `space`) that is
/// not in `used` (a sorted, deduplicated list).  Returns `None` when the
/// range is exhausted.
///
/// Strategy: rejection-sample a few times (cheap when sparsely used),
/// then fall back to exact rank selection over the free set so full
/// ranges still terminate and stay uniform.
#[expect(
    clippy::indexing_slicing,
    reason = "slice bounds come from partition_point over the same slice; windows(2) chunks have exactly two elements"
)]
pub(crate) fn pick_free_in_range(
    lo: u32,
    hi: u32,
    used: &[Addr],
    rng: &mut SimRng,
) -> Option<Addr> {
    assert!(lo <= hi, "inverted range");
    debug_assert!(
        used.windows(2).all(|w| w[0] < w[1]),
        "used list must be sorted and deduplicated"
    );
    let width = hi - lo;
    if width == 0 {
        return None;
    }
    let used_in_range = {
        let start = used.partition_point(|a| a.0 < lo);
        let end = used.partition_point(|a| a.0 < hi);
        &used[start..end]
    };
    let free = width as usize - used_in_range.len();
    if free == 0 {
        return None;
    }
    // Rejection sampling while the hit rate is decent.
    if free * 4 >= width as usize {
        for _ in 0..32 {
            let cand = Addr(lo + rng.below(width as u64) as u32);
            if used_in_range.binary_search(&cand).is_err() {
                return Some(cand);
            }
        }
    }
    // Exact: pick the k-th free address.
    let mut k = rng.below(free as u64) as u32;
    let mut cursor = lo;
    for &u in used_in_range {
        let gap = u.0 - cursor;
        if k < gap {
            return Some(Addr(cursor + k));
        }
        k -= gap;
        cursor = u.0 + 1;
    }
    Some(Addr(cursor + k))
}

/// R: pure random allocation over the whole space.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomAllocator;

impl Allocator for RandomAllocator {
    fn name(&self) -> String {
        "R".to_string()
    }

    fn allocate(
        &self,
        space: &AddrSpace,
        _ttl: u8,
        _view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr> {
        Some(Addr(rng.below(space.size() as u64) as u32))
    }
}

/// IR: informed random — uniform over addresses not visible in use.
#[derive(Debug, Clone, Copy, Default)]
pub struct InformedRandomAllocator;

impl Allocator for InformedRandomAllocator {
    fn name(&self) -> String {
        "IR".to_string()
    }

    fn allocate(
        &self,
        space: &AddrSpace,
        _ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr> {
        let used = view.occupied();
        pick_free_in_range(0, space.size(), &used, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VisibleSession;

    fn view_of(pairs: &[(u32, u8)]) -> Vec<VisibleSession> {
        pairs
            .iter()
            .map(|&(a, t)| VisibleSession::new(Addr(a), t))
            .collect()
    }

    #[test]
    fn random_ignores_view() {
        let space = AddrSpace::abstract_space(4);
        let sessions = view_of(&[(0, 127), (1, 127), (2, 127)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(1);
        let mut hit_used = false;
        for _ in 0..100 {
            let a = RandomAllocator
                .allocate(&space, 127, &view, &mut rng)
                .unwrap();
            assert!(space.contains(a));
            if a.0 < 3 {
                hit_used = true;
            }
        }
        assert!(hit_used, "pure random should sometimes pick used addresses");
    }

    #[test]
    fn informed_random_avoids_visible() {
        let space = AddrSpace::abstract_space(10);
        let sessions = view_of(&[(0, 1), (3, 63), (9, 191)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(2);
        for _ in 0..200 {
            let a = InformedRandomAllocator
                .allocate(&space, 127, &view, &mut rng)
                .unwrap();
            assert!(![0, 3, 9].contains(&a.0), "allocated visible address {a}");
        }
    }

    #[test]
    fn informed_random_exhausts() {
        let space = AddrSpace::abstract_space(3);
        let sessions = view_of(&[(0, 1), (1, 1), (2, 1)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(3);
        assert_eq!(
            InformedRandomAllocator.allocate(&space, 15, &view, &mut rng),
            None
        );
    }

    #[test]
    fn informed_random_finds_last_free() {
        let space = AddrSpace::abstract_space(5);
        let sessions = view_of(&[(0, 1), (1, 1), (3, 1), (4, 1)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(4);
        for _ in 0..20 {
            assert_eq!(
                InformedRandomAllocator.allocate(&space, 15, &view, &mut rng),
                Some(Addr(2))
            );
        }
    }

    #[test]
    fn pick_free_uniformity() {
        // Free addresses {1, 4, 7}; each should be picked ~1/3 of the time.
        let used: Vec<Addr> = [0u32, 2, 3, 5, 6].iter().map(|&a| Addr(a)).collect();
        let mut rng = SimRng::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..30_000 {
            let a = pick_free_in_range(0, 8, &used, &mut rng).unwrap();
            counts[a.0 as usize] += 1;
        }
        for free in [1usize, 4, 7] {
            let frac = counts[free] as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "addr {free} frac {frac}");
        }
        for usedi in [0usize, 2, 3, 5, 6] {
            assert_eq!(counts[usedi], 0);
        }
    }

    #[test]
    fn pick_free_respects_subrange() {
        let used: Vec<Addr> = vec![];
        let mut rng = SimRng::new(6);
        for _ in 0..100 {
            let a = pick_free_in_range(10, 20, &used, &mut rng).unwrap();
            assert!((10..20).contains(&a.0));
        }
    }

    #[test]
    fn pick_free_empty_range() {
        let mut rng = SimRng::new(7);
        assert_eq!(pick_free_in_range(5, 5, &[], &mut rng), None);
    }

    #[test]
    fn pick_free_dense_range_exact_path() {
        // 1000 addresses, 999 used: always returns the single free one.
        let used: Vec<Addr> = (0..1000u32).filter(|&a| a != 613).map(Addr).collect();
        let mut rng = SimRng::new(8);
        for _ in 0..10 {
            assert_eq!(
                pick_free_in_range(0, 1000, &used, &mut rng),
                Some(Addr(613))
            );
        }
    }

    #[test]
    fn names() {
        assert_eq!(RandomAllocator.name(), "R");
        assert_eq!(InformedRandomAllocator.name(), "IR");
    }

    #[test]
    fn widen_not_needed_when_partition_has_room() {
        let space = AddrSpace::abstract_space(16);
        let sessions = view_of(&[(0, 127)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(9);
        let out = InformedRandomAllocator
            .allocate_or_widen(&space, 127, &view, &mut rng)
            .unwrap();
        assert!(!out.widened);
        assert_ne!(out.addr, Addr(0));
    }

    #[test]
    fn widen_escapes_full_band() {
        use crate::static_ipr::StaticIpr;
        // Three equal bands over 12 addresses; fill the band for a
        // low-TTL session so the banded allocator refuses, then check
        // the fallback widens into the rest of the space.
        let space = AddrSpace::abstract_space(12);
        let alg = StaticIpr::three_band();
        let (lo, hi) = alg.band_range(alg.band_of(15), space.size());
        let sessions: Vec<VisibleSession> =
            (lo..hi).map(|a| VisibleSession::new(Addr(a), 15)).collect();
        let view = View::new(&sessions);
        let mut rng = SimRng::new(10);
        assert_eq!(alg.allocate(&space, 15, &view, &mut rng), None);
        let out = alg
            .allocate_or_widen(&space, 15, &view, &mut rng)
            .expect("space has free addresses outside the band");
        assert!(out.widened);
        assert!(!(lo..hi).contains(&out.addr.0), "widened outside the band");
        assert!(space.contains(out.addr));
        assert_eq!(out.band, (lo, hi), "outcome labels the exhausted band");
    }

    #[test]
    fn default_partition_range_is_whole_space() {
        let space = AddrSpace::abstract_space(16);
        assert_eq!(
            InformedRandomAllocator.partition_range(&space, 127, &View::empty()),
            (0, 16)
        );
        let mut rng = SimRng::new(12);
        let out = InformedRandomAllocator
            .allocate_or_widen(&space, 127, &View::empty(), &mut rng)
            .unwrap();
        assert_eq!(out.band, (0, 16));
    }

    #[test]
    fn widen_refuses_only_when_space_truly_full() {
        let space = AddrSpace::abstract_space(3);
        let sessions = view_of(&[(0, 1), (1, 1), (2, 1)]);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(11);
        assert!(InformedRandomAllocator
            .allocate_or_widen(&space, 15, &view, &mut rng)
            .is_none());
    }
}
