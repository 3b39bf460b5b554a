//! Adaptive and Deterministic Adaptive IPRMA (Sections 2.4–2.6).
//!
//! Static partitioning wastes space (empty bands) and breaks when TTL
//! boundary policies change, so the paper makes partitions adapt to the
//! sessions actually visible.  The deterministic variant (Figure 8)
//! removes the clash modes of naive adaptation with one rule:
//!
//! > "every site bases the position and size of the partition
//! > corresponding to TTL x only on session announcements for sessions
//! > with a TTL greater than or equal to x"
//!
//! plus a partition layout "initially clustered at the end of the space
//! corresponding to maximum TTL", growing downward.  Because a site
//! allocating at TTL x can (given a reliable announcement protocol) see
//! every session it could clash with at TTL ≥ x, all sites agree on the
//! geometry of the partitions that matter, and only announcement delay
//! can cause clashes.
//!
//! The simulated variants of Figure 12 are reproduced as configurations
//! of one allocator:
//!
//! * **AIPR-1/2/3/4** — rectangular bands over the 55-partition TTL map,
//!   with 20/50/60/70 % of the space evenly reserved for inter-band
//!   gaps and a 67 % target band occupancy; initial band size one
//!   address.
//! * **AIPR-H** — a hybrid with IPR-7's bands, initially spread over the
//!   top 50 % of the space; a band holds its initial position until the
//!   bands above push it down, and shrinks when under-occupied.
//!
//! The paper leaves some mechanics unstated; our concrete choices are
//! documented inline and exercised by the ablation benches.

use sdalloc_sim::SimRng;

use crate::addr::{Addr, AddrSpace};
use crate::alloc::{pick_free_in_range, Allocator};
use crate::partition_map::PartitionMap;
use crate::static_ipr::StaticIpr;
use crate::view::View;

/// How TTLs map to adaptive bands.
#[derive(Debug, Clone)]
pub enum BandMap {
    /// The Deterministic Adaptive IPRMA map (Figure 11), e.g. 55
    /// partitions at margin 2.  Boxed: the map carries a 256-entry
    /// lookup table.
    Partition(Box<PartitionMap>),
    /// Fixed separators as in static IPR (used by the AIPR-H hybrid).
    Static(StaticIpr),
}

impl BandMap {
    /// Number of bands.
    pub fn len(&self) -> usize {
        match self {
            BandMap::Partition(m) => m.len(),
            BandMap::Static(s) => s.bands(),
        }
    }

    /// Whether there are no bands (never true for valid maps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Band index for a TTL (bands ordered by ascending TTL).
    pub fn band_of(&self, ttl: u8) -> usize {
        match self {
            BandMap::Partition(m) => m.partition_of(ttl),
            BandMap::Static(s) => s.band_of(ttl),
        }
    }
}

/// Adaptive informed-partitioned-random allocator.
#[derive(Debug, Clone)]
pub struct AdaptiveIpr {
    bands: BandMap,
    /// Fraction of the address space reserved for inter-band gaps.
    gap_fraction: f64,
    /// Target band occupancy (the paper picks 67 % from Figure 6).
    occupancy: f64,
    /// `Some(span)` for the hybrid: bands start spread over the top
    /// `span` fraction of the space instead of clustered at the top.
    hybrid_span: Option<f64>,
    label: String,
}

impl AdaptiveIpr {
    /// General constructor.
    pub fn new(
        bands: BandMap,
        gap_fraction: f64,
        occupancy: f64,
        hybrid_span: Option<f64>,
        label: impl Into<String>,
    ) -> AdaptiveIpr {
        assert!(
            (0.0..1.0).contains(&gap_fraction),
            "gap fraction out of range"
        );
        assert!(
            occupancy > 0.0 && occupancy <= 1.0,
            "occupancy out of range"
        );
        if let Some(s) = hybrid_span {
            assert!(s > 0.0 && s <= 1.0, "hybrid span out of range");
        }
        AdaptiveIpr {
            bands,
            gap_fraction,
            occupancy,
            hybrid_span,
            label: label.into(),
        }
    }

    /// AIPR-1: 55-partition map, 20 % gaps, 67 % occupancy.
    pub fn aipr1() -> AdaptiveIpr {
        Self::paper_variant(0.20, "AIPR-1 (20% gap)")
    }

    /// AIPR-2: 50 % gaps.
    pub fn aipr2() -> AdaptiveIpr {
        Self::paper_variant(0.50, "AIPR-2 (50% gap)")
    }

    /// AIPR-3: 60 % gaps (the best performer in Figure 12).
    pub fn aipr3() -> AdaptiveIpr {
        Self::paper_variant(0.60, "AIPR-3 (60% gap)")
    }

    /// AIPR-4: 70 % gaps.
    pub fn aipr4() -> AdaptiveIpr {
        Self::paper_variant(0.70, "AIPR-4 (70% gap)")
    }

    fn paper_variant(gap: f64, label: &str) -> AdaptiveIpr {
        AdaptiveIpr::new(
            BandMap::Partition(Box::new(PartitionMap::paper_default())),
            gap,
            0.67,
            None,
            label,
        )
    }

    /// AIPR-H: the IPR-7 hybrid — 7 bands over the top 50 % of the
    /// space, 20 % gaps, 67 % occupancy.
    pub fn hybrid() -> AdaptiveIpr {
        AdaptiveIpr::new(
            BandMap::Static(StaticIpr::seven_band()),
            0.20,
            0.67,
            Some(0.5),
            "AIPR-H (hybrid)",
        )
    }

    /// The band map in use.
    pub fn band_map(&self) -> &BandMap {
        &self.bands
    }

    /// Gap fraction.
    pub fn gap_fraction(&self) -> f64 {
        self.gap_fraction
    }

    /// Compute the address range `[lo, hi)` of the band for `ttl`, from
    /// the sessions visible at this site.
    ///
    /// The deterministic rule: geometry depends only on visible sessions
    /// with TTL ≥ `ttl`.  Bands are stacked downward from the top of the
    /// space (highest TTL first); each band's width is
    /// `max(1, ceil(count / occupancy))` so it always retains spare
    /// capacity, and bands are separated by an even share of the gap
    /// budget.  Returns `None` if the stack runs off the bottom of the
    /// space — the adaptive scheme's expression of "full".
    #[expect(
        clippy::indexing_slicing,
        reason = "counts is sized to the band count k and indexed by band_of() results below k"
    )]
    pub fn band_range(&self, space: &AddrSpace, ttl: u8, view: &View<'_>) -> Option<(u32, u32)> {
        let n = space.size() as i64;
        let k = self.bands.len();
        let target = self.bands.band_of(ttl);

        // Session counts per band, restricted to TTL >= requested.
        let mut counts = vec![0u32; k];
        for s in view.with_ttl_at_least(ttl) {
            counts[self.bands.band_of(s.ttl)] += 1;
        }

        // "X% of the address space is evenly allocated to inter-band
        // spacing": the budget is split into GAP_CUSHIONS space-
        // proportional cushions, one below each *occupied* band.  Three
        // constraints shape this rule:
        //  1. gaps must scale with the space — they absorb the
        //     *inter-site variance* in visible low-TTL session counts,
        //     which grows with the total population (otherwise capacity
        //     plateaus at a constant regardless of space size);
        //  2. the gap below any band above the target may depend only on
        //     that band's own ≥-its-TTL session count, which every
        //     requester sees identically — a per-request denominator
        //     would let two requesters stack the shared upper bands
        //     differently and re-introduce the cross-band clash the
        //     deterministic scheme exists to prevent;
        //  3. empty bands must cost only their one-address initial
        //     allocation, or 55 bands starve small spaces.
        // GAP_CUSHIONS = 8 matches the number of frequently-used TTL
        // classes on the Mbone (§2.4.1 / Figure 10) — the bands that can
        // actually be occupied simultaneously in practice.
        const GAP_CUSHIONS: f64 = 8.0;
        let gap = ((self.gap_fraction * n as f64) / GAP_CUSHIONS).floor() as i64;
        let width = |c: u32| -> i64 { ((c as f64 / self.occupancy).ceil() as i64).max(1) };
        let gap_after = |c: u32| -> i64 {
            if c == 0 {
                0
            } else {
                gap
            }
        };

        // Initial top positions: clustered at the very top, or (hybrid)
        // spread over the top `span` fraction.
        let initial_hi = |band: usize| -> i64 {
            match self.hybrid_span {
                None => n,
                Some(span) => {
                    let reach = (span * n as f64) as i64; // top span of the space
                    let step = reach / k as i64;
                    n - (k - 1 - band) as i64 * step
                }
            }
        };

        // Stack from the highest band down to the target band.
        let mut hi = initial_hi(k - 1);
        for band in (target..k).rev() {
            hi = hi.min(initial_hi(band));
            let w = width(counts[band]);
            let lo = hi - w;
            if band == target {
                if lo < 0 {
                    return None; // ran off the bottom: space exhausted
                }
                debug_assert!(
                    lo <= hi && hi <= n,
                    "band range [{lo},{hi}) escapes the space of {n}"
                );
                return Some((lo as u32, (hi.max(lo)) as u32));
            }
            // Only occupied bands earn breathing room below them.  The
            // hybrid takes no dynamic gaps at all: its spacing is baked
            // into the initial spread positions ("initially positioned …
            // with 20% of the space being used for inter-band gaps"),
            // and a band moves only when the one above pushes into it.
            let dynamic_gaps = self.hybrid_span.is_none();
            hi = if dynamic_gaps {
                lo - gap_after(counts[band])
            } else {
                lo
            };
            if hi <= 0 {
                return None;
            }
        }
        unreachable!("target band is always visited");
    }
}

impl Allocator for AdaptiveIpr {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn allocate(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr> {
        let (lo, hi) = self.band_range(space, ttl, view)?;
        let used = view.occupied();
        if let Some(addr) = pick_free_in_range(lo, hi, &used, rng) {
            return Some(addr);
        }
        // The computed width only accounts for sessions with TTL >= ttl;
        // same-partition sessions placed by sites whose stack sat a few
        // addresses lower can occupy (and exhaust) the computed range.
        // The inter-band cushion below exists precisely to absorb such
        // drift ("partitions can move in response to allocation bursts
        // without colliding"), so extend into it — but never beyond,
        // since past the cushion lies the next band's territory.
        let cushion = ((self.gap_fraction * space.size() as f64) / 8.0).floor() as u32;
        if self.hybrid_span.is_none() && cushion > 1 {
            let floor = lo.saturating_sub(cushion - 1);
            return pick_free_in_range(floor, lo, &used, rng);
        }
        None
    }

    fn partition_range(&self, space: &AddrSpace, ttl: u8, view: &View<'_>) -> (u32, u32) {
        // A stack that ran off the bottom has no band to report; the
        // degradation event then labels the whole space as exhausted.
        self.band_range(space, ttl, view)
            .unwrap_or((0, space.size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VisibleSession;

    fn sessions(pairs: &[(u32, u8)]) -> Vec<VisibleSession> {
        pairs
            .iter()
            .map(|&(a, t)| VisibleSession::new(Addr(a), t))
            .collect()
    }

    #[test]
    fn empty_view_bands_cluster_at_top() {
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(10_000);
        let view = View::empty();
        // With no sessions every band has width 1; the top TTL's band is
        // at the very top.
        let (lo, hi) = a.band_range(&space, 255, &view).unwrap();
        assert_eq!((lo, hi), (9_999, 10_000));
        // A low-TTL band sits 54 bands + gaps further down but exists.
        let (lo1, hi1) = a.band_range(&space, 1, &view).unwrap();
        assert_eq!(hi1 - lo1, 1);
        assert!(hi1 < lo);
    }

    #[test]
    fn bands_grow_with_session_count() {
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(10_000);
        // 100 visible TTL-191 sessions.
        let s: Vec<VisibleSession> = (0..100)
            .map(|i| VisibleSession::new(Addr(9_900 + i), 191))
            .collect();
        let view = View::new(&s);
        let (lo, hi) = a.band_range(&space, 191, &view).unwrap();
        // width = ceil(100/0.67) = 150.
        assert_eq!(hi - lo, 150);
    }

    #[test]
    fn deterministic_rule_ignores_lower_ttls() {
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(10_000);
        // Many low-TTL sessions; geometry for TTL 191 must ignore them.
        let mut pairs: Vec<(u32, u8)> = (0..500).map(|i| (i, 1u8)).collect();
        pairs.push((9_999, 191));
        let s = sessions(&pairs);
        let view = View::new(&s);
        let with_low = a.band_range(&space, 191, &view).unwrap();
        let only_high = sessions(&[(9_999, 191)]);
        let view2 = View::new(&only_high);
        let without_low = a.band_range(&space, 191, &view2).unwrap();
        assert_eq!(with_low, without_high_eq(without_low));
        fn without_high_eq(x: (u32, u32)) -> (u32, u32) {
            x
        }
    }

    #[test]
    fn lower_band_pushed_down_by_growth_above() {
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(10_000);
        let empty = View::empty();
        let (lo_before, _) = a.band_range(&space, 15, &empty).unwrap();
        // Grow the top bands.
        let s: Vec<VisibleSession> = (0..200)
            .map(|i| VisibleSession::new(Addr(9_000 + i), 191))
            .collect();
        let view = View::new(&s);
        let (lo_after, _) = a.band_range(&space, 15, &view).unwrap();
        assert!(
            lo_after < lo_before,
            "band did not move down: {lo_before} -> {lo_after}"
        );
    }

    #[test]
    fn geometry_agrees_across_sites_for_shared_ttl() {
        // The deterministic property: two sites that see the same set of
        // TTL>=x sessions compute identical geometry for TTL x, no
        // matter what lower-TTL sessions each sees locally.
        let a = AdaptiveIpr::aipr3();
        let space = AddrSpace::abstract_space(5_000);
        let base: Vec<(u32, u8)> = vec![(4_999, 191), (4_990, 127), (4_991, 127)];
        let mut site_a = base.clone();
        site_a.extend((0..50).map(|i| (i, 1u8)));
        let mut site_b = base.clone();
        site_b.extend((100..130).map(|i| (i, 15u8)));
        let sa = sessions(&site_a);
        let sb = sessions(&site_b);
        let ra = a.band_range(&space, 127, &View::new(&sa)).unwrap();
        let rb = a.band_range(&space, 127, &View::new(&sb)).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn allocates_within_band_and_avoids_used() {
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(10_000);
        let s = sessions(&[(9_999, 255)]);
        let view = View::new(&s);
        let mut rng = SimRng::new(1);
        let (lo, hi) = a.band_range(&space, 255, &view).unwrap();
        for _ in 0..50 {
            let got = a.allocate(&space, 255, &view, &mut rng).unwrap();
            assert!(got.0 >= lo.saturating_sub(1000) && got.0 < hi);
            assert_ne!(got, Addr(9_999));
        }
    }

    #[test]
    fn space_exhaustion_returns_none() {
        let a = AdaptiveIpr::aipr4(); // 70% gaps: exhausts fastest
        let space = AddrSpace::abstract_space(100);
        // 60 sessions at TTL 1: band width alone exceeds what's left
        // below the 54 bands above it.
        let s: Vec<VisibleSession> = (0..60).map(|i| VisibleSession::new(Addr(i), 1)).collect();
        let view = View::new(&s);
        assert_eq!(a.band_range(&space, 1, &view), None);
    }

    #[test]
    fn hybrid_initial_positions_spread_over_top_half() {
        let h = AdaptiveIpr::hybrid();
        let space = AddrSpace::abstract_space(10_000);
        let view = View::empty();
        // Top band at the very top.
        let (_, hi_top) = h.band_range(&space, 255, &view).unwrap();
        assert_eq!(hi_top, 10_000);
        // Bottom band around the middle of the space, not at the bottom.
        let (lo_bot, hi_bot) = h.band_range(&space, 1, &view).unwrap();
        assert!(
            hi_bot <= 5_800 && lo_bot >= 4_000,
            "bottom band at {lo_bot}..{hi_bot}"
        );
    }

    #[test]
    fn hybrid_band_holds_position_until_pushed() {
        let h = AdaptiveIpr::hybrid();
        let space = AddrSpace::abstract_space(10_000);
        let empty = View::empty();
        let before = h.band_range(&space, 63, &empty).unwrap();
        // A few high-TTL sessions should NOT move the TTL-63 band (bands
        // above have slack before they reach it).
        let s: Vec<VisibleSession> = (0..20)
            .map(|i| VisibleSession::new(Addr(9_000 + i), 191))
            .collect();
        let view = View::new(&s);
        let after = h.band_range(&space, 63, &view).unwrap();
        assert_eq!(before.1, after.1, "band top moved without pressure");
        // Massive growth above must push it down.
        let s2: Vec<VisibleSession> = (0..3_000)
            .map(|i| VisibleSession::new(Addr(i), 191))
            .collect();
        let view2 = View::new(&s2);
        let pushed = h.band_range(&space, 63, &view2).unwrap();
        assert!(
            pushed.1 < before.1,
            "band not pushed: {:?} vs {:?}",
            pushed,
            before
        );
    }

    #[test]
    fn variant_labels() {
        assert_eq!(AdaptiveIpr::aipr1().name(), "AIPR-1 (20% gap)");
        assert_eq!(AdaptiveIpr::aipr2().name(), "AIPR-2 (50% gap)");
        assert_eq!(AdaptiveIpr::aipr3().name(), "AIPR-3 (60% gap)");
        assert_eq!(AdaptiveIpr::aipr4().name(), "AIPR-4 (70% gap)");
        assert_eq!(AdaptiveIpr::hybrid().name(), "AIPR-H (hybrid)");
    }

    #[test]
    fn occupancy_always_leaves_headroom() {
        // width(c) > c for every count: the band always has at least one
        // address beyond its current sessions.
        let a = AdaptiveIpr::aipr1();
        let space = AddrSpace::abstract_space(100_000);
        for count in [1u32, 2, 3, 10, 67, 100, 1000] {
            let s: Vec<VisibleSession> = (0..count)
                .map(|i| VisibleSession::new(Addr(i), 255))
                .collect();
            let view = View::new(&s);
            let (lo, hi) = a.band_range(&space, 255, &view).unwrap();
            assert!(hi - lo > count, "no headroom at count {count}");
        }
    }

    #[test]
    #[should_panic(expected = "gap fraction")]
    fn bad_gap_fraction_rejected() {
        AdaptiveIpr::new(
            BandMap::Static(StaticIpr::seven_band()),
            1.5,
            0.67,
            None,
            "bad",
        );
    }
}
