//! Static Informed Partitioned Random allocation (IPRMA, Section 2.1).
//!
//! The address space is split into fixed equal ranges, one per TTL band;
//! a session's TTL selects the band and the allocator picks a random
//! address within it that is not visible in use.  The paper simulates
//! two variants:
//!
//! * **IPR 3-band** — bands separated at TTLs 15 and 64.  This is the
//!   *imperfect* partitioning of Figure 3: European TTL-47 national
//!   sessions and TTL-63 Europe-wide sessions share the middle band, so
//!   a Scandinavian allocator cannot see UK-national allocations that a
//!   Europe-wide session would clash with.
//! * **IPR 7-band** — separated at TTLs 2, 16, 32, 48, 64 and 128:
//!   "basically perfect partitioning" for the ds distributions, since
//!   every canonical TTL lands in its own band.

use sdalloc_sim::SimRng;

use crate::addr::{Addr, AddrSpace};
use crate::alloc::{pick_free_in_range, Allocator};
use crate::view::View;

/// Static informed-partitioned-random allocator with fixed TTL bands.
///
/// ```
/// use sdalloc_core::{StaticIpr, Allocator, AddrSpace, View};
/// use sdalloc_sim::SimRng;
/// let alg = StaticIpr::seven_band();
/// let space = AddrSpace::abstract_space(700);
/// let mut rng = SimRng::new(1);
/// // A TTL-15 session lands in band 1 (TTLs 3..=16): addresses 100..200.
/// let addr = alg.allocate(&space, 15, &View::empty(), &mut rng).unwrap();
/// assert!((100..200).contains(&addr.0));
/// ```
#[derive(Debug, Clone)]
pub struct StaticIpr {
    /// Band upper TTL separators, ascending; the last entry must be 255.
    /// Band `i` covers TTLs `(sep[i-1], sep[i]]` (band 0 from TTL 0).
    separators: Vec<u8>,
    label: String,
}

impl StaticIpr {
    /// Build from ascending TTL separators; 255 is appended if missing.
    pub fn new(mut separators: Vec<u8>) -> StaticIpr {
        assert!(!separators.is_empty(), "need at least one band");
        assert!(
            separators
                .iter()
                .zip(separators.iter().skip(1))
                .all(|(a, b)| a < b),
            "separators must be strictly ascending"
        );
        if separators.last() != Some(&255) {
            separators.push(255);
        }
        let label = format!("IPR {}-band", separators.len());
        StaticIpr { separators, label }
    }

    /// The paper's 3-band configuration (separated at TTLs 15 and 64).
    pub fn three_band() -> StaticIpr {
        StaticIpr::new(vec![15, 64])
    }

    /// The paper's 7-band configuration (separated at 2, 16, 32, 48, 64
    /// and 128).
    pub fn seven_band() -> StaticIpr {
        StaticIpr::new(vec![2, 16, 32, 48, 64, 128])
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.separators.len()
    }

    /// Which band a TTL falls into.
    pub fn band_of(&self, ttl: u8) -> usize {
        self.separators.partition_point(|&s| s < ttl)
    }

    /// The address range `[lo, hi)` of band `band` in a space of `size`
    /// addresses: equal split, remainder to the last band.
    pub fn band_range(&self, band: usize, size: u32) -> (u32, u32) {
        debug_assert!(band < self.bands(), "band index {band} out of range");
        let k = self.bands() as u32;
        let width = size / k;
        let lo = band as u32 * width;
        let hi = if band + 1 == self.bands() {
            size
        } else {
            lo + width
        };
        debug_assert!(
            lo <= hi && hi <= size,
            "band range [{lo},{hi}) escapes the space"
        );
        (lo, hi)
    }
}

impl Allocator for StaticIpr {
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
        let band = self.band_of(ttl);
        let (lo, hi) = self.band_range(band, space.size());
        let used = view.occupied();
        pick_free_in_range(lo, hi, &used, rng)
    }

    fn partition_range(&self, space: &AddrSpace, ttl: u8, _view: &View<'_>) -> (u32, u32) {
        self.band_range(self.band_of(ttl), space.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VisibleSession;

    #[test]
    fn three_band_mapping() {
        let a = StaticIpr::three_band();
        assert_eq!(a.bands(), 3);
        // Band 0: TTL 0..=15; band 1: 16..=64; band 2: 65..=255.
        assert_eq!(a.band_of(1), 0);
        assert_eq!(a.band_of(15), 0);
        assert_eq!(a.band_of(31), 1);
        assert_eq!(a.band_of(47), 1);
        assert_eq!(a.band_of(63), 1);
        assert_eq!(a.band_of(64), 1);
        assert_eq!(a.band_of(127), 2);
        assert_eq!(a.band_of(191), 2);
    }

    #[test]
    fn seven_band_separates_canonical_ttls() {
        let a = StaticIpr::seven_band();
        assert_eq!(a.bands(), 7);
        let ttls = [1u8, 15, 31, 47, 63, 127, 191];
        let bands: Vec<usize> = ttls.iter().map(|&t| a.band_of(t)).collect();
        let mut dedup = bands.clone();
        dedup.dedup();
        assert_eq!(bands.len(), dedup.len(), "bands {bands:?} not distinct");
        assert_eq!(bands, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn band_ranges_tile_the_space() {
        let a = StaticIpr::seven_band();
        let size = 1000u32;
        let mut expected_lo = 0;
        for b in 0..a.bands() {
            let (lo, hi) = a.band_range(b, size);
            assert_eq!(lo, expected_lo);
            assert!(hi > lo);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, size);
    }

    #[test]
    fn allocates_inside_own_band() {
        let a = StaticIpr::three_band();
        let space = AddrSpace::abstract_space(300);
        let view = View::empty();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let low = a.allocate(&space, 15, &view, &mut rng).unwrap();
            assert!(low.0 < 100, "TTL-15 outside band 0: {low}");
            let mid = a.allocate(&space, 63, &view, &mut rng).unwrap();
            assert!((100..200).contains(&mid.0), "TTL-63 outside band 1: {mid}");
            let high = a.allocate(&space, 191, &view, &mut rng).unwrap();
            assert!(high.0 >= 200, "TTL-191 outside band 2: {high}");
        }
    }

    #[test]
    fn band_fills_up_independently() {
        let a = StaticIpr::three_band();
        let space = AddrSpace::abstract_space(9); // 3 addresses per band
                                                  // Fill band 0 (addresses 0..3).
        let sessions: Vec<VisibleSession> = (0..3u32)
            .map(|i| VisibleSession::new(Addr(i), 15))
            .collect();
        let view = View::new(&sessions);
        let mut rng = SimRng::new(2);
        assert_eq!(a.allocate(&space, 15, &view, &mut rng), None);
        // Other bands still allocate.
        assert!(a.allocate(&space, 63, &view, &mut rng).is_some());
        assert!(a.allocate(&space, 191, &view, &mut rng).is_some());
    }

    #[test]
    fn avoids_visible_addresses_cross_band() {
        // A visible session in *any* band blocks its address.
        let a = StaticIpr::three_band();
        let space = AddrSpace::abstract_space(30);
        let sessions = vec![VisibleSession::new(Addr(12), 63)];
        let view = View::new(&sessions);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let got = a.allocate(&space, 63, &view, &mut rng).unwrap();
            assert_ne!(got, Addr(12));
        }
    }

    #[test]
    fn custom_separators_appends_255() {
        let a = StaticIpr::new(vec![10, 100]);
        assert_eq!(a.bands(), 3);
        assert_eq!(a.band_of(255), 2);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_separators_rejected() {
        StaticIpr::new(vec![64, 15]);
    }

    #[test]
    fn names() {
        assert_eq!(StaticIpr::three_band().name(), "IPR 3-band");
        assert_eq!(StaticIpr::seven_band().name(), "IPR 7-band");
    }
}
