//! The TTL → partition mapping of Deterministic Adaptive IPRMA
//! (Section 2.4.1, Figure 11).
//!
//! The paper derives, from the Mbone's hop-count statistics, that "the
//! number of TTL values, n, allocated to a partition with lowest TTL t,
//! with a margin of safety m, is given by … n = (32/255)·(t/m), with n
//! rounded up to the nearest integer.  Choosing a margin of safety of 2
//! gives 55 partitions" — single-TTL partitions at low TTLs (where a
//! one-hop difference matters), widening toward high TTLs (where
//! thresholds are sparse relative to hop counts).
//!
//! TTL 0 is a legal packet TTL ("an IP header field called Time To Live
//! is set to a value between zero and 255"), so the map starts at t = 0;
//! that also reproduces the paper's count of 55 exactly.

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

/// One partition: an inclusive range of TTL values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtlPartition {
    /// Lowest TTL in the partition.
    pub lo: u8,
    /// Highest TTL in the partition (inclusive).
    pub hi: u8,
}

impl TtlPartition {
    /// Whether the partition covers `ttl`.
    pub fn contains(&self, ttl: u8) -> bool {
        (self.lo..=self.hi).contains(&ttl)
    }
}

/// The full TTL→partition map for a given margin of safety.
///
/// ```
/// use sdalloc_core::PartitionMap;
/// let map = PartitionMap::paper_default();
/// assert_eq!(map.len(), 55);                  // the paper's count
/// assert_eq!(map.partition(1).hi, 1);         // low TTLs get their own partition
/// assert!(map.partition(200).hi - map.partition(200).lo > 5); // high TTLs share
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    margin: u32,
    partitions: Vec<TtlPartition>,
    /// partition index per TTL value, for O(1) lookup.
    by_ttl: [u16; 256],
}

impl PartitionMap {
    /// Build the map for margin-of-safety `margin` (the paper uses 2).
    #[expect(
        clippy::indexing_slicing,
        reason = "by_ttl is a [_; 256] table indexed by a TTL clamped to 0..=255; windows(2) chunks have exactly two elements"
    )]
    pub fn new(margin: u32) -> PartitionMap {
        assert!(margin >= 1, "margin must be at least 1");
        let mut partitions = Vec::new();
        let mut by_ttl = [0u16; 256];
        let mut t: u32 = 0;
        while t <= 255 {
            // n = ceil(32·t / (255·m)), at least one TTL per partition.
            let n = ((32 * t).div_ceil(255 * margin)).max(1);
            let hi = (t + n - 1).min(255);
            // At most 256 single-TTL partitions exist, so the index
            // always fits; `t` and `hi` are clamped to 0..=255 above.
            let idx = u16::try_from(partitions.len())
                .unwrap_or_else(|_| unreachable!("more than 65535 partitions"));
            let (lo8, hi8) = match (u8::try_from(t), u8::try_from(hi)) {
                (Ok(lo), Ok(hi)) => (lo, hi),
                _ => unreachable!("TTL bounds escape 0..=255"),
            };
            partitions.push(TtlPartition { lo: lo8, hi: hi8 });
            for v in t..=hi {
                by_ttl[v as usize] = idx;
            }
            t = hi + 1;
        }
        debug_assert!(
            partitions.windows(2).all(|w| w[1].lo == w[0].hi + 1),
            "partitions must be contiguous and non-overlapping"
        );
        PartitionMap {
            margin,
            partitions,
            by_ttl,
        }
    }

    /// The paper's configuration: margin 2, 55 partitions.
    pub fn paper_default() -> PartitionMap {
        PartitionMap::new(2)
    }

    /// The margin of safety this map was built with.
    pub fn margin(&self) -> u32 {
        self.margin
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the map is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partitions in ascending TTL order.
    pub fn partitions(&self) -> &[TtlPartition] {
        &self.partitions
    }

    /// Index of the partition covering `ttl`.
    #[expect(
        clippy::indexing_slicing,
        reason = "by_ttl is a [_; 256] table and the index is a u8"
    )]
    pub fn partition_of(&self, ttl: u8) -> usize {
        self.by_ttl[ttl as usize] as usize
    }

    /// The partition covering `ttl`.
    #[expect(
        clippy::indexing_slicing,
        reason = "by_ttl entries are valid partition indices by construction in new()"
    )]
    pub fn partition(&self, ttl: u8) -> TtlPartition {
        self.partitions[self.partition_of(ttl)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_two_gives_55_partitions() {
        let map = PartitionMap::paper_default();
        assert_eq!(map.len(), 55, "the paper's Figure 11 count");
    }

    #[test]
    fn partitions_tile_the_ttl_range() {
        for margin in [1u32, 2, 3, 4] {
            let map = PartitionMap::new(margin);
            let mut expected_lo = 0u32;
            for p in map.partitions() {
                assert_eq!(p.lo as u32, expected_lo, "gap before {p:?} (m={margin})");
                assert!(p.hi >= p.lo);
                expected_lo = p.hi as u32 + 1;
            }
            assert_eq!(expected_lo, 256, "range not fully covered (m={margin})");
        }
    }

    #[test]
    fn lookup_matches_ranges() {
        let map = PartitionMap::paper_default();
        for ttl in 0..=255u8 {
            let p = map.partition(ttl);
            assert!(p.contains(ttl), "ttl {ttl} not in its own partition {p:?}");
        }
    }

    #[test]
    fn low_ttls_get_single_value_partitions() {
        // "Allocating one partition per TTL value is necessary at very
        // low TTLs" — for m=2 every TTL below 16 is alone.
        let map = PartitionMap::paper_default();
        for ttl in 0..16u8 {
            let p = map.partition(ttl);
            assert_eq!((p.lo, p.hi), (ttl, ttl), "ttl {ttl}");
        }
    }

    #[test]
    fn high_ttl_partitions_are_wide_but_bounded() {
        // The top partition must span fewer TTL values than the DVMRP
        // infinite metric of 32 divided by... the guideline: width less
        // than ~32/margin at the top.
        let map = PartitionMap::paper_default();
        let top = *map.partitions().last().unwrap();
        let width = top.hi as u32 - top.lo as u32 + 1;
        assert!(width <= 16, "top width {width} exceeds 32/margin");
        assert!(width >= 8, "top width {width} suspiciously narrow");
        assert_eq!(top.hi, 255);
    }

    #[test]
    fn canonical_ttls_in_distinct_partitions() {
        // The ds distributions' TTL values must land in distinct
        // partitions for the adaptive scheme to separate them.
        let map = PartitionMap::paper_default();
        let ttls = [1u8, 15, 31, 47, 63, 127, 191];
        let parts: std::collections::HashSet<usize> =
            ttls.iter().map(|&t| map.partition_of(t)).collect();
        assert_eq!(parts.len(), ttls.len());
    }

    #[test]
    fn larger_margin_fewer_wait_more_partitions() {
        // Larger margin → narrower partitions → more of them.
        let m1 = PartitionMap::new(1).len();
        let m2 = PartitionMap::new(2).len();
        let m3 = PartitionMap::new(3).len();
        assert!(m1 < m2 && m2 < m3, "{m1} {m2} {m3}");
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn zero_margin_rejected() {
        PartitionMap::new(0);
    }
}
