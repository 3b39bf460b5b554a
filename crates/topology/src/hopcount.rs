//! Hop-count distribution analysis (Figure 10 and its table).
//!
//! The paper builds, "from the mcollect network map, … a histogram of
//! number of mrouters against distance from that mrouter for each of
//! four commonly used TTLs.  The graph shows the combined histogram for
//! all potential sources."  The accompanying table extracts the most
//! frequent and maximum hop count per TTL, the numbers that justify the
//! TTL→partition mapping of Deterministic Adaptive IPRMA.

use sdalloc_sim::Histogram;

use crate::graph::{NodeId, Topology};
use crate::routing::SourceTree;

/// Combined hop-count histogram for one TTL scope.
#[derive(Debug, Clone)]
pub struct HopCountProfile {
    /// The session TTL analysed.
    pub ttl: u8,
    /// Histogram of (hop distance → number of reachable mrouters),
    /// combined over all sources, excluding the zero-hop self entry.
    pub histogram: Histogram,
}

impl HopCountProfile {
    /// Most frequent hop count (the table's first column).
    pub fn most_frequent(&self) -> Option<usize> {
        self.histogram.mode()
    }

    /// Maximum hop count observed (the table's second column).
    pub fn max_hops(&self) -> Option<usize> {
        self.histogram.max_value()
    }

    /// Mean hop count.
    pub fn mean_hops(&self) -> f64 {
        self.histogram.mean()
    }

    /// Normalised frequencies, as plotted in Figure 10.
    pub fn normalized(&self) -> Vec<f64> {
        self.histogram.normalized()
    }
}

/// Compute combined hop-count profiles for several TTLs at once.
///
/// Runs one Dijkstra per source (per the DVMRP model) and accumulates
/// every reachable node's hop distance into each TTL's histogram.
/// Sources may be sub-sampled via `stride` (1 = every node, the paper's
/// choice) to trade accuracy for speed on large maps.
#[expect(
    clippy::indexing_slicing,
    reason = "tree.hops is sized to node_count by SourceTree::compute; offline analysis, not the packet path"
)]
pub fn hop_count_profiles(topo: &Topology, ttls: &[u8], stride: usize) -> Vec<HopCountProfile> {
    assert!(stride >= 1, "stride must be positive");
    let mut profiles: Vec<HopCountProfile> = ttls
        .iter()
        .map(|&ttl| HopCountProfile {
            ttl,
            histogram: Histogram::new(),
        })
        .collect();
    for src_idx in (0..topo.node_count()).step_by(stride) {
        let tree = SourceTree::compute(topo, NodeId(src_idx as u32));
        for (i, &req) in tree.required_ttl.iter().enumerate() {
            if i == src_idx {
                continue; // skip the zero-hop self entry
            }
            if req == crate::routing::TTL_UNREACHABLE {
                continue;
            }
            let hops = tree.hops[i] as usize;
            for profile in profiles.iter_mut() {
                if req as u32 <= profile.ttl as u32 {
                    profile.histogram.add(hops);
                }
            }
        }
    }
    profiles
}

/// One row of the paper's TTL table.
#[derive(Debug, Clone, PartialEq)]
pub struct TtlTableRow {
    /// Session TTL.
    pub ttl: u8,
    /// Most frequent hop count.
    pub most_frequent: f64,
    /// Maximum hop count.
    pub max_hops: u32,
}

/// Produce the Section 2.4.1 table for the canonical TTLs.
pub fn ttl_table(topo: &Topology, stride: usize) -> Vec<TtlTableRow> {
    let ttls = [16u8, 47, 63, 127];
    hop_count_profiles(topo, &ttls, stride)
        .into_iter()
        .map(|p| TtlTableRow {
            ttl: p.ttl,
            most_frequent: p.most_frequent().unwrap_or(0) as f64,
            max_hops: p.max_hops().unwrap_or(0) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbone::{MboneMap, MboneParams};
    use sdalloc_sim::SimDuration;

    #[test]
    fn chain_profile() {
        // 5-node chain: from each node, hop distances are symmetric.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, SimDuration::from_millis(1));
        }
        let profiles = hop_count_profiles(&t, &[255], 1);
        let h = &profiles[0].histogram;
        // Distances over all ordered pairs of a 5-chain:
        // hop 1 ×8, hop 2 ×6, hop 3 ×4, hop 4 ×2.
        assert_eq!(h.count(1), 8);
        assert_eq!(h.count(2), 6);
        assert_eq!(h.count(3), 4);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(0), 0, "self entries excluded");
        assert_eq!(profiles[0].most_frequent(), Some(1));
        assert_eq!(profiles[0].max_hops(), Some(4));
    }

    #[test]
    fn low_ttl_truncates_histogram() {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, SimDuration::from_millis(1));
        }
        // TTL 3 reaches at most 2 hops.
        let profiles = hop_count_profiles(&t, &[3], 1);
        assert_eq!(profiles[0].max_hops(), Some(2));
    }

    #[test]
    fn mbone_table_matches_paper_shape() {
        // The calibration test: hop counts must be roughly proportional
        // to TTL, the ordering 16 < 47 <= 63 < 127 must hold, and the
        // maxima must stay under DVMRP infinity (32).  The paper's values
        // are 3.1/7.0/7.7/10.6 most-frequent and 10/18/18/26 max.
        let map = MboneMap::generate(&MboneParams {
            seed: 1,
            target_nodes: 1000,
        });
        let table = ttl_table(&map.topo, 3);
        assert_eq!(table.len(), 4);
        let mf: Vec<f64> = table.iter().map(|r| r.most_frequent).collect();
        let mx: Vec<u32> = table.iter().map(|r| r.max_hops).collect();
        // TTL 16 local: small hop counts.
        assert!(mf[0] >= 1.0 && mf[0] <= 6.0, "ttl16 mode {}", mf[0]);
        assert!(mx[0] <= 14, "ttl16 max {}", mx[0]);
        // Monotone growth of maxima with TTL.
        assert!(mx[0] < mx[2] && mx[2] <= mx[3], "maxima {mx:?}");
        // Intercontinental scope is the deepest and within DVMRP bounds.
        assert!(mx[3] <= 32, "ttl127 max {}", mx[3]);
        assert!(mf[3] >= mf[0], "modes {mf:?}");
    }

    #[test]
    fn stride_subsampling_close_to_full() {
        let map = MboneMap::generate(&MboneParams {
            seed: 2,
            target_nodes: 400,
        });
        let full = hop_count_profiles(&map.topo, &[127], 1);
        let sub = hop_count_profiles(&map.topo, &[127], 5);
        // Means should agree within ~20%.
        let a = full[0].mean_hops();
        let b = sub[0].mean_hops();
        assert!((a - b).abs() / a < 0.2, "full {a} vs sub {b}");
    }
}
