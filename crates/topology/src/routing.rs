//! DVMRP-style multicast routing over a [`Topology`].
//!
//! DVMRP delivers multicast along per-source shortest-path trees computed
//! on the configured routing metrics (truncated reverse-path broadcast).
//! We model exactly that: a [`SourceTree`] is the metric-shortest-path
//! tree rooted at the source, and TTL scoping is evaluated hop by hop
//! *along the tree*: crossing the k-th link on a tree path requires the
//! packet's TTL, decremented k times, to still be at least the link's
//! threshold.  From this each node gets a single number — the minimum
//! initial TTL required to receive from the source — which makes scope
//! queries O(1).
//!
//! The request–response simulations also need CBT/sparse-mode-PIM-style
//! *shared trees* ([`SharedTree`]): one tree rooted at a core, with
//! delivery between any two members along the unique tree path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdalloc_sim::SimDuration;

use crate::graph::{LinkId, NodeId, Topology, DVMRP_INFINITY};
use crate::nodeset::NodeSet;

/// Sentinel required-TTL for nodes unreachable at any TTL (disconnected
/// or beyond the DVMRP infinite metric).
pub const TTL_UNREACHABLE: u16 = u16::MAX;

/// The shortest-path tree rooted at one source, annotated with everything
/// scope queries need.
#[derive(Debug, Clone)]
pub struct SourceTree {
    /// The root.
    pub source: NodeId,
    /// For each node: the tree parent and connecting link (`None` for the
    /// source and for unreachable nodes).
    pub parent: Vec<Option<(NodeId, LinkId)>>,
    /// Metric distance from the source (`u32::MAX` when unreachable).
    pub metric: Vec<u32>,
    /// Hop count (number of links) from the source along the tree.
    pub hops: Vec<u32>,
    /// Accumulated propagation delay from the source along the tree.
    pub delay: Vec<SimDuration>,
    /// Minimum initial TTL a packet needs to reach each node, taking both
    /// the per-hop decrement and every threshold on the tree path into
    /// account.  [`TTL_UNREACHABLE`] when the node cannot be reached at
    /// any TTL.
    pub required_ttl: Vec<u16>,
}

impl SourceTree {
    /// Compute the tree for `source`.
    ///
    /// Dijkstra on DVMRP metrics with deterministic tie-breaking (lowest
    /// metric, then fewest hops, then lowest node id), so two runs over
    /// the same topology always produce the same tree.  Paths whose total
    /// metric reaches [`DVMRP_INFINITY`] are treated as unreachable, as a
    /// DVMRP router would.
    #[expect(
        clippy::indexing_slicing,
        reason = "dist/parent/hops are sized to node_count before the Dijkstra loop; link endpoints are in range by Topology's construction contract"
    )]
    pub fn compute(topo: &Topology, source: NodeId) -> SourceTree {
        let n = topo.node_count();
        let mut metric = vec![u32::MAX; n];
        let mut hops = vec![u32::MAX; n];
        let mut delay = vec![SimDuration::MAX; n];
        let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut done = vec![false; n];

        metric[source.index()] = 0;
        hops[source.index()] = 0;
        delay[source.index()] = SimDuration::ZERO;

        // (metric, hops, node id) — the extra keys make pops deterministic.
        let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, 0, source.0)));

        while let Some(Reverse((m, h, v))) = heap.pop() {
            let v = NodeId(v);
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            for &(lid, w) in topo.neighbors(v) {
                if done[w.index()] {
                    continue;
                }
                let link = topo.link(lid);
                let nm = m.saturating_add(link.metric);
                if nm >= DVMRP_INFINITY {
                    continue; // beyond the DVMRP infinite metric
                }
                let nh = h + 1;
                let better = nm < metric[w.index()]
                    || (nm == metric[w.index()] && nh < hops[w.index()])
                    || (nm == metric[w.index()]
                        && nh == hops[w.index()]
                        && parent[w.index()].map(|(p, _)| v.0 < p.0).unwrap_or(true));
                if better {
                    metric[w.index()] = nm;
                    hops[w.index()] = nh;
                    delay[w.index()] = delay[v.index()] + link.delay;
                    parent[w.index()] = Some((v, lid));
                    heap.push(Reverse((nm, nh, w.0)));
                }
            }
        }

        // required_ttl along tree paths, computed in hop order so parents
        // are always finished before children.
        let mut required_ttl = vec![TTL_UNREACHABLE; n];
        required_ttl[source.index()] = 0;
        let mut order: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| done[v.index()])
            .collect();
        order.sort_by_key(|v| hops[v.index()]);
        for v in order {
            if v == source {
                continue;
            }
            // Every `done` node except the source was reached through a
            // link, so a missing parent cannot occur; skipping it keeps
            // the loop panic-free.
            let Some((p, lid)) = parent[v.index()] else {
                continue;
            };
            let thr = topo.link(lid).threshold as u32;
            // Crossing the hops[v]-th link needs initial TTL ≥ hops + threshold.
            let need_here = hops[v.index()] + thr;
            let need = need_here.max(required_ttl[p.index()] as u32);
            required_ttl[v.index()] = need.min(TTL_UNREACHABLE as u32 - 1) as u16;
        }

        SourceTree {
            source,
            parent,
            metric,
            hops,
            delay,
            required_ttl,
        }
    }

    /// Whether a packet sent with `ttl` from this tree's source reaches `v`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn reaches(&self, v: NodeId, ttl: u8) -> bool {
        self.required_ttl[v.index()] as u32 <= ttl as u32
    }

    /// The set of nodes a packet with `ttl` reaches (always includes the
    /// source itself).
    pub fn reach_set(&self, ttl: u8) -> NodeSet {
        let mut set = NodeSet::with_capacity(self.required_ttl.len());
        for (i, &req) in self.required_ttl.iter().enumerate() {
            if req as u32 <= ttl as u32 {
                set.insert(NodeId(i as u32));
            }
        }
        set
    }

    /// Nodes reachable at `ttl` with their hop distance and delay —
    /// the per-source ingredient of the Figure 10 hop-count histograms.
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn reach_with_hops(
        &self,
        ttl: u8,
    ) -> impl Iterator<Item = (NodeId, u32, SimDuration)> + '_ {
        let ttl = ttl as u32;
        self.required_ttl
            .iter()
            .enumerate()
            .filter(move |&(_, &req)| (req as u32) <= ttl)
            .map(|(i, _)| {
                let v = NodeId(i as u32);
                (v, self.hops[i], self.delay[i])
            })
    }
}

/// A lazily-populated cache of [`SourceTree`]s, one per source.
///
/// The Mbone map has 1864 nodes; each tree costs one Dijkstra, and the
/// allocation experiments query thousands of (source, ttl) scopes, so
/// trees are computed once and retained.
pub struct SptCache {
    topo: Topology,
    trees: Vec<Option<Box<SourceTree>>>,
}

impl SptCache {
    /// Wrap a topology.
    pub fn new(topo: Topology) -> Self {
        let n = topo.node_count();
        SptCache {
            topo,
            trees: (0..n).map(|_| None).collect(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The tree rooted at `source`, computing it on first use.
    #[expect(
        clippy::indexing_slicing,
        reason = "the cache key is the minted source id; the underlying compute sizes its vectors to node_count"
    )]
    pub fn tree(&mut self, source: NodeId) -> &SourceTree {
        let topo = &self.topo;
        self.trees[source.index()]
            .get_or_insert_with(|| Box::new(SourceTree::compute(topo, source)))
    }

    /// Convenience: the reach set for `(source, ttl)`.
    pub fn reach_set(&mut self, source: NodeId, ttl: u8) -> NodeSet {
        self.tree(source).reach_set(ttl)
    }
}

/// A core-based shared tree (CBT / sparse-mode PIM model).
///
/// The tree is the shortest-path tree of the core; delivery between any
/// two members follows the unique tree path between them.  The paper's
/// request–response simulations compare this against source trees.
#[derive(Debug, Clone)]
pub struct SharedTree {
    /// The core (rendezvous point).
    pub core: NodeId,
    tree: SourceTree,
}

impl SharedTree {
    /// Build the shared tree rooted at `core`.
    pub fn compute(topo: &Topology, core: NodeId) -> SharedTree {
        SharedTree {
            core,
            tree: SourceTree::compute(topo, core),
        }
    }

    /// Pick the most central node (minimum eccentricity by delay over a
    /// sample of sources) as the core.  Deterministic.
    #[expect(
        clippy::indexing_slicing,
        reason = "eccentricity/dist tables are sized to node_count before any index"
    )]
    pub fn with_central_core(topo: &Topology) -> SharedTree {
        // Use the node minimising total delay from node 0's tree as a
        // cheap 1-median proxy: compute the tree from node 0, take the
        // median-delay node, then root there.  Good enough for a core.
        let probe = SourceTree::compute(topo, NodeId(0));
        let mut best = NodeId(0);
        let mut best_d = SimDuration::MAX;
        // The node whose max distance to the probe tree's extremes is
        // smallest approximates the graph centre.
        let far = probe
            .delay
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != SimDuration::MAX)
            .max_by_key(|(_, &d)| d)
            .map(|(i, _)| NodeId(i as u32))
            .unwrap_or(NodeId(0));
        let from_far = SourceTree::compute(topo, far);
        for i in 0..topo.node_count() {
            let d = from_far.delay[i];
            if d == SimDuration::MAX {
                continue;
            }
            // Middle of the diameter path heuristic: minimise |d - half|.
            let half = from_far
                .delay
                .iter()
                .filter(|&&x| x != SimDuration::MAX)
                .max()
                .copied()
                .unwrap_or(SimDuration::ZERO)
                / 2;
            let score = if d > half { d - half } else { half - d };
            if score < best_d {
                best_d = score;
                best = NodeId(i as u32);
            }
        }
        SharedTree::compute(topo, best)
    }

    /// Hop depth of `v` below the core (`None` if off-tree).
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn depth(&self, v: NodeId) -> Option<u32> {
        if self.tree.required_ttl[v.index()] == TTL_UNREACHABLE {
            None
        } else {
            Some(self.tree.hops[v.index()])
        }
    }

    /// Delay along the unique tree path between `a` and `b`
    /// (delay(a→lca) + delay(lca→b)).
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn path_delay(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        let lca = self.lca(a, b)?;
        let da = self.tree.delay[a.index()] - self.tree.delay[lca.index()];
        let db = self.tree.delay[b.index()] - self.tree.delay[lca.index()];
        Some(da + db)
    }

    /// Hop count along the tree path between `a` and `b`.
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn path_hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let lca = self.lca(a, b)?;
        Some(
            self.tree.hops[a.index()] + self.tree.hops[b.index()] - 2 * self.tree.hops[lca.index()],
        )
    }

    /// Lowest common ancestor of `a` and `b` on the tree.
    #[expect(
        clippy::indexing_slicing,
        reason = "parent/hops/delay are sized to node_count by compute; a foreign NodeId is a caller bug in offline analysis, not wire-reachable state"
    )]
    pub fn lca(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        if self.tree.metric[a.index()] == u32::MAX || self.tree.metric[b.index()] == u32::MAX {
            return None;
        }
        // A node with hops > 0 always has a parent on a well-formed
        // tree; a missing link means the tree is corrupt, reported as
        // "no ancestor" instead of panicking.
        let step = |v: NodeId| self.tree.parent[v.index()].map(|(p, _)| p);
        let mut x = a;
        let mut y = b;
        while self.tree.hops[x.index()] > self.tree.hops[y.index()] {
            x = step(x)?;
        }
        while self.tree.hops[y.index()] > self.tree.hops[x.index()] {
            y = step(y)?;
        }
        while x != y {
            x = step(x)?;
            y = step(y)?;
        }
        Some(x)
    }

    /// The underlying rooted tree.
    pub fn as_source_tree(&self) -> &SourceTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_sim::SimDuration;

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// A -1- B -1- C, plus a slow direct A-C link with metric 3.
    fn line_with_shortcut() -> Topology {
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let c = t.add_simple_node();
        t.add_link(a, b, 1, 1, d(10));
        t.add_link(b, c, 1, 1, d(10));
        t.add_link(a, c, 3, 1, d(5));
        t
    }

    #[test]
    fn dijkstra_prefers_low_metric() {
        let t = line_with_shortcut();
        let tree = SourceTree::compute(&t, NodeId(0));
        assert_eq!(tree.metric, vec![0, 1, 2]);
        assert_eq!(tree.hops, vec![0, 1, 2]);
        // Path a-b-c (metric 2) beats direct a-c (metric 3).
        assert_eq!(tree.parent[2].unwrap().0, NodeId(1));
        assert_eq!(tree.delay[2], d(20));
    }

    #[test]
    fn ttl_decrement_semantics() {
        // a - b - c chain, all default threshold (1).
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let c = t.add_simple_node();
        t.add_link(a, b, 1, 1, d(1));
        t.add_link(b, c, 1, 1, d(1));
        let tree = SourceTree::compute(&t, a);
        // TTL 1 stays on the source subnet.
        assert!(tree.reaches(a, 1));
        assert!(!tree.reaches(b, 1));
        // TTL 2 crosses one link.
        assert!(tree.reaches(b, 2));
        assert!(!tree.reaches(c, 2));
        // TTL 3 crosses two.
        assert!(tree.reaches(c, 3));
        assert_eq!(tree.required_ttl, vec![0, 2, 3]);
    }

    #[test]
    fn threshold_blocks_low_ttl() {
        // a -[thr 16]- b: a site boundary.
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        t.add_link(a, b, 1, 16, d(1));
        let tree = SourceTree::compute(&t, a);
        // Needs TTL >= 1 + 16 = 17 to cross.
        assert!(!tree.reaches(b, 15));
        assert!(!tree.reaches(b, 16));
        assert!(tree.reaches(b, 17));
    }

    #[test]
    fn threshold_remembered_downstream() {
        // a -[thr 48]- b -1- c: once past the boundary the constraint stays.
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let c = t.add_simple_node();
        t.add_link(a, b, 1, 48, d(1));
        t.add_link(b, c, 1, 1, d(1));
        let tree = SourceTree::compute(&t, a);
        assert_eq!(tree.required_ttl[b.index()], 49);
        // c needs max(49, 2 + 1) = 49.
        assert_eq!(tree.required_ttl[c.index()], 49);
    }

    #[test]
    fn deep_paths_raise_required_ttl() {
        // A 20-hop chain: reaching the end needs TTL >= 21.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..21).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, d(1));
        }
        let tree = SourceTree::compute(&t, nodes[0]);
        assert_eq!(tree.required_ttl[nodes[20].index()], 21);
        assert!(tree.reaches(nodes[20], 21));
        assert!(!tree.reaches(nodes[20], 20));
    }

    #[test]
    fn dvmrp_infinity_cuts_reachability() {
        // Two nodes joined only by a metric-32 link: unreachable.
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        t.add_link(a, b, 32, 1, d(1));
        let tree = SourceTree::compute(&t, a);
        assert_eq!(tree.metric[b.index()], u32::MAX);
        assert_eq!(tree.required_ttl[b.index()], TTL_UNREACHABLE);
        assert!(!tree.reaches(b, 255));
    }

    #[test]
    fn accumulated_metric_hits_infinity() {
        // Chain of metric-8 links: after 4 links the metric is 32 → cut.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 8, 1, d(1));
        }
        let tree = SourceTree::compute(&t, nodes[0]);
        assert_eq!(tree.metric[nodes[3].index()], 24);
        assert_eq!(tree.metric[nodes[4].index()], u32::MAX);
    }

    #[test]
    fn reach_set_matches_reaches() {
        let t = line_with_shortcut();
        let tree = SourceTree::compute(&t, NodeId(0));
        for ttl in [0u8, 1, 2, 3, 4, 255] {
            let set = tree.reach_set(ttl);
            for v in 0..3u32 {
                assert_eq!(set.contains(NodeId(v)), tree.reaches(NodeId(v), ttl));
            }
        }
    }

    #[test]
    fn source_always_in_reach_set() {
        let t = line_with_shortcut();
        let tree = SourceTree::compute(&t, NodeId(1));
        assert!(tree.reach_set(0).contains(NodeId(1)));
    }

    #[test]
    fn spt_cache_returns_consistent_trees() {
        let t = line_with_shortcut();
        let mut cache = SptCache::new(t);
        let m1 = cache.tree(NodeId(0)).metric.clone();
        let m2 = cache.tree(NodeId(0)).metric.clone();
        assert_eq!(m1, m2);
        let set = cache.reach_set(NodeId(0), 3);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn shared_tree_path_delay_symmetric() {
        // star: core c with leaves x, y.
        let mut t = Topology::new();
        let c = t.add_simple_node();
        let x = t.add_simple_node();
        let y = t.add_simple_node();
        t.add_link(c, x, 1, 1, d(10));
        t.add_link(c, y, 1, 1, d(20));
        let st = SharedTree::compute(&t, c);
        assert_eq!(st.path_delay(x, y), Some(d(30)));
        assert_eq!(st.path_delay(y, x), Some(d(30)));
        assert_eq!(st.path_delay(x, c), Some(d(10)));
        assert_eq!(st.path_hops(x, y), Some(2));
        assert_eq!(st.lca(x, y), Some(c));
    }

    #[test]
    fn shared_tree_lca_on_chain() {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, d(1));
        }
        let st = SharedTree::compute(&t, nodes[0]);
        assert_eq!(st.lca(nodes[4], nodes[2]), Some(nodes[2]));
        assert_eq!(st.path_delay(nodes[4], nodes[2]), Some(d(2)));
        assert_eq!(st.path_hops(nodes[1], nodes[4]), Some(3));
    }

    #[test]
    fn central_core_is_reasonable() {
        // On a chain, the centre should be near the middle.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..9).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, d(10));
        }
        let st = SharedTree::with_central_core(&t);
        let mid = st.core.index();
        assert!((3..=5).contains(&mid), "core at {mid}");
    }

    #[test]
    fn determinism_same_tree_twice() {
        let t = line_with_shortcut();
        let a = SourceTree::compute(&t, NodeId(0));
        let b = SourceTree::compute(&t, NodeId(0));
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.required_ttl, b.required_ttl);
        assert_eq!(
            a.parent
                .iter()
                .map(|p| p.map(|(n, _)| n))
                .collect::<Vec<_>>(),
            b.parent
                .iter()
                .map(|p| p.map(|(n, _)| n))
                .collect::<Vec<_>>()
        );
    }
}
