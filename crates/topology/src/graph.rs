//! The multicast topology graph.
//!
//! Nodes model mrouters; undirected links carry a DVMRP routing metric,
//! a configured TTL threshold and a propagation delay.  This mirrors the
//! information the paper extracted from the mcollect map of the Mbone:
//! "a simulation model of the Mbone topology including all the TTL
//! thresholds and DVMRP routing metrics in use".
//!
//! TTL threshold semantics (Section 1 of the paper): a router forwarding
//! a packet across a link decrements the packet's TTL and then drops the
//! packet if the decremented TTL is *less than* the link's configured
//! threshold.  An unconfigured link behaves as threshold 1 (the packet
//! merely needs to still be alive).

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use sdalloc_sim::SimDuration;

/// Index of a node (mrouter) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize, for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index as a usize, for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected link between two mrouters.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// DVMRP routing metric (hop cost).  The DVMRP infinite metric is 32,
    /// so any usable link has metric 1..=31.
    pub metric: u32,
    /// Configured TTL threshold; 1 for ordinary links.  A packet crosses
    /// the link only if its TTL, after the per-hop decrement, is at least
    /// this value.
    pub threshold: u8,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

/// The DVMRP infinite routing metric: paths costing this much or more are
/// unreachable.  (Paper, Section 2.4.1: "the DVMRP infinite routing
/// metric of 32".)
pub const DVMRP_INFINITY: u32 = 32;

/// A node (mrouter) with optional placement metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Node {
    /// Free-form label ("eu/uk/region2/site5/r1") used by generators;
    /// purely informational.
    pub label: String,
    /// Coordinates in an abstract plane, used by distance-based delay
    /// models and the Doar-style generator.  `(0,0)` when unused.
    pub pos: (f64, f64),
}

/// An immutable multicast topology: nodes plus undirected links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[v] = list of (link id, neighbour) pairs.
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
}

/// Convert a node/link index into the `u32` id space.  `add_node` /
/// `add_link` cap the collections at `u32::MAX` entries, so the
/// saturating fallback can never fire for an in-range index.
fn id_u32(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node, returning its id.
    ///
    /// Panics if the node count would overflow the `u32` id space —
    /// a wrapping id would silently alias an existing node.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let raw = u32::try_from(self.nodes.len());
        assert!(raw.is_ok(), "node count overflows the u32 id space");
        let id = NodeId(raw.unwrap_or(u32::MAX));
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an unlabeled node at the origin.
    pub fn add_simple_node(&mut self) -> NodeId {
        self.add_node(Node::default())
    }

    /// Add an undirected link.  Panics on self-loops or out-of-range
    /// endpoints; a zero metric is clamped to 1 and a zero threshold to 1.
    #[expect(
        clippy::indexing_slicing,
        reason = "the asserts are the documented construction contract (no self-loops, endpoints in range); topology building is offline, not the packet path"
    )]
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        metric: u32,
        threshold: u8,
        delay: SimDuration,
    ) -> LinkId {
        assert!(a != b, "self-loop on node {a:?}");
        assert!(a.index() < self.nodes.len(), "node {a:?} out of range");
        assert!(b.index() < self.nodes.len(), "node {b:?} out of range");
        let raw = u32::try_from(self.links.len());
        assert!(raw.is_ok(), "link count overflows the u32 id space");
        let id = LinkId(raw.unwrap_or(u32::MAX));
        self.links.push(Link {
            a,
            b,
            metric: metric.max(1),
            threshold: threshold.max(1),
            delay,
        });
        self.adjacency[a.index()].push((id, b));
        self.adjacency[b.index()].push((id, a));
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..id_u32(self.nodes.len())).map(NodeId)
    }

    /// Node metadata.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by add_node and validated there; an out-of-range id is a caller bug in offline topology construction, not wire-reachable state"
    )]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node metadata.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by add_node and validated there; an out-of-range id is a caller bug in offline topology construction, not wire-reachable state"
    )]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Link attributes.
    #[expect(
        clippy::indexing_slicing,
        reason = "link ids are minted by add_link; an out-of-range id is a caller bug in offline topology construction, not wire-reachable state"
    )]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbours of `v` as `(link, neighbour)` pairs.
    #[expect(
        clippy::indexing_slicing,
        reason = "adjacency is sized to the node count by add_node; ids are minted there"
    )]
    pub fn neighbors(&self, v: NodeId) -> &[(LinkId, NodeId)] {
        &self.adjacency[v.index()]
    }

    /// Degree of a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "adjacency is sized to the node count by add_node; ids are minted there"
    )]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v.index()].len()
    }

    /// Whether every node can reach every other node (ignoring TTL).
    #[expect(
        clippy::indexing_slicing,
        reason = "every index comes from the graph's own adjacency lists, always below node_count"
    )]
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(_, w) in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Return the node ids of the largest connected component.
    ///
    /// The paper removed disconnected subtrees of the mcollect map before
    /// simulating; generators use this for the same clean-up.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index comes from the graph's own adjacency lists, always below node_count"
    )]
    pub fn largest_component(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut comp = vec![usize::MAX; n];
        let mut sizes: Vec<usize> = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = sizes.len();
            let mut size = 0usize;
            let mut stack = vec![NodeId(id_u32(start))];
            comp[start] = c;
            while let Some(v) = stack.pop() {
                size += 1;
                for &(_, w) in self.neighbors(v) {
                    if comp[w.index()] == usize::MAX {
                        comp[w.index()] = c;
                        stack.push(w);
                    }
                }
            }
            sizes.push(size);
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .map(|(c, _)| c)
            .unwrap_or(0);
        (0..id_u32(n))
            .map(NodeId)
            .filter(|v| comp[v.index()] == best)
            .collect()
    }

    /// Build a new topology containing only the given nodes (and the links
    /// among them), renumbering node ids densely.  Returns the new
    /// topology and a mapping from old id to new id.
    #[expect(
        clippy::indexing_slicing,
        reason = "the id map is sized to node_count and only minted ids index it; offline topology surgery, not the packet path"
    )]
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Topology, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut out = Topology::new();
        for &v in keep {
            let nv = out.add_node(self.nodes[v.index()].clone());
            map[v.index()] = Some(nv);
        }
        for link in &self.links {
            if let (Some(na), Some(nb)) = (map[link.a.index()], map[link.b.index()]) {
                out.add_link(na, nb, link.metric, link.threshold, link.delay);
            }
        }
        (out, map)
    }

    /// The highest TTL threshold configured on any link.
    pub fn max_threshold(&self) -> u8 {
        self.links.iter().map(|l| l.threshold).max().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn triangle() -> Topology {
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let c = t.add_simple_node();
        t.add_link(a, b, 1, 1, d(1));
        t.add_link(b, c, 1, 1, d(1));
        t.add_link(c, a, 1, 1, d(1));
        t
    }

    #[test]
    fn construction_and_accessors() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
    }

    #[test]
    fn metric_and_threshold_clamped() {
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let l = t.add_link(a, b, 0, 0, d(1));
        assert_eq!(t.link(l).metric, 1);
        assert_eq!(t.link(l).threshold, 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_simple_node();
        t.add_link(a, a, 1, 1, d(1));
    }

    #[test]
    fn connectivity() {
        let t = triangle();
        assert!(t.is_connected());
        let mut t2 = triangle();
        t2.add_simple_node(); // isolated
        assert!(!t2.is_connected());
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new().is_connected());
    }

    #[test]
    fn largest_component_picks_biggest() {
        let mut t = Topology::new();
        // Component 1: pair.
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        t.add_link(a, b, 1, 1, d(1));
        // Component 2: triangle.
        let c = t.add_simple_node();
        let e = t.add_simple_node();
        let f = t.add_simple_node();
        t.add_link(c, e, 1, 1, d(1));
        t.add_link(e, f, 1, 1, d(1));
        t.add_link(f, c, 1, 1, d(1));
        let comp = t.largest_component();
        assert_eq!(comp, vec![c, e, f]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let mut t = Topology::new();
        let a = t.add_simple_node();
        let b = t.add_simple_node();
        let c = t.add_simple_node();
        t.add_link(a, b, 2, 16, d(5));
        t.add_link(b, c, 1, 1, d(1));
        let (sub, map) = t.induced_subgraph(&[b, c]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 1);
        assert_eq!(map[a.index()], None);
        assert_eq!(map[b.index()], Some(NodeId(0)));
        assert_eq!(map[c.index()], Some(NodeId(1)));
        assert_eq!(sub.link(LinkId(0)).metric, 1);
    }

    #[test]
    fn max_threshold() {
        let mut t = triangle();
        assert_eq!(t.max_threshold(), 1);
        let a = t.add_simple_node();
        t.add_link(NodeId(0), a, 1, 64, d(40));
        assert_eq!(t.max_threshold(), 64);
    }
}
