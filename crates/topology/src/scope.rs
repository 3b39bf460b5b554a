//! Scope-zone queries: who hears a session, and can two sessions clash?
//!
//! Under TTL scoping a session is a `(source, ttl)` pair; its *scope
//! zone* is the set of mrouters its data (and therefore its SAP
//! announcement, which is sent with the same scope) reaches.  Two
//! sessions on the same multicast address **clash** when their scope
//! zones overlap — some receiver could hear both.  Note the asymmetry
//! the paper highlights: zone overlap does not require mutual
//! visibility, because TTL decrements along the path, so A may reach B's
//! zone without B's announcements reaching A.

use std::collections::HashMap;

use crate::graph::{NodeId, Topology};
use crate::nodeset::NodeSet;
use crate::routing::SptCache;

/// A session's scope: where it is sourced and how far it travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scope {
    /// Originating mrouter.
    pub source: NodeId,
    /// Initial TTL of data and announcement packets.
    pub ttl: u8,
}

impl Scope {
    /// Construct a scope.
    pub fn new(source: NodeId, ttl: u8) -> Self {
        Scope { source, ttl }
    }
}

/// Caches reach sets per `(source, ttl)` on top of an [`SptCache`].
///
/// The steady-state simulations test every candidate address against
/// every visible session, so `zones_overlap` and `sees` must be cheap:
/// `sees` is O(1) via the tree's per-node required TTL, and
/// `zones_overlap` is a bitset AND over cached reach sets.
pub struct ScopeCache {
    spt: SptCache,
    sets: HashMap<Scope, NodeSet>,
}

impl ScopeCache {
    /// Wrap a topology.
    pub fn new(topo: Topology) -> Self {
        ScopeCache {
            spt: SptCache::new(topo),
            sets: HashMap::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.spt.topology()
    }

    /// Underlying shortest-path-tree cache.
    pub fn spt(&mut self) -> &mut SptCache {
        &mut self.spt
    }

    /// Whether `observer` hears announcements for `scope` — i.e. whether
    /// the scope's packets reach the observer.
    pub fn sees(&mut self, observer: NodeId, scope: Scope) -> bool {
        self.spt.tree(scope.source).reaches(observer, scope.ttl)
    }

    /// The scope's reach set (cached).
    pub fn reach_set(&mut self, scope: Scope) -> &NodeSet {
        let spt = &mut self.spt;
        self.sets
            .entry(scope)
            .or_insert_with(|| spt.tree(scope.source).reach_set(scope.ttl))
    }

    /// Number of mrouters inside the scope zone.
    pub fn zone_size(&mut self, scope: Scope) -> usize {
        self.reach_set(scope).len()
    }

    /// Whether two sessions with the same address would clash: their
    /// scope zones share at least one mrouter.
    pub fn zones_overlap(&mut self, a: Scope, b: Scope) -> bool {
        // Fast path: each zone contains its own source, so mutual source
        // containment settles most overlapping pairs without set algebra.
        if self.sees(b.source, a) || self.sees(a.source, b) {
            return true;
        }
        // Ensure both sets are cached, then intersect.  `reach_set`
        // inserts any missing entry, so the fallthrough arm is dead; it
        // reads as "no overlap" to keep this path panic-free.
        self.reach_set(a);
        self.reach_set(b);
        match (self.sets.get(&a), self.sets.get(&b)) {
            (Some(sa), Some(sb)) => sa.intersects(sb),
            _ => false,
        }
    }

    /// Number of cached reach sets (for memory accounting in tests).
    pub fn cached_sets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_sim::SimDuration;

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// Two "sites" joined by a threshold-16 boundary link:
    ///   a0 - a1 -[16]- b0 - b1
    fn two_sites() -> Topology {
        let mut t = Topology::new();
        let a0 = t.add_simple_node();
        let a1 = t.add_simple_node();
        let b0 = t.add_simple_node();
        let b1 = t.add_simple_node();
        t.add_link(a0, a1, 1, 1, d(1));
        t.add_link(a1, b0, 1, 16, d(5));
        t.add_link(b0, b1, 1, 1, d(1));
        t
    }

    #[test]
    fn local_scopes_do_not_overlap() {
        let mut cache = ScopeCache::new(two_sites());
        // TTL 15 from a0 stays on the a-side; TTL 15 from b1 stays b-side.
        let sa = Scope::new(NodeId(0), 15);
        let sb = Scope::new(NodeId(3), 15);
        assert!(!cache.zones_overlap(sa, sb));
        // Same-side scopes overlap.
        let sa2 = Scope::new(NodeId(1), 15);
        assert!(cache.zones_overlap(sa, sa2));
    }

    #[test]
    fn global_scope_overlaps_local() {
        let mut cache = ScopeCache::new(two_sites());
        let local = Scope::new(NodeId(0), 15);
        let global = Scope::new(NodeId(3), 127);
        // The asymmetry: the local scope's announcements never reach b1...
        assert!(!cache.sees(NodeId(3), local));
        // ...but the global session reaches the local zone, so they clash.
        assert!(cache.zones_overlap(local, global));
        assert!(cache.zones_overlap(global, local));
    }

    #[test]
    fn sees_is_directional() {
        let mut cache = ScopeCache::new(two_sites());
        // a1 (inside site a) hears a TTL-15 announcement from a0.
        assert!(cache.sees(NodeId(1), Scope::new(NodeId(0), 15)));
        // b0 does not (boundary threshold 16).
        assert!(!cache.sees(NodeId(2), Scope::new(NodeId(0), 15)));
        // But a TTL-18 announcement crosses.
        assert!(cache.sees(NodeId(2), Scope::new(NodeId(0), 18)));
    }

    #[test]
    fn zone_sizes() {
        let mut cache = ScopeCache::new(two_sites());
        assert_eq!(cache.zone_size(Scope::new(NodeId(0), 1)), 1);
        assert_eq!(cache.zone_size(Scope::new(NodeId(0), 15)), 2);
        assert_eq!(cache.zone_size(Scope::new(NodeId(0), 127)), 4);
    }

    #[test]
    fn reach_sets_are_cached() {
        let mut cache = ScopeCache::new(two_sites());
        let s = Scope::new(NodeId(0), 15);
        cache.reach_set(s);
        cache.reach_set(s);
        assert_eq!(cache.cached_sets(), 1);
    }

    #[test]
    fn overlap_is_symmetric_property() {
        let mut cache = ScopeCache::new(two_sites());
        let scopes = [
            Scope::new(NodeId(0), 1),
            Scope::new(NodeId(0), 15),
            Scope::new(NodeId(1), 18),
            Scope::new(NodeId(2), 15),
            Scope::new(NodeId(3), 127),
        ];
        for &x in &scopes {
            for &y in &scopes {
                assert_eq!(
                    cache.zones_overlap(x, y),
                    cache.zones_overlap(y, x),
                    "asymmetric overlap for {x:?} {y:?}"
                );
            }
        }
    }

    #[test]
    fn scope_always_overlaps_itself() {
        let mut cache = ScopeCache::new(two_sites());
        let s = Scope::new(NodeId(2), 15);
        assert!(cache.zones_overlap(s, s));
    }
}
