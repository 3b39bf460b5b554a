//! Administrative scoping (the paper's Section 1 alternative to TTL
//! scoping; RFC 2365 style).
//!
//! "Administrative scoping is a relatively simple problem domain in
//! that, barring failures, two sites communicating within the scope
//! zone will be able to hear each other's messages, and no site outside
//! the scope zone can get any multicast packet into the scope zone if
//! it uses an address from the scope zone range."
//!
//! A zone is a *convex* region of the topology bounded by filters on an
//! address range: membership is symmetric (unlike TTL zones), so the
//! "informed" part of IPRMA is sufficient inside a zone — which is why
//! the paper notes its "simpler solutions work well for administrative
//! scope zone address allocation".
//!
//! Zones must nest or be disjoint (the RFC 2365 invariant); overlapping
//! zones would make the boundary filters ambiguous.

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use crate::graph::{NodeId, Topology};
use crate::nodeset::NodeSet;

/// Identifier of an administrative scope zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

/// One administrative scope zone: a named node set with a dedicated
/// address sub-range (indices into the admin-scoped address space,
/// e.g. 239.0.0.0/8 in deployment).
#[derive(Debug, Clone)]
pub struct AdminZone {
    /// Zone id.
    pub id: ZoneId,
    /// Human-readable name ("isi-campus", "us-west").
    pub name: String,
    /// Mrouters inside the zone.
    pub members: NodeSet,
    /// Address sub-range `[lo, hi)` reserved for this zone.
    pub range: (u32, u32),
}

/// Errors from zone registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminError {
    /// The zone's members are not connected within the zone — packets
    /// could not reach all members without leaving it.
    NotConvex,
    /// Two zones partially overlap (neither nests inside the other).
    PartialOverlap(ZoneId),
    /// Two zones' address ranges collide without the zones nesting.
    RangeCollision(ZoneId),
    /// Empty member set or empty address range.
    Empty,
    /// The zone count would overflow the `u32` id space.
    TooManyZones,
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::NotConvex => write!(f, "zone members are not internally connected"),
            AdminError::PartialOverlap(z) => {
                write!(f, "zone partially overlaps existing zone {}", z.0)
            }
            AdminError::RangeCollision(z) => {
                write!(f, "address range collides with non-nested zone {}", z.0)
            }
            AdminError::Empty => write!(f, "zone has no members or no addresses"),
            AdminError::TooManyZones => write!(f, "zone count overflows the u32 id space"),
        }
    }
}

impl std::error::Error for AdminError {}

/// The set of administrative zones configured on a topology.
#[derive(Debug, Clone, Default)]
pub struct AdminScoping {
    zones: Vec<AdminZone>,
}

impl AdminScoping {
    /// No zones configured.
    pub fn new() -> Self {
        AdminScoping::default()
    }

    /// All zones.
    pub fn zones(&self) -> &[AdminZone] {
        &self.zones
    }

    /// Look up a zone.
    pub fn zone(&self, id: ZoneId) -> Option<&AdminZone> {
        self.zones.iter().find(|z| z.id == id)
    }

    /// Register a zone, enforcing the RFC 2365 invariants:
    /// members connected within the zone (convexity), zones nested or
    /// disjoint, and address ranges shared only between nested zones.
    pub fn add_zone(
        &mut self,
        topo: &Topology,
        name: &str,
        members: NodeSet,
        range: (u32, u32),
    ) -> Result<ZoneId, AdminError> {
        if members.is_empty() || range.1 <= range.0 {
            return Err(AdminError::Empty);
        }
        if !is_internally_connected(topo, &members) {
            return Err(AdminError::NotConvex);
        }
        for z in &self.zones {
            let nested = members.is_subset(&z.members) || z.members.is_subset(&members);
            if members.intersects(&z.members) && !nested {
                return Err(AdminError::PartialOverlap(z.id));
            }
            let ranges_overlap = range.0 < z.range.1 && z.range.0 < range.1;
            if ranges_overlap && !nested {
                return Err(AdminError::RangeCollision(z.id));
            }
        }
        let Ok(raw) = u32::try_from(self.zones.len()) else {
            return Err(AdminError::TooManyZones);
        };
        let id = ZoneId(raw);
        self.zones.push(AdminZone {
            id,
            name: name.to_string(),
            members,
            range,
        });
        Ok(id)
    }

    /// Zones containing `node`, innermost (smallest) first.
    pub fn zones_of(&self, node: NodeId) -> Vec<ZoneId> {
        let mut v: Vec<&AdminZone> = self
            .zones
            .iter()
            .filter(|z| z.members.contains(node))
            .collect();
        v.sort_by_key(|z| z.members.len());
        v.iter().map(|z| z.id).collect()
    }

    /// Whether `a` and `b` can exchange traffic on `zone`'s addresses:
    /// both must be members (the symmetric-visibility property TTL
    /// scoping lacks).
    pub fn can_communicate(&self, zone: ZoneId, a: NodeId, b: NodeId) -> bool {
        self.zone(zone)
            .map(|z| z.members.contains(a) && z.members.contains(b))
            .unwrap_or(false)
    }

    /// Whether a packet sent by `src` on an address in `zone`'s range
    /// can be heard at `dst`.  Non-members can never get zone-range
    /// traffic *into* the zone — the property that makes administrative
    /// allocation easy.
    pub fn zone_traffic_reaches(&self, zone: ZoneId, src: NodeId, dst: NodeId) -> bool {
        self.can_communicate(zone, src, dst)
    }

    /// The zone owning address index `addr`, innermost first.
    pub fn zones_for_address(&self, addr: u32) -> Vec<ZoneId> {
        let mut v: Vec<&AdminZone> = self
            .zones
            .iter()
            .filter(|z| (z.range.0..z.range.1).contains(&addr))
            .collect();
        v.sort_by_key(|z| z.range.1 - z.range.0);
        v.iter().map(|z| z.id).collect()
    }
}

/// Whether the member set is connected using only member-to-member links.
fn is_internally_connected(topo: &Topology, members: &NodeSet) -> bool {
    let Some(start) = members.iter().next() else {
        return true;
    };
    let mut seen = NodeSet::with_capacity(members.capacity());
    let mut stack = vec![start];
    seen.insert(start);
    let mut count = 1usize;
    while let Some(v) = stack.pop() {
        for &(_, w) in topo.neighbors(v) {
            if members.contains(w) && !seen.contains(w) {
                seen.insert(w);
                count += 1;
                stack.push(w);
            }
        }
    }
    count == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_sim::SimDuration;

    /// chain 0-1-2-3-4-5.
    fn chain(n: u32) -> Topology {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| t.add_simple_node()).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], 1, 1, SimDuration::from_millis(1));
        }
        t
    }

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        let mut s = NodeSet::with_capacity(capacity);
        for &i in ids {
            s.insert(NodeId(i));
        }
        s
    }

    #[test]
    fn add_and_query_zone() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let z = admin
            .add_zone(&topo, "left", set(6, &[0, 1, 2]), (0, 100))
            .unwrap();
        assert!(admin.can_communicate(z, NodeId(0), NodeId(2)));
        assert!(!admin.can_communicate(z, NodeId(0), NodeId(3)));
        assert_eq!(admin.zones_of(NodeId(1)), vec![z]);
        assert!(admin.zones_of(NodeId(5)).is_empty());
        assert_eq!(admin.zones_for_address(50), vec![z]);
        assert!(admin.zones_for_address(100).is_empty());
    }

    #[test]
    fn disconnected_zone_rejected() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        // 0 and 2 without 1: not convex.
        let err = admin.add_zone(&topo, "holey", set(6, &[0, 2]), (0, 10));
        assert_eq!(err, Err(AdminError::NotConvex));
    }

    #[test]
    fn nesting_allowed_partial_overlap_rejected() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let outer = admin
            .add_zone(&topo, "outer", set(6, &[0, 1, 2, 3]), (0, 100))
            .unwrap();
        // Nested inner zone with nested range: fine.
        let inner = admin
            .add_zone(&topo, "inner", set(6, &[1, 2]), (0, 50))
            .unwrap();
        assert_ne!(outer, inner);
        // Partial overlap (2,3,4 vs 0..3): rejected.
        let err = admin.add_zone(&topo, "straddle", set(6, &[2, 3, 4]), (200, 300));
        assert_eq!(err, Err(AdminError::PartialOverlap(outer)));
    }

    #[test]
    fn range_collision_between_disjoint_zones_rejected() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let left = admin
            .add_zone(&topo, "left", set(6, &[0, 1]), (0, 100))
            .unwrap();
        let err = admin.add_zone(&topo, "right", set(6, &[4, 5]), (50, 150));
        assert_eq!(err, Err(AdminError::RangeCollision(left)));
        // Disjoint ranges are fine — and the same range may then be
        // reused by... no: disjoint zones with disjoint ranges only.
        assert!(admin
            .add_zone(&topo, "right", set(6, &[4, 5]), (100, 200))
            .is_ok());
    }

    #[test]
    fn empty_zone_rejected() {
        let topo = chain(3);
        let mut admin = AdminScoping::new();
        assert_eq!(
            admin.add_zone(&topo, "none", NodeSet::with_capacity(3), (0, 10)),
            Err(AdminError::Empty)
        );
        assert_eq!(
            admin.add_zone(&topo, "norange", set(3, &[0]), (5, 5)),
            Err(AdminError::Empty)
        );
    }

    #[test]
    fn symmetric_visibility_property() {
        // The property TTL scoping lacks: communication within a zone is
        // symmetric by construction.
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let z = admin
            .add_zone(&topo, "z", set(6, &[1, 2, 3]), (0, 16))
            .unwrap();
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(
                    admin.can_communicate(z, NodeId(a), NodeId(b)),
                    admin.can_communicate(z, NodeId(b), NodeId(a)),
                );
            }
        }
    }

    #[test]
    fn outside_traffic_cannot_enter() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let z = admin
            .add_zone(&topo, "z", set(6, &[1, 2, 3]), (0, 16))
            .unwrap();
        // Node 5 is outside: its zone-range traffic reaches no member.
        for member in [1u32, 2, 3] {
            assert!(!admin.zone_traffic_reaches(z, NodeId(5), NodeId(member)));
        }
    }

    #[test]
    fn innermost_zone_first() {
        let topo = chain(6);
        let mut admin = AdminScoping::new();
        let outer = admin
            .add_zone(&topo, "outer", set(6, &[0, 1, 2, 3, 4]), (0, 1000))
            .unwrap();
        let inner = admin
            .add_zone(&topo, "inner", set(6, &[1, 2]), (0, 100))
            .unwrap();
        assert_eq!(admin.zones_of(NodeId(1)), vec![inner, outer]);
        assert_eq!(admin.zones_for_address(10), vec![inner, outer]);
        assert_eq!(admin.zones_for_address(500), vec![outer]);
    }
}
