//! Category-partitioned announcement channels (Section 4).
//!
//! The paper's conclusions: one flat announcement channel per scope
//! stops scaling once "distinct user groups emerge" — "we would like to
//! dynamically allocate new announcement addresses for certain
//! categories of announcement, and only announce the existence of the
//! category on the base session directory address … \[this\] would allow
//! receivers to decide the categories for which they receive
//! announcements, and hence the bandwidth used by the session
//! directory."  (Footnote 8 explains why this cannot be combined with
//! address *allocation*; allocation stays on the full-scope view.)
//!
//! Mechanism implemented here:
//!
//! * the **base channel** carries only lightweight *category
//!   announcements* — (category name, the multicast group its session
//!   announcements use);
//! * each category's session announcements go to that category's own
//!   group, which receivers join only if subscribed;
//! * category groups are allocated through the ordinary [`Allocator`]
//!   machinery, so they are themselves clash-managed.
//!
//! [`Allocator`]: sdalloc_core::Allocator

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use sdalloc_core::{AddrSpace, Allocator, View, VisibleSession};
use sdalloc_sim::SimRng;

/// A category announcement carried on the base channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryAnnouncement {
    /// Category name ("misc", "conferences/ietf", …).
    pub name: String,
    /// The multicast group carrying this category's session
    /// announcements.
    pub group: Ipv4Addr,
    /// Scope TTL of the category channel.
    pub ttl: u8,
}

impl CategoryAnnouncement {
    /// Wire encoding: a tiny text record (`category=<name>\ngroup=<ip>/<ttl>`).
    pub fn encode(&self) -> String {
        format!(
            "category={}\ngroup={}/{}\n",
            self.name.replace(['\r', '\n'], " "),
            self.group,
            self.ttl
        )
    }

    /// Parse the wire encoding.
    pub fn decode(text: &str) -> Option<CategoryAnnouncement> {
        let mut name = None;
        let mut group = None;
        let mut ttl = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("category=") {
                name = Some(v.to_string());
            } else if let Some(v) = line.strip_prefix("group=") {
                let (g, t) = v.split_once('/')?;
                let g: Ipv4Addr = g.parse().ok()?;
                if !g.is_multicast() {
                    return None;
                }
                group = Some(g);
                ttl = Some(t.parse().ok()?);
            }
        }
        Some(CategoryAnnouncement {
            name: name?,
            group: group?,
            ttl: ttl?,
        })
    }
}

/// Per-directory category state: known categories, local subscriptions,
/// and the groups we would join.
#[derive(Debug, Default)]
pub struct CategoryRegistry {
    /// Known categories by name.
    known: BTreeMap<String, CategoryAnnouncement>,
    /// Categories this receiver wants.
    subscriptions: BTreeSet<String>,
}

impl CategoryRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        CategoryRegistry::default()
    }

    /// Feed a category announcement heard on the base channel.
    pub fn observe(&mut self, ann: CategoryAnnouncement) {
        self.known.insert(ann.name.clone(), ann);
    }

    /// Known category names.
    pub fn known(&self) -> impl Iterator<Item = &str> {
        self.known.keys().map(String::as_str)
    }

    /// Look up a category.
    pub fn get(&self, name: &str) -> Option<&CategoryAnnouncement> {
        self.known.get(name)
    }

    /// Subscribe to a category (by name; it need not be known yet).
    pub fn subscribe(&mut self, name: &str) {
        self.subscriptions.insert(name.to_string());
    }

    /// Unsubscribe.
    pub fn unsubscribe(&mut self, name: &str) {
        self.subscriptions.remove(name);
    }

    /// Whether we are subscribed to `name`.
    pub fn subscribed(&self, name: &str) -> bool {
        self.subscriptions.contains(name)
    }

    /// The multicast groups this receiver should currently be joined to
    /// (known ∩ subscribed), in name order.
    pub fn joined_groups(&self) -> Vec<Ipv4Addr> {
        self.subscriptions
            .iter()
            .filter_map(|n| self.known.get(n))
            .map(|a| a.group)
            .collect()
    }

    /// Allocate a group for a new category through the standard
    /// allocation machinery and register it locally.  The caller
    /// announces the result on the base channel.
    pub fn create_category(
        &mut self,
        name: &str,
        ttl: u8,
        space: &AddrSpace,
        allocator: &dyn Allocator,
        visible: &[VisibleSession],
        rng: &mut SimRng,
    ) -> Option<CategoryAnnouncement> {
        if self.known.contains_key(name) {
            return self.known.get(name).cloned();
        }
        let view = View::new(visible);
        let addr = allocator.allocate(space, ttl, &view, rng)?;
        let ann = CategoryAnnouncement {
            name: name.to_string(),
            group: space.ip(addr),
            ttl,
        };
        self.observe(ann.clone());
        Some(ann)
    }
}

/// Bandwidth accounting for the category split (the paper's motivation:
/// "reduce session announcement bandwidth at the edges of the network").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Bytes/second a subscriber of everything receives (flat model).
    pub flat_bps: f64,
    /// Bytes/second this receiver gets with its subscription set
    /// (base channel + subscribed categories).
    pub subscribed_bps: f64,
}

/// Compute the announcement bandwidth seen by a receiver.
///
/// `sessions_per_category` maps category → (session count, mean
/// announcement bytes); every session re-announces once per `interval`
/// seconds; category announcements themselves are `category_bytes` every
/// `interval` on the base channel.
pub fn bandwidth(
    registry: &CategoryRegistry,
    sessions_per_category: &BTreeMap<String, (usize, usize)>,
    interval_secs: f64,
    category_bytes: usize,
) -> BandwidthReport {
    assert!(interval_secs > 0.0);
    let mut flat = 0.0;
    let mut subscribed = 0.0;
    for (name, &(count, bytes)) in sessions_per_category {
        let bps = (count * bytes) as f64 / interval_secs;
        flat += bps;
        if registry.subscribed(name) {
            subscribed += bps;
        }
    }
    // The base channel (one record per category) is always received.
    let base = (sessions_per_category.len() * category_bytes) as f64 / interval_secs;
    BandwidthReport {
        flat_bps: flat + base,
        subscribed_bps: subscribed + base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::InformedRandomAllocator;

    fn ann(name: &str, last_octet: u8) -> CategoryAnnouncement {
        CategoryAnnouncement {
            name: name.into(),
            group: Ipv4Addr::new(224, 2, 140, last_octet),
            ttl: 127,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = ann("conferences/ietf", 7);
        let decoded = CategoryAnnouncement::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(CategoryAnnouncement::decode(""), None);
        assert_eq!(CategoryAnnouncement::decode("category=x\n"), None);
        assert_eq!(
            CategoryAnnouncement::decode("category=x\ngroup=10.0.0.1/15\n"),
            None,
            "unicast group must be rejected"
        );
        assert_eq!(
            CategoryAnnouncement::decode("category=x\ngroup=224.2.2.2\n"),
            None,
            "missing TTL"
        );
    }

    #[test]
    fn newline_in_name_cannot_forge_records() {
        let a = CategoryAnnouncement {
            name: "evil\ngroup=224.9.9.9/255".into(),
            group: Ipv4Addr::new(224, 2, 140, 1),
            ttl: 63,
        };
        let decoded = CategoryAnnouncement::decode(&a.encode()).unwrap();
        assert_eq!(decoded.group, a.group);
        assert_eq!(decoded.ttl, 63);
    }

    #[test]
    fn subscriptions_control_joined_groups() {
        let mut reg = CategoryRegistry::new();
        reg.observe(ann("misc", 1));
        reg.observe(ann("music", 2));
        reg.observe(ann("ietf", 3));
        assert!(reg.joined_groups().is_empty());
        reg.subscribe("music");
        reg.subscribe("ietf");
        assert_eq!(
            reg.joined_groups(),
            vec![Ipv4Addr::new(224, 2, 140, 3), Ipv4Addr::new(224, 2, 140, 2)]
        );
        reg.unsubscribe("music");
        assert_eq!(reg.joined_groups(), vec![Ipv4Addr::new(224, 2, 140, 3)]);
        // Subscribing to an unknown category joins nothing until it is
        // announced on the base channel.
        reg.subscribe("unknown");
        assert_eq!(reg.joined_groups().len(), 1);
        reg.observe(ann("unknown", 9));
        assert_eq!(reg.joined_groups().len(), 2);
    }

    #[test]
    fn create_category_allocates_clash_free_group() {
        let mut reg = CategoryRegistry::new();
        let space = AddrSpace::abstract_space(32);
        let mut rng = SimRng::new(1);
        let in_use = vec![VisibleSession::new(sdalloc_core::Addr(5), 127)];
        let a = reg
            .create_category(
                "misc",
                127,
                &space,
                &InformedRandomAllocator,
                &in_use,
                &mut rng,
            )
            .unwrap();
        assert_ne!(a.group, space.ip(sdalloc_core::Addr(5)));
        // Idempotent: the same name returns the existing group.
        let b = reg
            .create_category(
                "misc",
                127,
                &space,
                &InformedRandomAllocator,
                &in_use,
                &mut rng,
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bandwidth_shrinks_with_subscriptions() {
        let mut reg = CategoryRegistry::new();
        reg.observe(ann("misc", 1));
        reg.observe(ann("bulk", 2));
        reg.subscribe("misc");
        let mut sessions = BTreeMap::new();
        sessions.insert("misc".to_string(), (10usize, 400usize));
        sessions.insert("bulk".to_string(), (990usize, 400usize));
        let report = bandwidth(&reg, &sessions, 600.0, 60);
        // Flat: 1000 sessions' announcements; subscribed: 10 plus base.
        assert!(
            report.subscribed_bps < report.flat_bps / 10.0,
            "subscribed {} vs flat {}",
            report.subscribed_bps,
            report.flat_bps
        );
        // Base channel cost is shared by both.
        assert!(report.subscribed_bps > 0.0);
    }

    #[test]
    fn bandwidth_with_everything_subscribed_equals_flat() {
        let mut reg = CategoryRegistry::new();
        reg.observe(ann("a", 1));
        reg.observe(ann("b", 2));
        reg.subscribe("a");
        reg.subscribe("b");
        let mut sessions = BTreeMap::new();
        sessions.insert("a".to_string(), (5usize, 300usize));
        sessions.insert("b".to_string(), (7usize, 300usize));
        let report = bandwidth(&reg, &sessions, 60.0, 50);
        assert!((report.subscribed_bps - report.flat_bps).abs() < 1e-9);
    }
}
