//! Hierarchical prefix allocation — the paper's Section 4.1 proposal,
//! concretised.
//!
//! The paper concludes that a flat announce/listen allocator tops out
//! around 10 000 addresses and sketches a two-level remedy:
//!
//! > "At the higher level, a dynamic 'prefix' allocation scheme should
//! > be used based on locality … the prefixes themselves need to be
//! > dynamically allocated too, based on how many addresses are in use
//! > from the prefix by the lower level address allocation scheme …
//! > the timescales used to allocate prefixes can be much longer than
//! > those used for individual addresses … and so achieve low
//! > probabilities of prefix collision."
//!
//! This module implements that sketch (the paper gives no mechanism
//! details — our concrete choices are documented inline):
//!
//! * a [`PrefixRegistry`] — the top level.  Domains (countries, ASes)
//!   claim contiguous address blocks.  Claims are globally visible —
//!   the paper proposes flooding them over BGP exchanges, whose
//!   reliability over prefix-allocation timescales lets us model the
//!   registry as a consistent shared structure;
//! * a [`HierarchicalAllocator`] — the lower level.  Each domain's
//!   sites allocate individual addresses *inside their domain's
//!   prefixes* with the usual informed-random rule, growing the
//!   domain's claim when occupancy crosses a threshold.  Global-scope
//!   sessions draw from a dedicated shared prefix.
//!
//! Because prefixes are disjoint, the TTL-asymmetry clash class — a
//! global allocation landing on an invisible local session — is
//! eliminated by construction; what remains is intra-domain contention,
//! where announcements are local, fast and near-lossless.

use std::sync::{Arc, Mutex, PoisonError};

use sdalloc_sim::SimRng;

use crate::addr::{Addr, AddrSpace};
use crate::alloc::{pick_free_in_range, Allocator};
use crate::view::View;

/// A contiguous block of the address space claimed by one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    /// First address (inclusive).
    pub lo: u32,
    /// One past the last address.
    pub hi: u32,
}

impl Prefix {
    /// Number of addresses in the block.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Whether `addr` falls inside the block.
    pub fn contains(&self, addr: Addr) -> bool {
        (self.lo..self.hi).contains(&addr.0)
    }
}

/// The id of the pseudo-domain holding the global-scope prefix.
pub const GLOBAL_DOMAIN: u32 = u32::MAX;

/// The top-level registry of prefix claims.
///
/// ```
/// use sdalloc_core::PrefixRegistry;
/// let mut reg = PrefixRegistry::new(1024);
/// let a = reg.claim(1, 100).unwrap(); // rounds up to 128
/// let b = reg.claim(2, 100).unwrap();
/// assert_eq!(a.len(), 128);
/// assert!(a.hi <= b.lo || b.hi <= a.lo); // never overlap
/// ```
///
/// Deterministic first-fit with power-of-two sizing: claims never
/// overlap, and a domain's demand doubling produces a predictable
/// footprint.  In deployment this state is replicated by flooding
/// (BGP-style); here it is a shared structure because the paper's
/// argument is exactly that prefix-level churn is slow enough for that
/// replication to be effectively consistent.
#[derive(Debug)]
pub struct PrefixRegistry {
    space: u32,
    /// (domain, prefix), sorted by prefix.lo.
    claims: Vec<(u32, Prefix)>,
}

impl PrefixRegistry {
    /// An empty registry over a space of `space` addresses.
    pub fn new(space: u32) -> Self {
        assert!(space > 0, "empty space");
        PrefixRegistry {
            space,
            claims: Vec::new(),
        }
    }

    /// Size of the managed space.
    pub fn space(&self) -> u32 {
        self.space
    }

    /// All claims, ordered by address.
    pub fn claims(&self) -> &[(u32, Prefix)] {
        &self.claims
    }

    /// The prefixes currently held by `domain`.
    pub fn prefixes_of(&self, domain: u32) -> Vec<Prefix> {
        self.claims
            .iter()
            .filter(|(d, _)| *d == domain)
            .map(|(_, p)| *p)
            .collect()
    }

    /// Claim a new block of at least `want` addresses for `domain`
    /// (rounded up to a power of two).  First-fit over the free gaps;
    /// `None` when no gap is large enough.
    pub fn claim(&mut self, domain: u32, want: u32) -> Option<Prefix> {
        let size = want.max(1).next_power_of_two().min(self.space);
        let mut cursor = 0u32;
        let mut insert_at = self.claims.len();
        for (i, (_, p)) in self.claims.iter().enumerate() {
            if p.lo - cursor >= size {
                insert_at = i;
                break;
            }
            cursor = p.hi;
        }
        if insert_at == self.claims.len() && self.space - cursor < size {
            return None;
        }
        let prefix = Prefix {
            lo: cursor,
            hi: cursor + size,
        };
        self.claims.insert(insert_at, (domain, prefix));
        debug_assert!(prefix.hi <= self.space, "claim overruns the space");
        debug_assert!(self.is_consistent(), "claims overlap after insert");
        Some(prefix)
    }

    /// Release a block.
    pub fn release(&mut self, domain: u32, prefix: Prefix) {
        self.claims.retain(|(d, p)| !(*d == domain && *p == prefix));
    }

    /// Fraction of the space under claim.
    pub fn utilization(&self) -> f64 {
        let claimed: u64 = self.claims.iter().map(|(_, p)| p.len() as u64).sum();
        claimed as f64 / self.space as f64
    }

    /// Sanity: no two claims overlap.
    pub fn is_consistent(&self) -> bool {
        let claims = self.claims.iter().map(|(_, block)| block);
        claims
            .clone()
            .zip(claims.skip(1))
            .all(|(a, b)| a.hi <= b.lo)
    }
}

/// The lower-level allocator for one domain.
///
/// Sessions with TTL below `global_ttl` are allocated from the domain's
/// own prefixes; sessions at or above it from the shared global prefix.
/// When a level's free share drops below `grow_at`, the allocator
/// claims another block of the same total size (capacity doubling).
pub struct HierarchicalAllocator {
    registry: Arc<Mutex<PrefixRegistry>>,
    domain: u32,
    /// TTL at and above which sessions are "global".
    global_ttl: u8,
    /// Grow when free slots fall below this fraction of capacity.
    grow_at: f64,
    /// Initial claim size for a domain with no prefix yet.
    initial_claim: u32,
}

impl HierarchicalAllocator {
    /// Create the allocator for `domain` over a shared registry.
    pub fn new(registry: Arc<Mutex<PrefixRegistry>>, domain: u32) -> Self {
        assert_ne!(domain, GLOBAL_DOMAIN, "domain id reserved");
        HierarchicalAllocator {
            registry,
            domain,
            global_ttl: 127,
            grow_at: 0.25,
            initial_claim: 16,
        }
    }

    /// Override the global-TTL boundary (default 127).
    pub fn with_global_ttl(mut self, ttl: u8) -> Self {
        self.global_ttl = ttl;
        self
    }

    fn level_domain(&self, ttl: u8) -> u32 {
        if ttl >= self.global_ttl {
            GLOBAL_DOMAIN
        } else {
            self.domain
        }
    }

    /// Allocate inside the given domain's prefixes, growing on demand.
    fn allocate_in_domain(&self, level: u32, view: &View<'_>, rng: &mut SimRng) -> Option<Addr> {
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        let used = view.occupied();
        loop {
            let prefixes = registry.prefixes_of(level);
            let capacity: u32 = prefixes.iter().map(Prefix::len).sum();
            let used_here = u32::try_from(
                used.iter()
                    .filter(|a| prefixes.iter().any(|p| p.contains(**a)))
                    .count(),
            )
            .unwrap_or(u32::MAX);
            let free = capacity.saturating_sub(used_here);
            if capacity == 0 || (free as f64) < self.grow_at * capacity as f64 {
                // Claim more space (doubling), then retry once more.
                let want = capacity.max(self.initial_claim);
                registry.claim(level, want)?;
                continue;
            }
            // Pick a random prefix weighted by free room, then a free
            // address within it.
            let mut order: Vec<Prefix> = prefixes.clone();
            // Deterministic shuffle so hot prefixes don't always win.
            rng.shuffle(&mut order);
            for p in order {
                if let Some(addr) = pick_free_in_range(p.lo, p.hi, &used, rng) {
                    return Some(addr);
                }
            }
            // All claimed blocks are full despite the occupancy check
            // (remote sessions in view can sit inside our blocks after
            // renumbering); grow once, then give up if that fails.
            let want = capacity.max(self.initial_claim);
            registry.claim(level, want)?;
        }
    }
}

impl Allocator for HierarchicalAllocator {
    fn name(&self) -> String {
        format!("Hier(domain {})", self.domain)
    }

    fn allocate(
        &self,
        space: &AddrSpace,
        ttl: u8,
        view: &View<'_>,
        rng: &mut SimRng,
    ) -> Option<Addr> {
        {
            let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(
                registry.space(),
                space.size(),
                "allocator and registry must manage the same space"
            );
        }
        let level = self.level_domain(ttl);
        self.allocate_in_domain(level, view, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VisibleSession;

    #[test]
    fn prefix_claims_are_disjoint_first_fit() {
        let mut reg = PrefixRegistry::new(1_024);
        let a = reg.claim(1, 100).unwrap(); // rounds to 128
        let b = reg.claim(2, 60).unwrap(); // rounds to 64
        let c = reg.claim(1, 10).unwrap(); // rounds to 16
        assert_eq!(a, Prefix { lo: 0, hi: 128 });
        assert_eq!(b, Prefix { lo: 128, hi: 192 });
        assert_eq!(c, Prefix { lo: 192, hi: 208 });
        assert!(reg.is_consistent());
        assert!((reg.utilization() - 208.0 / 1_024.0).abs() < 1e-12);
    }

    #[test]
    fn release_reopens_gap() {
        let mut reg = PrefixRegistry::new(256);
        let a = reg.claim(1, 64).unwrap();
        let _b = reg.claim(2, 64).unwrap();
        reg.release(1, a);
        // The freed gap is reused first-fit.
        let c = reg.claim(3, 32).unwrap();
        assert_eq!(c.lo, 0);
        assert!(reg.is_consistent());
    }

    #[test]
    fn claim_fails_when_space_exhausted() {
        let mut reg = PrefixRegistry::new(128);
        assert!(reg.claim(1, 128).is_some());
        assert!(reg.claim(2, 1).is_none());
    }

    #[test]
    fn fragmented_space_requires_fitting_gap() {
        let mut reg = PrefixRegistry::new(256);
        let _a = reg.claim(1, 64).unwrap(); // [0,64)
        let b = reg.claim(2, 64).unwrap(); // [64,128)
        let _c = reg.claim(3, 64).unwrap(); // [128,192)
        reg.release(2, b); // hole of 64 at [64,128)
        assert!(reg.claim(4, 128).is_none(), "no contiguous 128 left");
        assert_eq!(reg.claim(4, 64), Some(Prefix { lo: 64, hi: 128 }));
    }

    #[test]
    fn hierarchical_allocates_inside_own_prefix() {
        let reg = Arc::new(Mutex::new(PrefixRegistry::new(4_096)));
        let alloc = HierarchicalAllocator::new(Arc::clone(&reg), 7);
        let space = AddrSpace::abstract_space(4_096);
        let mut rng = SimRng::new(1);
        let view = View::empty();
        let addr = alloc.allocate(&space, 15, &view, &mut rng).unwrap();
        let prefixes = reg.lock().unwrap().prefixes_of(7);
        assert!(prefixes.iter().any(|p| p.contains(addr)));
        // A global session goes to the global prefix instead.
        let g = alloc.allocate(&space, 191, &view, &mut rng).unwrap();
        let global = reg.lock().unwrap().prefixes_of(GLOBAL_DOMAIN);
        assert!(global.iter().any(|p| p.contains(g)));
        assert!(!prefixes.iter().any(|p| p.contains(g)));
    }

    #[test]
    fn two_domains_never_collide_locally() {
        // Even with completely disjoint views (no cross-domain
        // visibility at all), local sessions in two domains can never
        // share an address: the prefixes are disjoint.
        let reg = Arc::new(Mutex::new(PrefixRegistry::new(8_192)));
        let a = HierarchicalAllocator::new(Arc::clone(&reg), 1);
        let b = HierarchicalAllocator::new(Arc::clone(&reg), 2);
        let space = AddrSpace::abstract_space(8_192);
        let mut rng = SimRng::new(2);
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        for i in 0..200 {
            // Each domain only sees its own sessions.
            let va: Vec<VisibleSession> =
                seen_a.iter().map(|&x| VisibleSession::new(x, 15)).collect();
            let vb: Vec<VisibleSession> =
                seen_b.iter().map(|&x| VisibleSession::new(x, 15)).collect();
            let xa = a
                .allocate(&space, 15, &View::new(&va), &mut rng)
                .unwrap_or_else(|| panic!("domain 1 full at {i}"));
            let xb = b
                .allocate(&space, 15, &View::new(&vb), &mut rng)
                .unwrap_or_else(|| panic!("domain 2 full at {i}"));
            seen_a.push(xa);
            seen_b.push(xb);
        }
        let sa: std::collections::HashSet<_> = seen_a.iter().collect();
        let sb: std::collections::HashSet<_> = seen_b.iter().collect();
        assert_eq!(sa.len(), 200, "domain 1 self-collided");
        assert_eq!(sb.len(), 200, "domain 2 self-collided");
        assert!(
            sa.is_disjoint(&sb),
            "cross-domain collision despite prefixes"
        );
        assert!(reg.lock().unwrap().is_consistent());
    }

    #[test]
    fn grows_on_demand() {
        let reg = Arc::new(Mutex::new(PrefixRegistry::new(2_048)));
        let alloc = HierarchicalAllocator::new(Arc::clone(&reg), 3);
        let space = AddrSpace::abstract_space(2_048);
        let mut rng = SimRng::new(3);
        let mut mine: Vec<Addr> = Vec::new();
        for _ in 0..300 {
            let view_data: Vec<VisibleSession> =
                mine.iter().map(|&a| VisibleSession::new(a, 15)).collect();
            let view = View::new(&view_data);
            mine.push(
                alloc
                    .allocate(&space, 15, &view, &mut rng)
                    .expect("space remains"),
            );
        }
        let capacity: u32 = reg
            .lock()
            .unwrap()
            .prefixes_of(3)
            .iter()
            .map(Prefix::len)
            .sum();
        assert!(capacity >= 300, "claimed capacity {capacity} too small");
        assert!(
            capacity <= 1_024,
            "claimed capacity {capacity} wastefully large"
        );
    }

    #[test]
    fn exhaustion_returns_none() {
        let reg = Arc::new(Mutex::new(PrefixRegistry::new(32)));
        let alloc = HierarchicalAllocator::new(Arc::clone(&reg), 1);
        let space = AddrSpace::abstract_space(32);
        let mut rng = SimRng::new(4);
        let mut mine = Vec::new();
        loop {
            let view_data: Vec<VisibleSession> =
                mine.iter().map(|&a| VisibleSession::new(a, 15)).collect();
            let view = View::new(&view_data);
            match alloc.allocate(&space, 15, &view, &mut rng) {
                Some(a) => mine.push(a),
                None => break,
            }
            assert!(mine.len() <= 32, "allocated beyond the space");
        }
        assert!(mine.len() >= 20, "gave up too early: {}", mine.len());
    }
}
