//! What an allocator can see: the announce/listen view.
//!
//! "Schemes like IPRMA depend on the address allocator knowing a large
//! proportion of the addresses already in use.  Information about each
//! existing session is multicast with the same scope as the session" —
//! so an allocator's input is exactly the list of `(address, ttl)` pairs
//! whose announcements currently reach its site.  Everything else (who
//! originated a session, where it is) is invisible by construction.

use crate::addr::Addr;

/// One session as seen through the session directory: the address it
/// occupies and the TTL it was announced with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisibleSession {
    /// Allocated address (index into the shared [`crate::AddrSpace`]).
    pub addr: Addr,
    /// Announced session TTL.
    pub ttl: u8,
}

impl VisibleSession {
    /// Construct a visible session.
    pub fn new(addr: Addr, ttl: u8) -> Self {
        VisibleSession { addr, ttl }
    }
}

/// The set of sessions visible at an allocating site.
///
/// A thin wrapper over a slice so allocators can take a uniform input,
/// with the couple of derived views they all need.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    sessions: &'a [VisibleSession],
}

impl<'a> View<'a> {
    /// Wrap a slice of visible sessions.
    pub fn new(sessions: &'a [VisibleSession]) -> Self {
        View { sessions }
    }

    /// An empty view (a brand-new site that has heard nothing yet).
    pub fn empty() -> View<'static> {
        View { sessions: &[] }
    }

    /// All visible sessions.
    pub fn sessions(&self) -> &'a [VisibleSession] {
        self.sessions
    }

    /// Number of visible sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether nothing is visible.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Whether some visible session occupies `addr` (any TTL).
    pub fn in_use(&self, addr: Addr) -> bool {
        self.sessions.iter().any(|s| s.addr == addr)
    }

    /// Iterate sessions with TTL at least `min_ttl` — the subset
    /// Deterministic Adaptive IPRMA bases partition geometry on.
    pub fn with_ttl_at_least(&self, min_ttl: u8) -> impl Iterator<Item = VisibleSession> + 'a {
        self.sessions
            .iter()
            .copied()
            .filter(move |s| s.ttl >= min_ttl)
    }

    /// Sorted, deduplicated list of occupied addresses (any TTL).
    pub fn occupied(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.sessions.iter().map(|s| s.addr).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, u8)]) -> Vec<VisibleSession> {
        pairs
            .iter()
            .map(|&(a, t)| VisibleSession::new(Addr(a), t))
            .collect()
    }

    #[test]
    fn in_use_checks_any_ttl() {
        let s = v(&[(3, 15), (9, 127)]);
        let view = View::new(&s);
        assert!(view.in_use(Addr(3)));
        assert!(view.in_use(Addr(9)));
        assert!(!view.in_use(Addr(4)));
    }

    #[test]
    fn ttl_filter() {
        let s = v(&[(1, 15), (2, 63), (3, 127), (4, 63)]);
        let view = View::new(&s);
        let high: Vec<u32> = view.with_ttl_at_least(63).map(|x| x.addr.0).collect();
        assert_eq!(high, vec![2, 3, 4]);
        assert_eq!(view.with_ttl_at_least(200).count(), 0);
        assert_eq!(view.with_ttl_at_least(0).count(), 4);
    }

    #[test]
    fn occupied_sorted_dedup() {
        let s = v(&[(9, 15), (2, 63), (9, 127)]);
        let view = View::new(&s);
        assert_eq!(view.occupied(), vec![Addr(2), Addr(9)]);
    }

    #[test]
    fn empty_view() {
        let view = View::empty();
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
        assert!(!view.in_use(Addr(0)));
        assert!(view.occupied().is_empty());
    }
}
