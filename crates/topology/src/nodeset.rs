//! A compact bit-set over node ids.
//!
//! Scope-zone computations (which sites can hear a session, whether two
//! sessions' zones overlap) are set operations over up to ~2000 mrouters
//! repeated millions of times inside the steady-state simulations, so we
//! use a fixed-width bitset rather than hash sets.

use crate::graph::NodeId;

/// A set of [`NodeId`]s backed by a bit vector.
///
/// ```
/// use sdalloc_topology::{NodeSet, NodeId};
/// let mut zone_a = NodeSet::with_capacity(64);
/// let mut zone_b = NodeSet::with_capacity(64);
/// zone_a.insert(NodeId(3));
/// zone_b.insert(NodeId(3));
/// zone_b.insert(NodeId(9));
/// assert!(zone_a.intersects(&zone_b)); // the clash test
/// assert!(zone_a.is_subset(&zone_b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Number of node ids the set was sized for.
    capacity: usize,
}

impl NodeSet {
    /// An empty set able to hold ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity in node ids.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert a node id.  Panics if out of capacity.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "i / 64 is below words.len() whenever i < capacity, which is checked first"
    )]
    pub fn insert(&mut self, id: NodeId) {
        let i = id.index();
        assert!(
            i < self.capacity,
            "node id {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove a node id (no-op when absent).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "i / 64 is below words.len() whenever i < capacity, which is checked first"
    )]
    pub fn remove(&mut self, id: NodeId) {
        let i = id.index();
        if i < self.capacity {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Membership test.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "i / 64 is below words.len() whenever i < capacity, which is checked first"
    )]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        i < self.capacity && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the two sets share any member — the scope-zone overlap
    /// test at the heart of clash detection.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter().chain(std::iter::repeat(&0)))
            .all(|(&a, &b)| a & !b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterate over members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(NodeId((wi * 64) as u32 + tz))
                }
            })
        })
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collect ids into a set sized by the largest id seen.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let cap = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut s = NodeSet::with_capacity(cap);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::with_capacity(200);
        assert!(!s.contains(NodeId(5)));
        s.insert(NodeId(5));
        s.insert(NodeId(64));
        s.insert(NodeId(199));
        assert!(s.contains(NodeId(5)));
        assert!(s.contains(NodeId(64)));
        assert!(s.contains(NodeId(199)));
        assert_eq!(s.len(), 3);
        s.remove(NodeId(64));
        assert!(!s.contains(NodeId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn intersects_and_subset() {
        let mut a = NodeSet::with_capacity(128);
        let mut b = NodeSet::with_capacity(128);
        a.insert(NodeId(3));
        a.insert(NodeId(100));
        b.insert(NodeId(100));
        assert!(a.intersects(&b));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        b.clear();
        b.insert(NodeId(4));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn union_intersection() {
        let mut a = NodeSet::with_capacity(64);
        let mut b = NodeSet::with_capacity(64);
        a.insert(NodeId(1));
        a.insert(NodeId(2));
        b.insert(NodeId(2));
        b.insert(NodeId(3));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn iteration_order_ascending() {
        let mut s = NodeSet::with_capacity(300);
        for id in [250u32, 0, 63, 64, 65, 128] {
            s.insert(NodeId(id));
        }
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 250]);
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let s: NodeSet = [NodeId(7), NodeId(2)].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_set() {
        let s = NodeSet::with_capacity(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_capacity_panics() {
        let mut s = NodeSet::with_capacity(10);
        s.insert(NodeId(10));
    }
}
