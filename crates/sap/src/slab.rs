//! Generational slab arena and string interner — the storage core
//! beneath the announcement cache.
//!
//! A production-scale scope caches up to a million sessions.  Holding
//! each as a keyed `HashMap` entry with owned `String`
//! fields costs a heap allocation per string per session, scatters
//! records across the heap, and re-hashes the 12-byte key on every
//! index hop.  The slab fixes all three:
//!
//! * **Contiguous arena** — records live in a `Vec` of fixed-layout
//!   slots, addressed by a dense [`SessionId`] (a `u32` slot index).
//!   Indices store ids instead of keys, so a probe resolves a record
//!   with one bounds-checked array access, no hashing.
//! * **Generation counters** — every slot carries a generation that is
//!   bumped on removal.  A [`SessionHandle`] pairs an id with the
//!   generation it was minted under; resolving a handle whose
//!   generation no longer matches yields `None`, so a stale handle can
//!   never alias a recycled slot (the classic ABA hazard of dense-id
//!   stores).
//! * **Interned strings** — session names, usernames and media labels
//!   repeat heavily (every sdr session says `audio`/`RTP/AVP`).  The
//!   [`Interner`] maps each distinct string to a [`Sym`] and
//!   reference-counts it, so records hold 4-byte symbols and churn
//!   releases strings instead of leaking them.
//!
//! The slab is deliberately *not* a general-purpose crate: it exposes
//! exactly the operations the cache needs, all panic-free, and its
//! iteration order is never relied upon (deterministic orders come
//! from the cache's sorted indices).

use std::collections::HashMap;
use std::sync::Arc;

/// Dense index of a session record in the arena.  Stable for the
/// lifetime of the record; recycled (with a fresh generation) after
/// removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

/// A generation-checked reference to a slab record: the id plus the
/// generation it was minted under.  [`Slab::resolve`] returns `None`
/// once the slot has been freed or recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionHandle {
    /// The dense slot index.
    pub id: SessionId,
    /// The slot generation at mint time.
    pub generation: u32,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slab: contiguous slots, free-list reuse, generation
/// counters against stale-handle aliasing.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the slab holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots the arena has ever grown to (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Insert a record, reusing a freed slot when one exists; returns
    /// its dense id.
    pub fn insert(&mut self, value: T) -> SessionId {
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                slot.value = Some(value);
                self.live += 1;
                return SessionId(idx);
            }
        }
        let idx = self.slots.len();
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        self.live += 1;
        // The arena is u32-indexed; a million sessions sits far below
        // the 4G-slot ceiling, and saturating keeps this panic-free.
        SessionId(u32::try_from(idx).unwrap_or(u32::MAX))
    }

    /// Remove a record by id, bumping the slot generation so every
    /// outstanding handle to it goes stale.  Returns the record.
    pub fn remove(&mut self, id: SessionId) -> Option<T> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.0);
        self.live -= 1;
        Some(value)
    }

    /// Borrow a record by id.
    pub fn get(&self, id: SessionId) -> Option<&T> {
        self.slots.get(id.0 as usize)?.value.as_ref()
    }

    /// Mutably borrow a record by id.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize)?.value.as_mut()
    }

    /// Mint a generation-checked handle for a live id.
    pub fn handle(&self, id: SessionId) -> Option<SessionHandle> {
        let slot = self.slots.get(id.0 as usize)?;
        slot.value.as_ref()?;
        Some(SessionHandle {
            id,
            generation: slot.generation,
        })
    }

    /// Resolve a handle: `Some` only while the slot still holds the
    /// record the handle was minted for.
    pub fn resolve(&self, handle: SessionHandle) -> Option<&T> {
        let slot = self.slots.get(handle.id.0 as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_ref()
    }
}

/// Interned string symbol: a dense index into the [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

#[derive(Debug, Clone)]
struct SymSlot {
    text: Option<Arc<str>>,
    refs: u32,
}

/// A reference-counted string interner.  Each distinct string is
/// stored once; records hold [`Sym`] indices.  Releasing the last
/// reference frees the slot for reuse, so sustained churn (a million
/// sessions aging in and out) does not leak the string table.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    slots: Vec<SymSlot>,
    lookup: HashMap<Arc<str>, u32>,
    free: Vec<u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `text`, taking one reference on the symbol.
    pub fn intern(&mut self, text: &str) -> Sym {
        if let Some(&idx) = self.lookup.get(text) {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                slot.refs = slot.refs.saturating_add(1);
                return Sym(idx);
            }
        }
        let arc: Arc<str> = Arc::from(text);
        let idx = if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                slot.text = Some(Arc::clone(&arc));
                slot.refs = 1;
                idx
            } else {
                // Unreachable: free-list entries index real slots.
                self.push_slot(&arc)
            }
        } else {
            self.push_slot(&arc)
        };
        self.lookup.insert(arc, idx);
        Sym(idx)
    }

    fn push_slot(&mut self, arc: &Arc<str>) -> u32 {
        let idx = self.slots.len();
        self.slots.push(SymSlot {
            text: Some(Arc::clone(arc)),
            refs: 1,
        });
        u32::try_from(idx).unwrap_or(u32::MAX)
    }

    /// Take an additional reference on an existing symbol (record
    /// duplication).
    pub fn retain(&mut self, sym: Sym) {
        if let Some(slot) = self.slots.get_mut(sym.0 as usize) {
            slot.refs = slot.refs.saturating_add(1);
        }
    }

    /// Drop one reference; the last release frees the slot and its
    /// lookup entry.
    pub fn release(&mut self, sym: Sym) {
        let Some(slot) = self.slots.get_mut(sym.0 as usize) else {
            return;
        };
        slot.refs = slot.refs.saturating_sub(1);
        if slot.refs == 0 {
            if let Some(text) = slot.text.take() {
                self.lookup.remove(&text);
            }
            self.free.push(sym.0);
        }
    }

    /// Resolve a symbol to its text (empty for a freed symbol — the
    /// cache never resolves a symbol it does not hold a reference on).
    pub fn get(&self, sym: Sym) -> &str {
        self.slots
            .get(sym.0 as usize)
            .and_then(|s| s.text.as_deref())
            .unwrap_or("")
    }

    /// Resolve a symbol to a shared handle on its text (`None` for a
    /// freed symbol).  A snapshot of the cache clones these instead of
    /// copying string bytes: the `Arc` keeps the text alive even after
    /// the interner slot is released, so an immutable snapshot can
    /// outlive the record it was taken from.
    pub fn get_arc(&self, sym: Sym) -> Option<Arc<str>> {
        self.slots.get(sym.0 as usize)?.text.clone()
    }

    /// Number of distinct live strings.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no strings are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_recycled_with_fresh_generation() {
        let mut slab: Slab<&'static str> = Slab::new();
        let a = slab.insert("first");
        let stale = slab.handle(a).unwrap();
        slab.remove(a);
        let b = slab.insert("second");
        // The freed slot is reused (dense ids stay dense) ...
        assert_eq!(a, b);
        assert_eq!(slab.capacity(), 1);
        // ... but the stale handle does not alias the new record.
        assert_eq!(slab.resolve(stale), None);
        assert_eq!(slab.resolve(slab.handle(b).unwrap()), Some(&"second"));
    }

    #[test]
    fn handle_of_freed_slot_is_none() {
        let mut slab: Slab<u8> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        assert_eq!(slab.handle(a), None);
        assert_eq!(slab.get(a), None);
    }

    #[test]
    fn interner_dedups_and_refcounts() {
        let mut i = Interner::new();
        let a = i.intern("audio");
        let b = i.intern("audio");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        let c = i.intern("video");
        assert_ne!(a, c);
        assert_eq!(i.get(a), "audio");
        assert_eq!(i.get(c), "video");
        // Two references on "audio": one release keeps it alive.
        i.release(a);
        assert_eq!(i.get(b), "audio");
        i.release(b);
        assert_eq!(i.len(), 1, "audio freed, video live");
        i.release(c);
        assert!(i.is_empty());
    }

    #[test]
    fn interner_reuses_freed_slots() {
        let mut i = Interner::new();
        let a = i.intern("one");
        i.release(a);
        let b = i.intern("two");
        assert_eq!(i.get(b), "two");
        assert_eq!(i.len(), 1);
        // The freed slot was recycled rather than growing the table.
        assert_eq!(i.slots.len(), 1);
    }

    #[test]
    fn retain_balances_release() {
        let mut i = Interner::new();
        let a = i.intern("x");
        i.retain(a);
        i.release(a);
        assert_eq!(i.get(a), "x");
        i.release(a);
        assert!(i.is_empty());
    }

    #[test]
    fn churn_does_not_leak() {
        let mut i = Interner::new();
        for round in 0..1000 {
            let s = i.intern(&format!("session-{round}"));
            let keep = i.intern("audio");
            i.release(s);
            i.release(keep);
        }
        assert!(i.is_empty());
        assert!(i.slots.len() <= 2, "table grew to {}", i.slots.len());
    }
}
