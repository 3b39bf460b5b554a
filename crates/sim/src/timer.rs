//! A deadline timer queue — the wake-on-deadline substrate.
//!
//! The protocol engines (announce schedules, cache expiry, clash
//! defences) are inherently event-driven: each piece of state has a
//! single next deadline, and nothing at all needs to happen between
//! deadlines.  [`TimerQueue`] gives them an O(log n) schedule /
//! O(1) next-deadline / amortised-O(log n) fire structure with
//! cancellation tokens, replacing the O(n) walk-every-object-per-poll
//! pattern the first reproduction used.
//!
//! Determinism rules (the event-trace regression tests depend on them):
//!
//! * timers fire strictly in deadline order;
//! * two timers at the *same* deadline fire in schedule order (FIFO) —
//!   the token counter doubles as the tie-break sequence;
//! * cancellation is lazy: a cancelled entry stays in the heap until it
//!   reaches the top, where it is discarded silently.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::time::SimTime;

/// Handle to a scheduled timer, used to cancel it.  Tokens are unique
/// for the lifetime of the queue (a `u64` counter; it does not wrap in
/// any feasible run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

struct TimerEntry<K> {
    due: SimTime,
    token: u64,
    key: K,
}

impl<K> PartialEq for TimerEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.token == other.token
    }
}
impl<K> Eq for TimerEntry<K> {}
impl<K> PartialOrd for TimerEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for TimerEntry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest deadline pops
        // first, FIFO (lowest token) among equals.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.token.cmp(&self.token))
    }
}

/// A cancellable deadline queue over keys of type `K`.
pub struct TimerQueue<K> {
    heap: BinaryHeap<TimerEntry<K>>,
    live: HashSet<u64>,
    next_token: u64,
}

impl<K> std::fmt::Debug for TimerQueue<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerQueue")
            .field("len", &self.live.len())
            .field("heap", &self.heap.len())
            .finish()
    }
}

impl<K> Default for TimerQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimerQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            next_token: 0,
        }
    }

    /// Number of live (scheduled, not cancelled, not fired) timers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live timers remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Schedule `key` to fire at `due`.  O(log n).
    pub fn schedule(&mut self, due: SimTime, key: K) -> TimerToken {
        let token = self.next_token;
        self.next_token += 1;
        self.live.insert(token);
        self.heap.push(TimerEntry { due, token, key });
        TimerToken(token)
    }

    /// Cancel a scheduled timer.  Returns whether it was still pending
    /// (false if it already fired or was already cancelled).  O(1); the
    /// heap entry is discarded lazily when it surfaces.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        self.live.remove(&token.0)
    }

    /// The earliest live deadline, pruning any cancelled entries that
    /// have surfaced at the top.  Exact, needs `&mut self`.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        loop {
            let head = self.heap.peek()?;
            if self.live.contains(&head.token) {
                return Some(head.due);
            }
            self.heap.pop();
        }
    }

    /// Pop the earliest live timer with `due <= now`, if any, skipping
    /// cancelled entries.  Returns the deadline it was scheduled for and
    /// its key.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, K)> {
        loop {
            let head = self.heap.peek()?;
            if head.due > now {
                return None;
            }
            // `peek` above guarantees the pop succeeds; `?` keeps this
            // loop panic-free without an `expect`.
            let entry = self.heap.pop()?;
            if self.live.remove(&entry.token) {
                return Some((entry.due, entry.key));
            }
        }
    }

    /// Batch-drain every live timer with `due <= now` into `out`, in
    /// fire order (deadline, then FIFO).  One wake pays one pass over
    /// the due prefix instead of a call per timer; the caller reuses
    /// `out` so steady-state wakes allocate nothing.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, K)>) {
        while let Some(fired) = self.pop_due(now) {
            out.push(fired);
        }
    }

    /// Schedule `key` at `due` under an externally-minted `token`.
    /// [`ShardedTimerQueue`] uses this to keep one global FIFO sequence
    /// across shards, so cross-shard ties at equal deadlines fire in
    /// schedule order exactly as a single queue would.
    fn schedule_with_token(&mut self, due: SimTime, key: K, token: u64) {
        self.next_token = self.next_token.max(token + 1);
        self.live.insert(token);
        self.heap.push(TimerEntry { due, token, key });
    }

    /// The `(due, token)` of the earliest live entry, pruning cancelled
    /// heads.  The token lets a multi-shard scheduler order equal
    /// deadlines globally.
    fn peek_live(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let head = self.heap.peek()?;
            if self.live.contains(&head.token) {
                return Some((head.due, head.token));
            }
            self.heap.pop();
        }
    }

    /// Drop every timer (live and cancelled).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
    }
}

/// Handle to a timer scheduled on a [`ShardedTimerQueue`]: the shard it
/// lives in plus its per-shard token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardToken {
    shard: u32,
    token: TimerToken,
}

impl ShardToken {
    /// The shard this timer was scheduled into.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }
}

/// A [`TimerQueue`] split into independent shards that still fires in
/// one global deterministic order.
///
/// Benchmark-only: no product code schedules on this — the directory
/// holds a plain [`TimerQueue`] — but `benchmark/src/sut.rs` names it
/// for its `timer.*_ns` probe.  It goes, with [`ShardToken`],
/// `schedule_with_token` and `peek_live`, when that probe is re-pointed
/// at [`TimerQueue`] (ROADMAP item 3).
///
/// Each shard owns its own heap.  Tokens are minted from a single
/// queue-wide counter and threaded through
/// [`TimerQueue::schedule_with_token`], so the cross-shard fire order at
/// equal deadlines is exactly the FIFO order a single unsharded queue
/// would produce: the determinism contract (deadline order, then
/// schedule order) is preserved verbatim.
pub struct ShardedTimerQueue<K> {
    shards: Vec<TimerQueue<K>>,
    next_token: u64,
}

impl<K> std::fmt::Debug for ShardedTimerQueue<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTimerQueue")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<K> ShardedTimerQueue<K> {
    /// A queue with `shards` independent heaps (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedTimerQueue {
            shards: (0..shards).map(|_| TimerQueue::new()).collect(),
            next_token: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live timers across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(TimerQueue::len).sum()
    }

    /// Whether no live timers remain in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(TimerQueue::is_empty)
    }

    /// Live timers in one shard (0 for an out-of-range index).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, TimerQueue::len)
    }

    /// Schedule `key` at `due` in `shard` (clamped to the last shard),
    /// minting the token from the queue-wide FIFO sequence.
    pub fn schedule(&mut self, shard: usize, due: SimTime, key: K) -> ShardToken {
        let shard = shard.min(self.shards.len().saturating_sub(1));
        let token = self.next_token;
        self.next_token += 1;
        if let Some(q) = self.shards.get_mut(shard) {
            q.schedule_with_token(due, key, token);
        }
        ShardToken {
            shard: shard as u32,
            token: TimerToken(token),
        }
    }

    /// Cancel a scheduled timer; see [`TimerQueue::cancel`].
    pub fn cancel(&mut self, token: ShardToken) -> bool {
        self.shards
            .get_mut(token.shard as usize)
            .is_some_and(|q| q.cancel(token.token))
    }

    /// The shard index holding the globally-earliest live `(due,
    /// token)`, pruning cancelled heads as a side effect.
    fn earliest_shard(&mut self) -> Option<usize> {
        let mut best: Option<((SimTime, u64), usize)> = None;
        for (i, q) in self.shards.iter_mut().enumerate() {
            if let Some(head) = q.peek_live() {
                if best.is_none_or(|(b, _)| head < b) {
                    best = Some((head, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// The earliest live deadline across all shards.  Exact.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        let shard = self.earliest_shard()?;
        self.shards.get_mut(shard)?.next_deadline()
    }

    /// Pop the globally-earliest live timer with `due <= now`, in the
    /// same (deadline, schedule) order a single queue would fire.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, K)> {
        let shard = self.earliest_shard()?;
        self.shards.get_mut(shard)?.pop_due(now)
    }

    /// Batch-drain every due timer across all shards into `out`, in
    /// global fire order.  The per-wake analogue of
    /// [`TimerQueue::drain_due`].
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, K)>) {
        while let Some(fired) = self.pop_due(now) {
            out.push(fired);
        }
    }

    /// Drop every timer in every shard.  The token counter survives, so
    /// FIFO order stays globally consistent across clears.
    pub fn clear(&mut self) {
        for q in &mut self.shards {
            q.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut q = TimerQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.next_deadline(), Some(t(1)));
        let mut fired = Vec::new();
        while let Some((_, k)) = q.pop_due(t(10)) {
            fired.push(k);
        }
        assert_eq!(fired, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_deadlines_fire_fifo() {
        let mut q = TimerQueue::new();
        for i in 0..100u32 {
            q.schedule(t(5), i);
        }
        let mut fired = Vec::new();
        while let Some((_, k)) = q.pop_due(t(5)) {
            fired.push(k);
        }
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = TimerQueue::new();
        q.schedule(t(5), ());
        assert_eq!(q.pop_due(t(4)), None);
        assert_eq!(q.pop_due(t(5)), Some((t(5), ())));
        assert_eq!(q.pop_due(t(100)), None);
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut q = TimerQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        // The pruning accessor and pop skip the cancelled entry.
        assert_eq!(q.next_deadline(), Some(t(2)));
        assert_eq!(q.pop_due(t(10)), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = TimerQueue::new();
        let tok = q.schedule(t(1), ());
        assert_eq!(q.pop_due(t(1)), Some((t(1), ())));
        assert!(!q.cancel(tok));
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = TimerQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.pop_due(t(100)), None);
        // The token counter keeps advancing across clears, so FIFO order
        // stays globally consistent.
        q.schedule(t(3), 3);
        assert_eq!(q.pop_due(t(3)), Some((t(3), 3)));
    }

    #[test]
    fn stale_token_after_clear_cannot_cancel_successor() {
        // A token captured before `clear` must not cancel a timer
        // scheduled afterwards, even though both sat at heap position 0.
        let mut q = TimerQueue::new();
        let stale = q.schedule(t(1), "old");
        q.clear();
        let fresh = q.schedule(t(1), "new");
        assert_ne!(stale, fresh, "tokens must stay unique across clear");
        assert!(!q.cancel(stale), "stale token must be inert");
        assert_eq!(q.len(), 1, "successor survives the stale cancel");
        assert_eq!(q.pop_due(t(1)), Some((t(1), "new")));
    }

    #[test]
    fn reschedule_then_cancel_stale_token_keeps_replacement() {
        // The engine pattern: cancel + reschedule, then a late cancel
        // arrives bearing the ORIGINAL token (e.g. bookkeeping raced a
        // fire).  The replacement must be unaffected.
        let mut q = TimerQueue::new();
        let first = q.schedule(t(5), "announce");
        assert!(q.cancel(first));
        let second = q.schedule(t(3), "announce");
        assert!(!q.cancel(first), "already-cancelled token is spent");
        assert_eq!(q.next_deadline(), Some(t(3)));
        assert_eq!(q.pop_due(t(3)), Some((t(3), "announce")));
        assert!(!q.cancel(second), "cancel-after-fire reports false");
        assert!(q.is_empty());
    }

    #[test]
    fn all_pending_cancelled_drains_heap_lazily() {
        // With every entry cancelled, the lazy heap still holds them —
        // the pruning accessor must drain it to emptiness, the
        // conservative peek may still report a (stale) early deadline,
        // and pop_due must find nothing at any horizon.
        let mut q = TimerQueue::new();
        let tokens: Vec<TimerToken> = (0..10u32)
            .map(|i| q.schedule(t(1 + u64::from(i)), i))
            .collect();
        for tok in tokens {
            assert!(q.cancel(tok));
        }
        assert!(q.is_empty(), "no live timers remain");
        // pop_due skips every cancelled entry without firing any.
        assert_eq!(q.pop_due(t(100)), None);
        // next_deadline prunes to the true answer: nothing.
        assert_eq!(q.next_deadline(), None);
        // The queue remains usable afterwards.
        q.schedule(t(50), 99);
        assert_eq!(q.next_deadline(), Some(t(50)));
        assert_eq!(q.pop_due(t(50)), Some((t(50), 99)));
    }

    #[test]
    fn cancelled_head_does_not_block_later_live_timer() {
        // pop_due at a horizon covering only the cancelled head must
        // not fire the later live timer, and must not lose it either.
        let mut q = TimerQueue::new();
        let head = q.schedule(t(1), "dead");
        q.schedule(t(10), "live");
        q.cancel(head);
        assert_eq!(q.pop_due(t(5)), None, "only the cancelled head is due");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(10)), Some((t(10), "live")));
    }

    #[test]
    fn interleaved_schedule_and_fire() {
        let mut q = TimerQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(1), "early");
        assert_eq!(q.pop_due(t(1)).map(|(_, k)| k), Some("early"));
        q.schedule(t(5), "mid");
        assert_eq!(q.next_deadline(), Some(t(5)));
        assert_eq!(q.pop_due(t(20)).map(|(_, k)| k), Some("mid"));
        assert_eq!(q.pop_due(t(20)).map(|(_, k)| k), Some("late"));
    }

    #[test]
    fn drain_due_matches_pop_loop() {
        let mut a = TimerQueue::new();
        let mut b = TimerQueue::new();
        for (due, k) in [(3u64, "c"), (1, "a"), (3, "d"), (2, "b"), (9, "z")] {
            a.schedule(t(due), k);
            b.schedule(t(due), k);
        }
        let mut batch = Vec::new();
        a.drain_due(t(3), &mut batch);
        let mut single = Vec::new();
        while let Some(fired) = b.pop_due(t(3)) {
            single.push(fired);
        }
        assert_eq!(batch, single);
        assert_eq!(batch.len(), 4, "the t=9 timer is not yet due");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn sharded_queue_fires_in_single_queue_order() {
        // Interleave schedules across shards with colliding deadlines;
        // the sharded drain must reproduce the exact fire order of an
        // unsharded queue fed the same sequence.
        let mut sharded = ShardedTimerQueue::new(4);
        let mut single = TimerQueue::new();
        let plan = [
            (2usize, 5u64, 0u32),
            (0, 5, 1),
            (3, 1, 2),
            (2, 5, 3),
            (1, 2, 4),
            (0, 1, 5),
            (3, 5, 6),
            (1, 1, 7),
        ];
        for &(shard, due, key) in &plan {
            sharded.schedule(shard, t(due), key);
            single.schedule(t(due), key);
        }
        let mut a = Vec::new();
        sharded.drain_due(t(10), &mut a);
        let mut b = Vec::new();
        single.drain_due(t(10), &mut b);
        assert_eq!(a, b, "cross-shard FIFO diverged from the single queue");
        assert!(sharded.is_empty());
    }

    #[test]
    fn sharded_cancel_and_deadlines() {
        let mut q = ShardedTimerQueue::new(3);
        let a = q.schedule(0, t(1), "a");
        let b = q.schedule(1, t(2), "b");
        q.schedule(2, t(3), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.shard_len(1), 1);
        assert_eq!(a.shard(), 0);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.next_deadline(), Some(t(2)), "pruned deadline");
        assert_eq!(q.pop_due(t(10)), Some((t(2), "b")));
        assert!(!q.cancel(b), "cancel-after-fire reports false");
        assert_eq!(q.pop_due(t(10)), Some((t(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_out_of_range_shard_clamps() {
        let mut q = ShardedTimerQueue::new(2);
        let tok = q.schedule(99, t(1), "x");
        assert_eq!(tok.shard(), 1, "over-range shard clamps to the last");
        assert_eq!(q.pop_due(t(1)), Some((t(1), "x")));
    }

    #[test]
    fn sharded_clear_keeps_token_sequence() {
        let mut q = ShardedTimerQueue::new(2);
        let stale = q.schedule(0, t(1), 1u32);
        q.clear();
        assert!(q.is_empty());
        let fresh = q.schedule(0, t(1), 2u32);
        assert_ne!(stale, fresh, "tokens must stay unique across clear");
        assert!(!q.cancel(stale), "stale token must be inert");
        assert_eq!(q.pop_due(t(1)), Some((t(1), 2u32)));
    }
}
