//! Immutable directory snapshots and their read path.
//!
//! The writer (an agent thread that owns its
//! [`sdalloc_sap::SessionDirectory`]) brings a [`DirectorySnapshot`] —
//! a sorted, immutable, cheaply shareable projection of the
//! announcement cache — up to date whenever the cache has changed (see
//! "When to publish" below) and *publishes* it
//! with one pointer swap through [`crossbeam::epoch::ArcSwap`], a
//! `Mutex<Arc<_>>`.  Query threads hold a [`SnapshotReader`]; a load is
//! one refcount increment under that mutex, and a superseded snapshot
//! is freed when the last reader holding it lets go.
//!
//! Everything a query needs is precomputed at publish time so the read
//! side allocates nothing: rows are sorted by [`CacheKey`] (binary-search
//! point lookups) and the distinct group list is sorted (binary-search
//! `group_in_use`).  Each row carries an FNV-1a checksum over its
//! fields, letting stress tests prove that a reader can never observe a
//! torn or recycled row: a snapshot either verifies in full or
//! publication is broken.
//!
//! ## Publishing costs O(changes)
//!
//! Every snapshot records the cache's change-journal cursor it
//! reflects.  The publisher keeps its own `Arc` to its last two
//! publications; by the next publish the cell has let go of the older
//! one, so unless a reader still holds it the publisher owns it outright,
//! re-reads just the rows the journal names since that snapshot's
//! cursor (`DirectorySnapshot::replay`) and publishes it again.
//! [`DirectorySnapshot::capture`] — copy, checksum and sort every row —
//! remains the one full build, taken when replay is not possible: the
//! first two publishes, a cursor the journal no longer covers (ring
//! overrun, restart), more changed keys than the cache has rows, or a
//! reader that has held the spare for a whole
//! [`SnapshotCadence::max_wait`].
//!
//! ## When to publish: as soon as something changed, at a bounded cost
//!
//! [`SnapshotPublisher::maybe_publish`] publishes whenever the cache's
//! journal is ahead of the published cursor, with one limit: the writer
//! tells the publisher what each publish cost
//! ([`SnapshotPublisher::charge`]), and the next one may not start
//! before `(share - 1) x` that cost has passed.  Publishing therefore
//! takes at most a `1/share` slice of the writer's loop whatever the
//! load: a lone change on an idle directory is readable at once, a
//! saturated one publishes bigger batches less often, and a
//! capture-sized publish backs itself off.  A due publish whose spare a
//! reader still holds *waits* for the reader rather than allocating a
//! third snapshot.

use std::net::Ipv4Addr;
use std::sync::Arc;

use crossbeam::epoch::{ArcSwap, Guard, Reader};
use sdalloc_sap::cache::{AnnouncementCache, CacheKey, EntryRef};
use sdalloc_sap::wire::{fnv1a_64, fnv1a_64_fold};
use sdalloc_sap::SessionDirectory;
use sdalloc_sim::{SimDuration, SimTime};

/// One cached session, flattened out of the slab arena into a
/// self-contained row.  The name is an `Arc<str>` shared with the
/// cache's interner — building a row clones the Arc, not the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// The cache key (origin, session id).
    pub key: CacheKey,
    /// Allocated multicast group.
    pub group: Ipv4Addr,
    /// Announced scope TTL.
    pub ttl: u8,
    /// SDP origin version.
    pub version: u64,
    /// When the entry was last refreshed (writer's clock).
    pub last_heard: SimTime,
    /// Session name, shared with the cache interner.
    pub name: Arc<str>,
    checksum: u64,
}

impl SessionRow {
    fn new(
        key: CacheKey,
        group: Ipv4Addr,
        ttl: u8,
        version: u64,
        last_heard: SimTime,
        name: Arc<str>,
    ) -> SessionRow {
        let checksum = Self::checksum_of(key, group, ttl, version, last_heard, &name);
        SessionRow {
            key,
            group,
            ttl,
            version,
            last_heard,
            name,
            checksum,
        }
    }

    /// The row for a live cache entry: what capture and replay both
    /// build rows through.
    fn of(key: CacheKey, entry: &EntryRef<'_>) -> SessionRow {
        SessionRow::new(
            key,
            entry.group(),
            entry.ttl(),
            entry.version(),
            entry.last_heard(),
            entry.name_arc().unwrap_or_else(|| Arc::from("")),
        )
    }

    fn checksum_of(
        key: CacheKey,
        group: Ipv4Addr,
        ttl: u8,
        version: u64,
        last_heard: SimTime,
        name: &str,
    ) -> u64 {
        // Folded field by field, never through a buffer: the read-path
        // verifier must not allocate.
        let mut h = fnv1a_64(&key.origin.octets());
        h = fnv1a_64_fold(h, &key.session_id.to_le_bytes());
        h = fnv1a_64_fold(h, &group.octets());
        h = fnv1a_64_fold(h, &[ttl]);
        h = fnv1a_64_fold(h, &version.to_le_bytes());
        h = fnv1a_64_fold(h, &last_heard.as_nanos().to_le_bytes());
        fnv1a_64_fold(h, name.as_bytes())
    }

    /// Recompute the checksum and compare.  `false` means the reader is
    /// looking at torn or recycled memory — must never happen.
    pub fn verify(&self) -> bool {
        Self::checksum_of(
            self.key,
            self.group,
            self.ttl,
            self.version,
            self.last_heard,
            &self.name,
        ) == self.checksum
    }
}

/// Edit the sorted `v` in place: drop the elements at the ascending
/// indices `dead`, then weave in the sorted `new` ones (none of which
/// equals a kept element).  Each pass is a `memmove` of what lies behind
/// its first edit — elements are moved, never looked into — and nothing
/// is allocated unless `v` must grow.
fn edit_sorted<T, K: Ord>(v: &mut Vec<T>, dead: &[usize], new: Vec<T>, key: impl Fn(&T) -> K) {
    if !dead.is_empty() {
        let mut dead = dead.iter().peekable();
        let mut index = 0;
        v.retain(|_| {
            index += 1;
            dead.next_if(|&&d| d + 1 == index).is_none()
        });
    }
    // Where each newcomer goes, then the newcomers themselves, parked
    // behind the last old element.  Back to front, one rotation carries
    // every still-parked newcomer across the old elements that sort
    // after the last of them, which leaves that one in its final place:
    // an old element moves once, however many newcomers there are.
    let slots: Vec<usize> = new
        .iter()
        .map(|n| v.partition_point(|old| key(old) < key(n)))
        .collect();
    v.extend(new);
    let mut end = v.len();
    for (parked, &slot) in slots.iter().enumerate().rev() {
        if let Some(tail) = v.get_mut(slot..end) {
            tail.rotate_right(parked + 1);
        }
        end = slot + parked;
    }
}

/// An immutable, point-in-time projection of one directory's cache.
#[derive(Debug)]
pub struct DirectorySnapshot {
    version: u64,
    published_at: SimTime,
    /// The cache's [`AnnouncementCache::change_seq`] this snapshot
    /// reflects: replaying the journal from here brings it up to date.
    cursor: u64,
    /// All cached sessions, sorted by key.
    rows: Vec<SessionRow>,
    /// Distinct groups in use, sorted.
    groups: Vec<Ipv4Addr>,
}

impl DirectorySnapshot {
    /// The snapshot a publisher starts from: version 0, no rows.
    pub fn empty() -> DirectorySnapshot {
        DirectorySnapshot {
            version: 0,
            published_at: SimTime::ZERO,
            cursor: 0,
            rows: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Capture the directory's cache as of `now`: the full build, O(rows).
    /// Writer-side only: allocates the row and group vectors.
    pub fn capture(version: u64, now: SimTime, dir: &SessionDirectory) -> DirectorySnapshot {
        let cache = dir.cache();
        let mut rows: Vec<SessionRow> = cache
            .iter()
            .map(|(key, entry)| SessionRow::of(key, &entry))
            .collect();
        rows.sort_unstable_by_key(|r| r.key);
        let mut groups: Vec<Ipv4Addr> = rows.iter().map(|r| r.group).collect();
        groups.sort_unstable();
        groups.dedup();
        DirectorySnapshot {
            version,
            published_at: now,
            cursor: cache.change_seq(),
            rows,
            groups,
        }
    }

    /// Bring this snapshot up to `cache` as it is now by re-reading only
    /// the keys journalled since its cursor; returns how many rows were
    /// rewritten, inserted or removed.  `None` — and the snapshot
    /// untouched — when the journal no longer reaches back to the cursor
    /// or names more keys than the cache has rows, where a capture is
    /// the cheaper way.
    ///
    /// Changed rows are overwritten in place.  Membership changes cost
    /// an [`edit_sorted`] of the rows and one of the group set — no
    /// hashing, sorting, checksumming or refcount traffic for a row
    /// that did not change — and a refresh-only batch skips both.
    /// Whether a touched group is still in use is the live cache's
    /// answer, so the snapshot keeps no per-group count.
    fn replay(&mut self, cache: &AnnouncementCache) -> Option<usize> {
        let mut keys: Vec<CacheKey> = cache.changes_since(self.cursor)?.collect();
        keys.sort_unstable();
        keys.dedup();
        if keys.len() > cache.len() {
            return None;
        }
        let mut rewritten = 0;
        let mut inserts = Vec::new();
        let mut removals = Vec::new();
        let mut touched = Vec::new();
        for key in keys {
            let at = self.rows.binary_search_by_key(&key, |r| r.key);
            let live = cache.get(key.origin, key.session_id);
            match (at, &live) {
                (Ok(i), Some(entry)) => {
                    if let Some(row) = self.rows.get_mut(i) {
                        if row.group != entry.group() {
                            touched.extend([row.group, entry.group()]);
                        }
                        *row = SessionRow::of(key, entry);
                    }
                }
                (Ok(i), None) => {
                    touched.extend(self.rows.get(i).map(|r| r.group));
                    removals.push(i);
                }
                (Err(_), Some(entry)) => {
                    touched.push(entry.group());
                    inserts.push(SessionRow::of(key, entry));
                }
                // Admitted and gone again between two publishes.
                (Err(_), None) => continue,
            }
            rewritten += 1;
        }
        edit_sorted(&mut self.rows, &removals, inserts, |r| r.key);
        touched.sort_unstable();
        touched.dedup();
        let mut new_groups = Vec::new();
        let mut dead_groups = Vec::new();
        for group in touched {
            match (self.groups.binary_search(&group), cache.group_in_use(group)) {
                (Ok(i), false) => dead_groups.push(i),
                (Err(_), true) => new_groups.push(group),
                _ => {}
            }
        }
        edit_sorted(&mut self.groups, &dead_groups, new_groups, |g| *g);
        self.cursor = cache.change_seq();
        Some(rewritten)
    }

    /// Monotone publication counter (0 = the empty pre-first snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Writer-clock instant this snapshot was captured.
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// How far behind `now` this snapshot is.
    pub fn staleness(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.published_at)
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the cache was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, sorted by key.
    pub fn rows(&self) -> &[SessionRow] {
        &self.rows
    }

    /// The distinct groups in use, sorted.
    pub fn groups(&self) -> &[Ipv4Addr] {
        &self.groups
    }

    /// Point lookup by cache key.  Zero-alloc (binary search).
    pub fn get(&self, origin: Ipv4Addr, session_id: u64) -> Option<&SessionRow> {
        let key = CacheKey { origin, session_id };
        self.rows
            .binary_search_by_key(&key, |r| r.key)
            .ok()
            .and_then(|i| self.rows.get(i))
    }

    /// Whether any cached session occupies `group`.  Zero-alloc.
    pub fn group_in_use(&self, group: Ipv4Addr) -> bool {
        self.groups.binary_search(&group).is_ok()
    }

    /// Rows whose name contains `keyword` (case-sensitive substring, as
    /// sdr's browser filter).  Zero-alloc iterator.
    pub fn matching<'a>(&'a self, keyword: &'a str) -> impl Iterator<Item = &'a SessionRow> + 'a {
        self.rows.iter().filter(move |r| r.name.contains(keyword))
    }

    /// Verify every row checksum, returning the number of corrupt rows.
    /// Anything other than 0 means a reader observed torn or recycled
    /// memory.  Zero-alloc.
    pub fn corrupt_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.verify()).count()
    }
}

/// How much of the writer's loop publication may take.
///
/// There is no interval: a change is published as soon as the cost of
/// the publish before it has been paid off.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCadence {
    /// Publishing gets at most one part in `share` of the writer's
    /// time: after a publish that cost `c`, the next waits `(share - 1)
    /// x c`.
    pub share: u32,
    /// Ceiling on that wait, however dear the last publish was (one
    /// preempted publish must not be multiplied by `share`), and how
    /// long a due publish waits for a reader to let go of the spare
    /// before it captures afresh.
    pub max_wait: SimDuration,
}

impl Default for SnapshotCadence {
    fn default() -> Self {
        SnapshotCadence {
            share: 20,
            max_wait: SimDuration::from_millis(250),
        }
    }
}

/// Writer-side publication counters (plain values; the driver mirrors
/// them into its telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStats {
    /// Snapshots published (== current snapshot version).
    pub published: u64,
    /// Of those, how many replayed the journal onto the reclaimed spare
    /// instead of capturing the whole cache.
    pub replayed: u64,
    /// Rows in the most recent snapshot.
    pub last_rows: usize,
    /// Rows the most recent publish wrote: the changed ones for a
    /// replay, all of them for a capture.
    pub rows_rewritten: usize,
    /// Largest batch of cache changes folded into one publication.
    pub max_batch: u64,
    /// Times a due publish waited because a reader still held the spare.
    pub deferred: u64,
    /// Summed cost the writer charged for its publishes, in
    /// nanoseconds; over `published` it is the mean cost of one.
    pub cost_ns: u64,
}

/// The writer's half of the snapshot cell: decides when to publish,
/// publishes via the cell, and recycles the snapshot before last.
///
/// A publisher serves one directory: journal cursors are only
/// meaningful against the cache (or its restarted successors) they were
/// read from.
#[derive(Debug)]
pub struct SnapshotPublisher {
    cell: ArcSwap<DirectorySnapshot>,
    cadence: SnapshotCadence,
    stats: SnapshotStats,
    /// Our own reference to what the cell currently serves.
    current: Option<Arc<DirectorySnapshot>>,
    /// …and to the publication before it, which the cell let go of when
    /// `current` went in: the buffer the next publish replays onto.
    spare: Option<Arc<DirectorySnapshot>>,
    /// Until when the last charged publish is still being paid off.
    not_before: SimTime,
}

impl SnapshotPublisher {
    /// A publisher holding the empty snapshot.
    pub fn new(cadence: SnapshotCadence) -> SnapshotPublisher {
        SnapshotPublisher {
            cell: ArcSwap::new(Arc::new(DirectorySnapshot::empty())),
            cadence,
            stats: SnapshotStats::default(),
            current: None,
            spare: None,
            not_before: SimTime::ZERO,
        }
    }

    /// A cloneable handle readers hang off.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: self.cell.clone(),
        }
    }

    /// When a publish that is owed may next be attempted: `None` while
    /// the cache has not changed since the last one.  An instant in the
    /// past means "now" (or that a reader holds the spare).
    pub fn pending_until(&self, dir: &SessionDirectory) -> Option<SimTime> {
        match &self.current {
            Some(current) if dir.cache().change_seq() == current.cursor => None,
            _ => Some(self.not_before),
        }
    }

    /// Publish if the cache has changed since the last publication and
    /// the last charged cost is paid off; the first publication is
    /// unconditional.  A publish that is due while a reader still holds
    /// the spare is put off — capturing instead would allocate a third
    /// snapshot — until the reader lets go, or until `max_wait` after
    /// the last publication, whichever comes first.
    pub fn maybe_publish(&mut self, now: SimTime, dir: &SessionDirectory) -> bool {
        if self.pending_until(dir).is_none_or(|at| now < at) {
            return false;
        }
        if let (Some(current), Some(spare)) = (&self.current, &self.spare) {
            if Arc::strong_count(spare) > 1
                && now.saturating_since(current.published_at) < self.cadence.max_wait
            {
                self.stats.deferred += 1;
                return false;
            }
        }
        self.publish(now, dir);
        true
    }

    /// The writer's account of what its last publish cost, on its own
    /// clock: `finished` is when it ended.  Until `(share - 1) x cost`
    /// later — `max_wait` at most — [`Self::maybe_publish`] holds off.
    pub fn charge(&mut self, finished: SimTime, cost: SimDuration) {
        let back_off = cost
            .saturating_mul(u64::from(self.cadence.share.saturating_sub(1)))
            .min(self.cadence.max_wait);
        self.not_before = finished + back_off;
        self.stats.cost_ns = self.stats.cost_ns.saturating_add(cost.as_nanos());
    }

    /// The publication before last as an owned value, if no reader
    /// still holds it: the cell dropped its reference when `current`
    /// replaced it, so ours is the last one exactly then.
    fn reclaim_spare(&mut self) -> Option<DirectorySnapshot> {
        Arc::try_unwrap(self.spare.take()?).ok()
    }

    /// Unconditional publication (startup, restart, shutdown, tests):
    /// neither back-off nor a held spare puts it off.
    pub fn publish(&mut self, now: SimTime, dir: &SessionDirectory) {
        let cache = dir.cache();
        let version = self.stats.published + 1;
        // A spare that cannot replay is dropped before the capture that
        // stands in for it, keeping two snapshots resident, not three.
        let replayed = self.reclaim_spare().and_then(|mut snap| {
            let rewritten = snap.replay(cache)?;
            snap.version = version;
            snap.published_at = now;
            Some((snap, rewritten))
        });
        self.stats.replayed += u64::from(replayed.is_some());
        let (snap, rewritten) = replayed.unwrap_or_else(|| {
            let snap = DirectorySnapshot::capture(version, now, dir);
            let rows = snap.len();
            (snap, rows)
        });
        let batch = self
            .current
            .as_ref()
            .map_or(0, |current| snap.cursor.abs_diff(current.cursor));
        self.stats.published = version;
        self.stats.last_rows = snap.len();
        self.stats.rows_rewritten = rewritten;
        self.stats.max_batch = self.stats.max_batch.max(batch);
        let snap = Arc::new(snap);
        self.spare = self.current.replace(Arc::clone(&snap));
        self.cell.store(snap);
    }

    /// Publication counters so far.
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }
}

/// Cloneable, thread-safe entry point to a writer's snapshot cell.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    cell: ArcSwap<DirectorySnapshot>,
}

impl SnapshotHandle {
    /// A per-thread reader; the reader itself is `Send`.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            inner: self.cell.reader(),
        }
    }

    /// Owned reference to the current snapshot without a reader, for
    /// one-off inspection.
    pub fn load_slow(&self) -> Arc<DirectorySnapshot> {
        self.cell.load_full()
    }
}

/// A reader of one writer's snapshots.
#[derive(Debug)]
pub struct SnapshotReader {
    inner: Reader<DirectorySnapshot>,
}

impl SnapshotReader {
    /// The current snapshot, kept alive while the guard lives.
    /// Zero-alloc.
    pub fn load(&mut self) -> Guard<'_, DirectorySnapshot> {
        self.inner.load()
    }

    /// Promote to an owned `Arc` (outlives any publication).
    pub fn load_full(&mut self) -> Arc<DirectorySnapshot> {
        self.inner.load_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::{AddrSpace, InformedRandomAllocator};
    use sdalloc_sap::wire::msg_id_hash;
    use sdalloc_sap::{DirectoryConfig, SapPacket, SessionDescription};
    use sdalloc_sim::SimRng;

    fn description(i: usize) -> SessionDescription {
        SessionDescription {
            origin: sdalloc_sap::Origin {
                username: "-".into(),
                session_id: 100 + i as u64,
                version: 1,
                address: Ipv4Addr::new(10, 0, 1, 1 + (i % 200) as u8),
            },
            name: format!("session-{i}"),
            info: None,
            group: Ipv4Addr::new(224, 2, 0, 1 + (i % 200) as u8),
            ttl: 127,
            start: 0,
            stop: 0,
            media: vec![],
        }
    }

    fn directory_with(n: usize) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(256);
        let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let now = SimTime::from_secs(1);
        for i in 0..n {
            dir.cache_observe_for_test(now, description(i));
        }
        dir
    }

    #[test]
    fn capture_is_sorted_and_queryable() {
        let dir = directory_with(20);
        let snap = DirectorySnapshot::capture(1, SimTime::from_secs(2), &dir);
        assert_eq!(snap.len(), 20);
        assert!(snap.rows().windows(2).all(|w| w[0].key < w[1].key));
        assert!(snap.group_in_use(Ipv4Addr::new(224, 2, 0, 3)));
        assert!(!snap.group_in_use(Ipv4Addr::new(224, 9, 9, 9)));
        let row = snap
            .get(Ipv4Addr::new(10, 0, 1, 6), 105)
            .expect("row present");
        assert_eq!(&*row.name, "session-5");
        assert_eq!(snap.matching("session-1").count(), 11); // 1, 10..19
        assert_eq!(snap.corrupt_rows(), 0);
    }

    #[test]
    fn row_checksum_detects_mutation() {
        let dir = directory_with(1);
        let snap = DirectorySnapshot::capture(1, SimTime::from_secs(2), &dir);
        let mut row = snap.rows()[0].clone();
        assert!(row.verify());
        row.ttl ^= 0xFF;
        assert!(!row.verify(), "a torn row must fail verification");
    }

    /// Refresh `n` of the first three sessions: `n` journalled changes.
    fn touch(dir: &mut SessionDirectory, n: usize) {
        for i in 0..n {
            dir.cache_observe_for_test(SimTime::from_secs(2), description(i % 3));
        }
    }

    fn cadence(share: u32, max_wait_ms: u64) -> SnapshotCadence {
        SnapshotCadence {
            share,
            max_wait: SimDuration::from_millis(max_wait_ms),
        }
    }

    #[test]
    fn a_lone_change_publishes_at_once_and_silence_never_does() {
        let mut dir = directory_with(3);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let ms = SimTime::from_millis;
        // First publication is unconditional.
        assert!(p.maybe_publish(ms(1), &dir));
        assert_eq!(p.pending_until(&dir), None);
        // The cache has not changed: nothing to publish, however long.
        assert!(!p.maybe_publish(ms(2), &dir));
        assert!(!p.maybe_publish(SimTime::from_secs(3_600), &dir));
        // One change on an idle publisher: the very next call.
        touch(&mut dir, 1);
        assert!(p.pending_until(&dir).is_some());
        assert!(p.maybe_publish(SimTime::from_secs(3_600), &dir));
        // Nobody charged anything, so neither does the one after wait.
        touch(&mut dir, 1);
        assert!(p.maybe_publish(SimTime::from_secs(3_600), &dir));
        assert_eq!(p.stats().published, 3);
        assert_eq!((p.stats().max_batch, p.stats().deferred), (1, 0));
    }

    #[test]
    fn a_charged_publish_blocks_the_next_for_its_share_and_no_longer() {
        let mut dir = directory_with(3);
        let mut p = SnapshotPublisher::new(cadence(10, 250));
        let us = SimTime::from_micros;
        assert!(p.maybe_publish(us(0), &dir));
        // The publish ran from 0 to 100 us: 900 us of back-off.
        p.charge(us(100), SimDuration::from_micros(100));
        touch(&mut dir, 2);
        assert_eq!(p.pending_until(&dir), Some(us(1_000)));
        assert!(!p.maybe_publish(us(101), &dir));
        assert!(!p.maybe_publish(us(999), &dir));
        assert!(
            p.maybe_publish(us(1_000), &dir),
            "paid off: not a tick longer"
        );
        assert_eq!(p.stats().max_batch, 2, "what piled up went out together");
        // A zero-cost publish (a virtual clock) never blocks.
        p.charge(us(1_000), SimDuration::ZERO);
        touch(&mut dir, 1);
        assert!(p.maybe_publish(us(1_000), &dir));
        // A charge above max_wait / (share - 1) is capped at max_wait.
        p.charge(us(2_000), SimDuration::from_millis(28));
        touch(&mut dir, 1);
        assert_eq!(p.pending_until(&dir), Some(us(252_000)));
        assert!(!p.maybe_publish(us(251_999), &dir));
        assert!(p.maybe_publish(us(252_000), &dir));
        assert_eq!(p.stats().cost_ns, 28_100_000);
        assert_eq!(p.stats().deferred, 0, "back-off is not deferral");
    }

    #[test]
    fn dearer_publishes_mean_fewer_of_them() {
        // A change every 100 us for 100 ms, against publishes charged
        // 10 us, 100 us, 1 ms and 10 ms.
        let counts: Vec<u64> = [10u64, 100, 1_000, 10_000]
            .into_iter()
            .map(|cost_us| {
                let mut dir = directory_with(3);
                let mut p = SnapshotPublisher::new(cadence(10, 250));
                for tick in 0..1_000u64 {
                    let now = SimTime::from_micros(tick * 100);
                    touch(&mut dir, 1);
                    if p.maybe_publish(now, &dir) {
                        let cost = SimDuration::from_micros(cost_us);
                        p.charge(now + cost, cost);
                    }
                }
                p.stats().published
            })
            .collect();
        assert_eq!(
            counts,
            [1_000, 100, 10, 1],
            "one part in ten, whatever the cost"
        );
    }

    #[test]
    fn a_held_spare_defers_instead_of_allocating() {
        let mut dir = directory_with(5);
        let mut p = SnapshotPublisher::new(cadence(10, 250));
        let handle = p.handle();
        let (mut reader, mut scanner) = (handle.reader(), handle.reader());
        let ms = SimTime::from_millis;
        p.publish(ms(1), &dir);
        p.publish(ms(2), &dir);
        let guard = scanner.load(); // version 2: the spare after next
        touch(&mut dir, 1);
        assert!(
            p.maybe_publish(ms(3), &dir),
            "version 1 is free to replay onto"
        );
        assert_eq!((p.stats().published, p.stats().replayed), (3, 1));

        // Due, but the reader still scans version 2: wait for it.
        touch(&mut dir, 1);
        assert!(!p.maybe_publish(ms(4), &dir));
        assert!(!p.maybe_publish(ms(5), &dir));
        assert_eq!(p.stats().deferred, 2);
        assert_eq!((p.stats().published, p.stats().replayed), (3, 1));
        assert_eq!(reader.load().version(), 3, "nothing new was built");
        assert!(p.pending_until(&dir).is_some(), "still owed");
        // The reader lets go: the same buffer is replayed, two changes on.
        drop(guard);
        assert!(p.maybe_publish(ms(6), &dir));
        assert_eq!((p.stats().published, p.stats().replayed), (4, 2));
        assert_eq!(p.stats().rows_rewritten, 1);

        // A reader pinned for good: the publisher keeps its spare — two
        // snapshots resident, not three — until max_wait after the last
        // publish, then captures as a fixed cadence would have.
        let pinned = reader.load_full(); // version 4
        touch(&mut dir, 1);
        assert!(p.maybe_publish(ms(7), &dir), "version 3 was free");
        touch(&mut dir, 1);
        assert!(!p.maybe_publish(ms(8), &dir));
        assert!(!p.maybe_publish(ms(256), &dir));
        assert_eq!(
            Arc::strong_count(&pinned),
            2,
            "ours and the publisher's spare"
        );
        assert!(p.maybe_publish(ms(257), &dir), "max_wait since version 5");
        assert_eq!((p.stats().published, p.stats().replayed), (6, 3));
        assert_eq!(p.stats().rows_rewritten, 5, "a capture");
        assert_eq!(Arc::strong_count(&pinned), 1, "the publisher let it go");
        let snap = reader.load();
        let fresh = DirectorySnapshot::capture(6, ms(257), &dir);
        assert_eq!((snap.rows(), snap.groups()), (fresh.rows(), fresh.groups()));
        // publish() itself never defers.
        let deferred = p.stats().deferred;
        drop(snap);
        let _held = reader.load();
        p.publish(ms(258), &dir);
        p.publish(ms(259), &dir);
        assert_eq!((p.stats().published, p.stats().deferred), (8, deferred));
    }

    #[test]
    fn replay_tracks_refresh_move_insert_and_removal() {
        let mut dir = directory_with(40);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let mut reader = p.handle().reader();
        let t = SimTime::from_secs;
        p.publish(t(2), &dir);
        p.publish(t(3), &dir);
        assert_eq!(p.stats().replayed, 0, "the first two publishes capture");
        assert_eq!(p.stats().rows_rewritten, 40);

        // Nothing changed: the spare replays an empty batch.
        p.publish(t(4), &dir);
        assert_eq!((p.stats().replayed, p.stats().rows_rewritten), (1, 0));

        // One refresh, one move onto a group nobody used, one brand-new
        // session sharing a group, one delete that empties its group.
        dir.cache_observe_for_test(t(5), description(7));
        let mut moved = description(8);
        moved.origin.version = 2;
        moved.group = Ipv4Addr::new(224, 2, 9, 9);
        dir.cache_observe_for_test(t(5), moved);
        let mut shared = description(300);
        shared.group = description(7).group;
        dir.cache_observe_for_test(t(5), shared);
        let gone = description(9);
        let payload = gone.format();
        let delete = SapPacket::delete(gone.origin.address, msg_id_hash(&payload), payload);
        dir.on_packet(t(5), &delete, &mut SimRng::new(1));
        p.publish(t(6), &dir);
        assert_eq!((p.stats().replayed, p.stats().rows_rewritten), (2, 4));
        assert_eq!(p.stats().last_rows, 40);

        let snap = reader.load();
        let fresh = DirectorySnapshot::capture(snap.version(), t(6), &dir);
        assert_eq!((snap.rows(), snap.groups()), (fresh.rows(), fresh.groups()));
        assert_eq!(snap.corrupt_rows(), 0);
        assert_eq!((snap.version(), snap.published_at()), (4, t(6)));
        assert!(snap.group_in_use(Ipv4Addr::new(224, 2, 9, 9)));
        assert!(!snap.group_in_use(gone.group));
        assert!(!snap.group_in_use(description(8).group), "8 moved away");
        assert!(snap
            .get(gone.origin.address, gone.origin.session_id)
            .is_none());
    }

    #[test]
    fn a_held_spare_or_a_lost_cursor_falls_back_to_capture() {
        let mut dir = directory_with(5);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let mut reader = p.handle().reader();
        let t = SimTime::from_secs;
        p.publish(t(2), &dir);
        let held = reader.load_full(); // version 1: the next spare
        p.publish(t(3), &dir);
        p.publish(t(4), &dir);
        assert_eq!(p.stats().replayed, 0, "a reader still owns the spare");
        assert_eq!(held.version(), 1);
        drop(held);
        p.publish(t(5), &dir);
        assert_eq!(p.stats().replayed, 1);
        // A borrowed guard holds its snapshot just as an owned Arc does.
        let guard = reader.load(); // version 4: the spare after next
        p.publish(t(5), &dir);
        assert_eq!(p.stats().replayed, 2, "version 3 was free");
        p.publish(t(5), &dir);
        assert_eq!(p.stats().replayed, 2, "a guard still borrows the spare");
        assert_eq!(guard.version(), 4);
        drop(guard);
        p.publish(t(5), &dir);
        assert_eq!(p.stats().replayed, 3);
        // A restart replaces the cache: no cursor survives it.
        dir.restart(t(6));
        p.publish(t(6), &dir);
        p.publish(t(7), &dir);
        assert_eq!(p.stats().replayed, 3, "both spares predate the restart");
        assert_eq!(reader.load().len(), 0);
        p.publish(t(8), &dir);
        assert_eq!(p.stats().replayed, 4);
    }

    #[test]
    fn a_reader_that_panics_under_a_guard_leaves_the_cell_usable() {
        let dir = directory_with(3);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let handle = p.handle();
        p.publish(SimTime::from_secs(1), &dir);
        let mut doomed = handle.reader();
        let died = std::thread::spawn(move || {
            let guard = doomed.load();
            panic!("reader dies holding version {}", guard.version());
        })
        .join();
        assert!(died.is_err());
        // No lock is held across reader code, so none was poisoned.
        p.publish(SimTime::from_secs(2), &dir);
        assert_eq!(handle.reader().load().version(), 2);
    }

    #[test]
    fn reader_sees_latest_publication() {
        let dir = directory_with(5);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let handle = p.handle();
        let mut reader = handle.reader();
        assert_eq!(reader.load().version(), 0);
        p.publish(SimTime::from_secs(1), &dir);
        let snap = reader.load();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.len(), 5);
        assert_eq!(
            snap.staleness(SimTime::from_secs(3)),
            SimDuration::from_secs(2)
        );
    }
}
