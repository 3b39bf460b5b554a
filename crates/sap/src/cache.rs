//! The announcement cache: the listener half of announce/listen.
//!
//! "Session directories use an announce/listen approach to build up a
//! complete list of these advertised sessions, and a multicast address
//! is chosen from those not already in use."  The cache holds every
//! session description heard, keyed by `(originating source, session
//! id)`, ages entries out when announcements stop, honours explicit
//! deletions, and — crucially for allocation — projects itself onto the
//! allocator's [`sdalloc_core::View`] as `(address, TTL)` pairs.
//!
//! ## Storage: generational slab
//!
//! Session records live in a contiguous [`Slab`] arena addressed by
//! dense [`SessionId`]s; the string fields (names, usernames, media
//! labels) are interned through a reference-counted [`Interner`] so a
//! record is a fixed-layout block of `Copy` fields plus 4-byte
//! symbols.  Every index below resolves a record with one array access
//! instead of re-hashing a `String` key, and slot reuse is guarded by
//! generation counters: a [`SessionHandle`] minted before an eviction
//! can never alias the record that later recycles the slot.
//!
//! ## Indexing
//!
//! A production-scale scope caches up to a million sessions, and the
//! first reproduction paid O(cache) on every hot operation: expiry
//! was a full `retain` scan, the clash-detection probe filtered every
//! entry, and the allocator view was rebuilt by scanning the table.
//! Incrementally-maintained indices remove those scans:
//!
//! * **expiry heap** — one min-heap ordered by `last_heard` (with a
//!   fixed timeout, `last_heard` order *is* expiry order).  Entries
//!   are inserted once when first heard; a refresh just bumps the
//!   record's `last_heard`, and the stale heap slot is lazily re-filed
//!   when it surfaces.  [`Self::purge_expired`] therefore costs
//!   O(expired · log n), not O(n), and [`Self::earliest_last_heard`]
//!   exposes the next expiry deadline for wake-on-deadline callers.
//! * **group index** — `group → sorted map of keys to ids`, so
//!   [`Self::users_of`] (the clash probe, run on *every* received
//!   announcement) is O(candidates) instead of O(cache), with each
//!   candidate resolved by dense id.
//! * **visible multiset** — `(group, ttl) → count`, kept sorted, so
//!   [`Self::visible_sessions`] walks only distinct occupied
//!   `(group, ttl)` pairs in deterministic order instead of scanning
//!   and sorting the whole table per allocation.
//!
//! ## Reconciliation digests
//!
//! For anti-entropy recovery (a restarted directory rebuilding its
//! cache from a live peer) the cache maintains [`DIGEST_BUCKETS`]
//! XOR-accumulated summaries: every entry hashes (group, key, version)
//! through seeded FNV-1a into the bucket its *key* selects, and the
//! bucket accumulator XORs the hash in on admit and out on removal.
//! XOR is commutative and self-inverse, so two caches holding the same
//! entries produce byte-identical digests regardless of arrival order.
//! [`differing_buckets`] names the buckets where two digests disagree;
//! [`Self::keys_in_bucket`] enumerates the entries a peer must
//! re-announce to close the gap.
//!
//! ## Governor indices
//!
//! The ingest governor's tiered eviction needs deterministic victims:
//! an **origin index** (`origin → sorted session ids`) backs per-source
//! quotas, and an **unverified set** (`(first_heard, key)` of entries
//! heard exactly once) names the newest-unproven tier.  Both are
//! `BTreeMap`/`BTreeSet` so iteration order — and therefore every
//! eviction decision and chaos report — is identical across runs.
//!
//! ## Change journal
//!
//! A snapshot publisher that already holds a copy of the table wants
//! only what moved since.  The cache appends the key of every mutation
//! — admit, modify, refresh (rows carry `last_heard`) and every
//! removal — to a bounded ring numbered by a monotone sequence:
//! [`Self::change_seq`] is the cursor, [`Self::changes_since`] replays
//! from one.  The ring holds keys, not [`SessionId`]s (ids are
//! recycled), and at most `max(JOURNAL_FLOOR, len())` of them: a
//! journal longer than the table is worth less than re-reading the
//! table, so a cursor that fell off the tail gets `None` and the caller
//! does exactly that.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::net::Ipv4Addr;

use sdalloc_core::{AddrSpace, VisibleSession};
use sdalloc_sim::{SimDuration, SimTime};

use crate::sdp::{DescRef, Media, Origin, SessionDescription};
use crate::slab::{Interner, SessionHandle, SessionId, Slab, Sym};
use crate::wire::{fnv1a_64, fnv1a_64_fold};

/// Number of reconciliation digest buckets.  Sixteen keeps the wire
/// message one small line while still narrowing a single-entry diff to
/// ~1/16 of the cache for targeted re-announcement.
pub const DIGEST_BUCKETS: usize = 16;

/// Protocol-wide digest seed folded into every per-entry hash.  Peers
/// carry the seed in [`crate::wire::CacheDigest`]; a digest computed
/// under a different seed is incomparable and must be ignored.
pub const DIGEST_SEED: u64 = 0x5d1c_4a11_0c8d_1697;

/// Benchmark-only: `benchmark/src/sut.rs` sizes the sharded queue of
/// its `timer.*_ns` probe with this.  Nothing in the product is keyed
/// by TTL band; it goes when that probe is re-pointed at
/// `sdalloc_sim::TimerQueue` (ROADMAP item 3).
pub const TTL_BANDS: usize = 4;

/// Change-journal entries kept however small the table is, so a
/// near-empty cache can still replay a burst of admits.
const JOURNAL_FLOOR: usize = 1024;

/// Dead expiry slots tolerated on top of one per live entry before the
/// heap is rebuilt, so a small cache does not rebuild on every removal.
const EXPIRY_SLACK: usize = 64;

/// A reconciliation digest bucket: an index below [`DIGEST_BUCKETS`]
/// by construction (hashed-and-masked from a key, or range-checked by
/// [`Self::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestBucket(u8);

impl DigestBucket {
    /// The bucket with this index, if there is one — the check a
    /// bucket number read off the wire goes through.
    pub fn new(index: usize) -> Option<DigestBucket> {
        u8::try_from(index)
            .ok()
            .filter(|_| index < DIGEST_BUCKETS)
            .map(DigestBucket)
    }

    /// The bucket's index, in `0..DIGEST_BUCKETS`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// This bucket's accumulator in a digest array.
    #[expect(
        clippy::indexing_slicing,
        reason = "self.0 < DIGEST_BUCKETS, the array length: bucket_of masks to it and new() range-checks"
    )]
    pub fn slot(self, digests: &mut [u64; DIGEST_BUCKETS]) -> &mut u64 {
        &mut digests[self.index()]
    }
}

/// Bucket indices where two digests differ, ascending.
pub fn differing_buckets(ours: &[u64; DIGEST_BUCKETS], theirs: &[u64; DIGEST_BUCKETS]) -> Vec<u16> {
    (0u16..)
        .zip(ours.iter().zip(theirs))
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect()
}

/// Cache key: who announced, which of their sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Originating host (from the SDP `o=` line).
    pub origin: Ipv4Addr,
    /// Origin's session id.
    pub session_id: u64,
}

/// A fixed-layout session record in the slab arena: `Copy` scalars
/// plus interned string symbols.  The media list is the one
/// variable-length field; its labels are interned so the common
/// single-`audio` case shares two symbols cache-wide.
#[derive(Debug, Clone)]
pub(crate) struct SessionRecord {
    key: CacheKey,
    username: Sym,
    version: u64,
    name: Sym,
    info: Option<Sym>,
    group: Ipv4Addr,
    ttl: u8,
    start: u64,
    stop: u64,
    media: Vec<MediaRec>,
    first_heard: SimTime,
    last_heard: SimTime,
    announcements: u64,
}

/// One interned media line of a record.
#[derive(Debug, Clone, Copy)]
struct MediaRec {
    kind: Sym,
    port: u16,
    proto: Sym,
    format: u32,
}

/// A borrowed view of a cached record: resolves interned symbols on
/// demand and materializes an owned [`SessionDescription`] only when a
/// caller explicitly asks ([`Self::desc`]).
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    rec: &'a SessionRecord,
    strings: &'a Interner,
}

impl<'a> EntryRef<'a> {
    /// The record's cache key.
    pub fn key(&self) -> CacheKey {
        self.rec.key
    }

    /// The session's multicast group.
    pub fn group(&self) -> Ipv4Addr {
        self.rec.group
    }

    /// The session's TTL scope.
    pub fn ttl(&self) -> u8 {
        self.rec.ttl
    }

    /// The `o=` line version of the held description.
    pub fn version(&self) -> u64 {
        self.rec.version
    }

    /// The session name (`s=` line).
    pub fn name(&self) -> &'a str {
        self.strings.get(self.rec.name)
    }

    /// Shared handle on the session name.  Snapshot builders clone
    /// this instead of copying the string: the `Arc` keeps the text
    /// alive after the record (and its interner reference) is gone.
    pub fn name_arc(&self) -> Option<std::sync::Arc<str>> {
        self.strings.get_arc(self.rec.name)
    }

    /// When this session was first heard.
    pub fn first_heard(&self) -> SimTime {
        self.rec.first_heard
    }

    /// When this session was last heard.
    pub fn last_heard(&self) -> SimTime {
        self.rec.last_heard
    }

    /// Number of announcements received.
    pub fn announcements(&self) -> u64 {
        self.rec.announcements
    }

    /// Materialize an owned session description — the explicit copy
    /// point for callers that need one (re-announcement, eviction
    /// reporting); probes read the borrowed accessors instead.
    pub fn desc(&self) -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: self.strings.get(self.rec.username).to_string(),
                session_id: self.rec.key.session_id,
                version: self.rec.version,
                address: self.rec.key.origin,
            },
            name: self.strings.get(self.rec.name).to_string(),
            info: self.rec.info.map(|s| self.strings.get(s).to_string()),
            group: self.rec.group,
            ttl: self.rec.ttl,
            start: self.rec.start,
            stop: self.rec.stop,
            media: self
                .rec
                .media
                .iter()
                .map(|m| Media {
                    kind: self.strings.get(m.kind).to_string(),
                    port: m.port,
                    proto: self.strings.get(m.proto).to_string(),
                    format: m.format,
                })
                .collect(),
        }
    }
}

/// Outcome of feeding an announcement to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheUpdate {
    /// First time this session was heard.
    New,
    /// Re-announcement with unchanged content.
    Refreshed,
    /// The description changed (higher `o=` version) — e.g. an address
    /// moved after a clash.
    Modified,
    /// Stale: lower version than what we hold; ignored.
    Stale,
}

/// The announcement cache.
#[derive(Debug, Clone)]
pub struct AnnouncementCache {
    /// The record arena.
    arena: Slab<SessionRecord>,
    /// The shared string table for record symbols.
    strings: Interner,
    /// `key → dense id` — the only hashed hop; every index below
    /// resolves through it or stores ids directly.
    ids: HashMap<CacheKey, SessionId>,
    /// Entries not refreshed within this span are purged.
    timeout: SimDuration,
    /// Min-heap of `(last_heard-at-push, key)`.  A slot whose pushed
    /// `last_heard` no longer matches the record's is stale (the
    /// record was refreshed) and is re-filed when it surfaces; a slot
    /// whose key is gone is discarded.
    expiry: BinaryHeap<Reverse<(SimTime, CacheKey)>>,
    /// XOR-accumulated seeded FNV hashes over (group, key, version) of
    /// every cached record, one accumulator per bucket.
    digests: [u64; DIGEST_BUCKETS],
    /// `group → keys (sorted) → ids` — the clash-detection probe.
    by_group: HashMap<Ipv4Addr, BTreeMap<CacheKey, SessionId>>,
    /// `(group, ttl) → entry count`, sorted by group then TTL — the
    /// allocator-view projection.
    visible: BTreeMap<(Ipv4Addr, u8), u32>,
    /// `origin → its cached session ids` — governor quotas and
    /// quota-tier eviction.  The outer map is hashed for O(1) hot-path
    /// maintenance; eviction re-derives the deterministic
    /// lowest-origin order with a min-scan (see
    /// [`Self::quota_violator`]).
    origin_keys: HashMap<Ipv4Addr, BTreeSet<u64>>,
    /// `(first_heard, key)` of entries heard exactly once — the
    /// governor's unverified-new eviction tier.
    unverified: BTreeSet<(SimTime, CacheKey)>,
    /// Reused output buffer for the purge methods: no allocation on the
    /// (overwhelmingly common) calls where nothing expires.
    scratch: Vec<CacheKey>,
    /// Keys of the most recent mutations, oldest first; the entry at
    /// the back has sequence number `change_seq - 1`.
    journal: VecDeque<CacheKey>,
    /// Mutations journalled so far (the next entry's sequence number).
    change_seq: u64,
}

// Read-path purity: every query takes `&self`, and `Sync` rules out
// `Cell`/`RefCell` fields, so a query cannot mutate the cache behind a
// shared borrow.  (Atomics and locks are `Sync`; adding one here is a
// review matter.)
const _: fn() = || {
    fn sync<T: Sync>() {}
    sync::<AnnouncementCache>();
};

impl AnnouncementCache {
    /// Create a cache with the given expiry timeout.
    ///
    /// RFC 2974 recommends "ten times the announcement period, or one
    /// hour, whichever is the greater"; pass that in from the directory's
    /// announcement schedule.
    pub fn new(timeout: SimDuration) -> Self {
        AnnouncementCache {
            arena: Slab::new(),
            strings: Interner::new(),
            ids: HashMap::new(),
            timeout,
            expiry: BinaryHeap::new(),
            digests: [0; DIGEST_BUCKETS],
            by_group: HashMap::new(),
            visible: BTreeMap::new(),
            origin_keys: HashMap::new(),
            unverified: BTreeSet::new(),
            scratch: Vec::new(),
            journal: VecDeque::new(),
            change_seq: 0,
        }
    }

    /// The empty cache a restarted process rebuilds from.  Its journal
    /// resumes one past this cache's with nothing retained, so a cursor
    /// taken before the restart cannot replay across it — and differs
    /// from the new [`Self::change_seq`], so the loss itself reads as a
    /// change.
    pub fn restarted(&self) -> AnnouncementCache {
        let mut fresh = AnnouncementCache::new(self.timeout);
        fresh.change_seq = self.change_seq + 1;
        fresh
    }

    /// Journal one mutation of `key`, dropping what no longer fits.
    fn note_change(&mut self, key: CacheKey) {
        self.journal.push_back(key);
        self.change_seq += 1;
        let bound = self.ids.len().max(JOURNAL_FLOOR);
        while self.journal.len() > bound {
            self.journal.pop_front();
        }
    }

    /// The journal cursor: how many mutations this cache (and the ones
    /// it was [`Self::restarted`] from) has seen.  Two equal cursors
    /// bracket a span in which no row changed.
    pub fn change_seq(&self) -> u64 {
        self.change_seq
    }

    /// Keys mutated since the cursor `seq`, oldest first, repeats
    /// included.  `None` means "cannot replay" — the ring has dropped
    /// entries after `seq`, or `seq` is not a cursor of this cache's
    /// lineage — never "nothing changed", which is an empty iterator.
    pub fn changes_since(&self, seq: u64) -> Option<impl Iterator<Item = CacheKey> + '_> {
        let behind = self.change_seq.checked_sub(seq)?;
        let skip = (self.journal.len() as u64).checked_sub(behind)?;
        Some(self.journal.range(skip as usize..).copied())
    }

    /// The digest bucket `key` hashes into (key only, so version and
    /// group changes stay within one bucket).
    fn bucket_of(key: &CacheKey) -> DigestBucket {
        let h = fnv1a_64_fold(
            fnv1a_64(&key.origin.octets()),
            &key.session_id.to_be_bytes(),
        );
        // DIGEST_BUCKETS is a power of two; the mask keeps this branch-free.
        DigestBucket((h & (DIGEST_BUCKETS as u64 - 1)) as u8)
    }

    /// The seeded per-entry hash over (group, key, version) that the
    /// bucket accumulators XOR together.
    fn hash_parts(key: &CacheKey, group: Ipv4Addr, version: u64) -> u64 {
        let mut h = fnv1a_64(&DIGEST_SEED.to_be_bytes());
        h = fnv1a_64_fold(h, &group.octets());
        h = fnv1a_64_fold(h, &key.origin.octets());
        h = fnv1a_64_fold(h, &key.session_id.to_be_bytes());
        fnv1a_64_fold(h, &version.to_be_bytes())
    }

    /// The configured expiry timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    fn index_insert(&mut self, key: CacheKey, id: SessionId, group: Ipv4Addr, ttl: u8) {
        self.by_group.entry(group).or_default().insert(key, id);
        *self.visible.entry((group, ttl)).or_insert(0) += 1;
    }

    fn index_remove(&mut self, key: CacheKey, group: Ipv4Addr, ttl: u8) {
        if let Some(map) = self.by_group.get_mut(&group) {
            map.remove(&key);
            if map.is_empty() {
                self.by_group.remove(&group);
            }
        }
        if let Some(count) = self.visible.get_mut(&(group, ttl)) {
            *count -= 1;
            if *count == 0 {
                self.visible.remove(&(group, ttl));
            }
        }
    }

    /// Whether a record still matches a wire description exactly
    /// (field-for-field, [`SessionDescription`] equality semantics).
    fn record_matches(strings: &Interner, rec: &SessionRecord, d: &DescRef<'_>) -> bool {
        // Scalar fields first: a genuine modification almost always
        // moves one of these, so the string resolutions below are
        // reached only on the match (refresh) path or a rename.
        rec.version == d.origin.version
            && rec.group == d.group
            && rec.ttl == d.ttl
            && rec.start == d.start
            && rec.stop == d.stop
            && rec.media.len() == d.media.len()
            && strings.get(rec.username) == d.origin.username
            && strings.get(rec.name) == d.name
            && rec.info.map(|s| strings.get(s)) == d.info
            && rec.media.iter().zip(d.media.iter()).all(|(m, dm)| {
                strings.get(m.kind) == dm.kind
                    && m.port == dm.port
                    && strings.get(m.proto) == dm.proto
                    && m.format == dm.format
            })
    }

    /// Feed one announcement heard at `now` — owned-description compat
    /// wrapper over [`Self::observe_announce_ref`].
    pub fn observe_announce(&mut self, now: SimTime, desc: SessionDescription) -> CacheUpdate {
        self.observe_announce_ref(now, &desc.as_ref())
    }

    /// Feed one announcement heard at `now`, zero-copy: the borrowed
    /// description is materialized into interned arena storage only on
    /// admit or modify; a refresh (the overwhelmingly common case)
    /// copies nothing.
    pub fn observe_announce_ref(&mut self, now: SimTime, d: &DescRef<'_>) -> CacheUpdate {
        let key = CacheKey {
            origin: d.origin.address,
            session_id: d.origin.session_id,
        };
        match self.ids.get(&key).copied() {
            None => {
                let hash = Self::hash_parts(&key, d.group, d.origin.version);
                let rec = SessionRecord {
                    key,
                    username: self.strings.intern(d.origin.username),
                    version: d.origin.version,
                    name: self.strings.intern(d.name),
                    info: d.info.map(|s| self.strings.intern(s)),
                    group: d.group,
                    ttl: d.ttl,
                    start: d.start,
                    stop: d.stop,
                    media: d
                        .media
                        .iter()
                        .map(|m| MediaRec {
                            kind: self.strings.intern(m.kind),
                            port: m.port,
                            proto: self.strings.intern(m.proto),
                            format: m.format,
                        })
                        .collect(),
                    first_heard: now,
                    last_heard: now,
                    announcements: 1,
                };
                let id = self.arena.insert(rec);
                self.ids.insert(key, id);
                self.expiry.push(Reverse((now, key)));
                self.index_insert(key, id, d.group, d.ttl);
                *Self::bucket_of(&key).slot(&mut self.digests) ^= hash;
                self.origin_keys
                    .entry(key.origin)
                    .or_default()
                    .insert(key.session_id);
                self.unverified.insert((now, key));
                self.note_change(key);
                CacheUpdate::New
            }
            Some(id) => {
                let Some(rec) = self.arena.get_mut(id) else {
                    // Unreachable: `ids` and the arena are maintained in
                    // lockstep; treat a phantom id as ignorable.
                    return CacheUpdate::Stale;
                };
                if d.origin.version < rec.version {
                    return CacheUpdate::Stale;
                }
                let modified =
                    d.origin.version > rec.version || !Self::record_matches(&self.strings, rec, d);
                let (old_group, old_ttl, old_version) = (rec.group, rec.ttl, rec.version);
                if modified {
                    // Intern the new strings before releasing the old
                    // ones so unchanged strings never bounce through
                    // the free list.
                    let old_username = rec.username;
                    let old_name = rec.name;
                    let old_info = rec.info;
                    let old_media = std::mem::take(&mut rec.media);
                    rec.username = self.strings.intern(d.origin.username);
                    rec.name = self.strings.intern(d.name);
                    rec.info = d.info.map(|s| self.strings.intern(s));
                    rec.media = d
                        .media
                        .iter()
                        .map(|m| MediaRec {
                            kind: self.strings.intern(m.kind),
                            port: m.port,
                            proto: self.strings.intern(m.proto),
                            format: m.format,
                        })
                        .collect();
                    rec.version = d.origin.version;
                    rec.group = d.group;
                    rec.ttl = d.ttl;
                    rec.start = d.start;
                    rec.stop = d.stop;
                    self.strings.release(old_username);
                    self.strings.release(old_name);
                    if let Some(s) = old_info {
                        self.strings.release(s);
                    }
                    for m in old_media {
                        self.strings.release(m.kind);
                        self.strings.release(m.proto);
                    }
                }
                rec.last_heard = now;
                rec.announcements += 1;
                let became_verified = rec.announcements == 2;
                let first_heard = rec.first_heard;
                // The refresh only bumps `last_heard`; the stale expiry
                // slot is lazily re-filed when it surfaces.
                if (old_group, old_ttl) != (d.group, d.ttl) {
                    self.index_remove(key, old_group, old_ttl);
                    self.index_insert(key, id, d.group, d.ttl);
                }
                // The digest hash covers (key, group, version), so a
                // pure refresh — same group, same version, the
                // overwhelmingly common case — provably cancels to a
                // no-op XOR; skip computing the hashes entirely.
                if (old_group, old_version) != (d.group, d.origin.version) {
                    let old_hash = Self::hash_parts(&key, old_group, old_version);
                    let new_hash = Self::hash_parts(&key, d.group, d.origin.version);
                    *Self::bucket_of(&key).slot(&mut self.digests) ^= old_hash ^ new_hash;
                }
                if became_verified {
                    self.unverified.remove(&(first_heard, key));
                }
                // A pure refresh still moves `last_heard`, which
                // snapshot rows carry.
                self.note_change(key);
                if modified {
                    CacheUpdate::Modified
                } else {
                    CacheUpdate::Refreshed
                }
            }
        }
    }

    /// Drop the digest/governor index state of a just-removed record
    /// and journal the removal.  Every removal path (delete, purge,
    /// eviction) funnels here so the accumulators stay exact.
    fn forget_record(&mut self, key: CacheKey, rec: &SessionRecord) {
        self.note_change(key);
        *Self::bucket_of(&key).slot(&mut self.digests) ^=
            Self::hash_parts(&key, rec.group, rec.version);
        if let Some(ids) = self.origin_keys.get_mut(&key.origin) {
            ids.remove(&key.session_id);
            if ids.is_empty() {
                self.origin_keys.remove(&key.origin);
            }
        }
        // Entries heard twice were dropped from `unverified` the moment
        // they verified; only once-heard entries still hold a slot.
        if rec.announcements < 2 {
            self.unverified.remove(&(rec.first_heard, key));
        }
        self.compact_expiry();
    }

    /// A removal leaves the entry's expiry slot behind, to be dropped
    /// when it surfaces — which, under older live entries, can be a
    /// whole purge horizon away, so a flood of admit-then-evict would
    /// grow the heap with the traffic rather than the table.  Once
    /// dead slots outnumber live entries, rebuild the heap from the
    /// records: O(live), amortised over at least as many removals.
    fn compact_expiry(&mut self) {
        if self.expiry.len() <= 2 * self.ids.len() + EXPIRY_SLACK {
            return;
        }
        self.expiry.clear();
        for (&key, &id) in &self.ids {
            if let Some(rec) = self.arena.get(id) {
                self.expiry.push(Reverse((rec.last_heard, key)));
            }
        }
    }

    /// Release a removed record's interned strings back to the table.
    fn release_record(&mut self, rec: SessionRecord) {
        self.strings.release(rec.username);
        self.strings.release(rec.name);
        if let Some(s) = rec.info {
            self.strings.release(s);
        }
        for m in rec.media {
            self.strings.release(m.kind);
            self.strings.release(m.proto);
        }
    }

    /// Feed a deletion for `(origin, session_id)`; returns whether an
    /// entry was removed.
    pub fn observe_delete(&mut self, origin: Ipv4Addr, session_id: u64) -> bool {
        let key = CacheKey { origin, session_id };
        let Some(id) = self.ids.remove(&key) else {
            return false;
        };
        let Some(rec) = self.arena.remove(id) else {
            return false;
        };
        self.index_remove(key, rec.group, rec.ttl);
        self.forget_record(key, &rec);
        self.release_record(rec);
        // The expiry slot is discarded lazily.
        true
    }

    /// Remove one entry by key, maintaining every index; returns
    /// whether an entry was removed.  The governor's eviction tiers call
    /// this with a victim chosen by [`Self::oldest_entry`],
    /// [`Self::oldest_unverified`] or [`Self::quota_violator`].
    pub fn evict(&mut self, key: CacheKey) -> bool {
        self.observe_delete(key.origin, key.session_id)
    }

    /// Pop every entry whose `last_heard` is more than `horizon` before
    /// `now` into `self.scratch`, maintaining all indices.  Shared core
    /// of [`Self::purge_expired`] and [`Self::purge_stale`]; both orders
    /// agree because the horizon is constant within one call.
    fn purge_older_than(&mut self, now: SimTime, horizon: SimDuration) {
        self.scratch.clear();
        while let Some(&Reverse((pushed, key))) = self.expiry.peek() {
            // The oldest possibly-dead slot is still within the horizon:
            // every live entry is newer, so we are done.  (A stale slot
            // is always older than its record's true `last_heard`, so
            // this early-out never misses an expired entry.)
            if now.saturating_since(pushed) <= horizon {
                break;
            }
            self.expiry.pop();
            let Some(&id) = self.ids.get(&key) else {
                continue; // deleted since the push: discard the slot
            };
            let Some(rec) = self.arena.get(id) else {
                continue;
            };
            if rec.last_heard != pushed {
                // Refreshed since the push: re-file under the current
                // refresh time and keep looking.
                self.expiry.push(Reverse((rec.last_heard, key)));
                continue;
            }
            self.ids.remove(&key);
            if let Some(rec) = self.arena.remove(id) {
                self.index_remove(key, rec.group, rec.ttl);
                self.forget_record(key, &rec);
                self.release_record(rec);
            }
            self.scratch.push(key);
        }
        self.scratch.sort_unstable();
    }

    /// Remove entries that have not been refreshed within the timeout;
    /// returns the purged keys, sorted.  The returned slice borrows an
    /// internal scratch buffer: when nothing expired (the common case)
    /// this allocates nothing.
    pub fn purge_expired(&mut self, now: SimTime) -> &[CacheKey] {
        self.purge_older_than(now, self.timeout);
        &self.scratch
    }

    /// Staleness-aware early shedding: remove entries not refreshed
    /// within `horizon` (typically a few background announcement
    /// periods, shorter than the hard timeout).  Returns the purged
    /// keys, sorted, borrowing the same scratch buffer as
    /// [`Self::purge_expired`].
    pub fn purge_stale(&mut self, now: SimTime, horizon: SimDuration) -> &[CacheKey] {
        self.purge_older_than(now, horizon.min(self.timeout));
        &self.scratch
    }

    /// The `last_heard` of the least-recently-refreshed entry — the
    /// basis of the next expiry deadline (`earliest_last_heard +
    /// effective timeout`).  Lazily compacts stale heap slots, so the
    /// answer is exact.
    pub fn earliest_last_heard(&mut self) -> Option<SimTime> {
        self.oldest_entry().map(|(_, at)| at)
    }

    /// The least-recently-refreshed entry and its `last_heard` — the
    /// governor's stale eviction tier.  Lazily compacts stale heap
    /// slots until the top is exact: the global `(last_heard, key)`
    /// minimum.
    pub fn oldest_entry(&mut self) -> Option<(CacheKey, SimTime)> {
        while let Some(&Reverse((pushed, key))) = self.expiry.peek() {
            match self.ids.get(&key).and_then(|&id| self.arena.get(id)) {
                Some(rec) if rec.last_heard == pushed => return Some((key, pushed)),
                Some(rec) => {
                    let at = rec.last_heard;
                    self.expiry.pop();
                    self.expiry.push(Reverse((at, key)));
                }
                None => {
                    self.expiry.pop();
                }
            }
        }
        None
    }

    /// The oldest entry heard exactly once — the governor's
    /// unverified-new eviction tier.  O(log n).
    pub fn oldest_unverified(&self) -> Option<CacheKey> {
        self.unverified.first().map(|&(_, key)| key)
    }

    /// The least-recently-heard session of the lowest-addressed origin
    /// holding more than `quota` entries — the governor's quota
    /// eviction tier.  O(origins + quota); deterministic because the
    /// violating origin is picked by min-scan and the victim by a
    /// total (last_heard, key) order.
    pub fn quota_violator(&self, quota: u32) -> Option<CacheKey> {
        let origin = self
            .origin_keys
            .iter()
            .filter(|(_, ids)| ids.len() as u64 > u64::from(quota))
            .map(|(&origin, _)| origin)
            .min()?;
        let ids = self.origin_keys.get(&origin)?;
        ids.iter()
            .filter_map(|&session_id| {
                let key = CacheKey { origin, session_id };
                self.ids
                    .get(&key)
                    .and_then(|&id| self.arena.get(id))
                    .map(|rec| (rec.last_heard, key))
            })
            .min()
            .map(|(_, key)| key)
    }

    /// Number of cached sessions announced by `origin`.  O(log origins).
    pub fn origin_count(&self, origin: Ipv4Addr) -> usize {
        self.origin_keys.get(&origin).map_or(0, BTreeSet::len)
    }

    /// The current per-bucket digest accumulators.
    pub fn digest(&self) -> [u64; DIGEST_BUCKETS] {
        self.digests
    }

    /// Keys currently hashed into `bucket`, sorted — what a peer
    /// re-announces to close a digest gap.
    ///
    /// Computed by scanning rather than kept as an eager index: the
    /// callers are reconcile requests, rate-limited by the directory's
    /// `min_request_gap`, while an eager per-bucket index would tax
    /// every insert and expiry on the announcement hot path.
    pub fn keys_in_bucket(&self, bucket: DigestBucket) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = self
            .ids
            .keys()
            .filter(|k| Self::bucket_of(k) == bucket)
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The digest contribution of one session description: the bucket
    /// it hashes into and its (group, key, version) hash.  The
    /// directory folds its *own* (uncached) sessions into the scope
    /// digest with this, so two in-sync peers — one originating a
    /// session, the other caching it — digest identically.
    pub fn desc_digest(desc: &SessionDescription) -> (DigestBucket, u64) {
        let key = CacheKey {
            origin: desc.origin.address,
            session_id: desc.origin.session_id,
        };
        (
            Self::bucket_of(&key),
            Self::hash_parts(&key, desc.group, desc.origin.version),
        )
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Look up one entry as a borrowed view.
    pub fn get(&self, origin: Ipv4Addr, session_id: u64) -> Option<EntryRef<'_>> {
        let &id = self.ids.get(&CacheKey { origin, session_id })?;
        let rec = self.arena.get(id)?;
        Some(EntryRef {
            rec,
            strings: &self.strings,
        })
    }

    /// Mint a generation-checked handle for a cached session.  The
    /// handle survives refreshes but goes permanently stale the moment
    /// the entry is evicted, purged or deleted — even if the arena
    /// slot is later recycled for a different session.
    pub fn handle_of(&self, origin: Ipv4Addr, session_id: u64) -> Option<SessionHandle> {
        let &id = self.ids.get(&CacheKey { origin, session_id })?;
        self.arena.handle(id)
    }

    /// Resolve a handle minted by [`Self::handle_of`]: `Some` only
    /// while the same record is still cached (generation check — a
    /// recycled slot never aliases).
    pub fn resolve(&self, handle: SessionHandle) -> Option<EntryRef<'_>> {
        let rec = self.arena.resolve(handle)?;
        Some(EntryRef {
            rec,
            strings: &self.strings,
        })
    }

    /// All entries using the given multicast group — the clash-detection
    /// probe.  O(users of `group`), in `(origin, session_id)` order,
    /// allocation-free: each candidate resolves by dense id straight
    /// into the arena.
    pub fn users_of(&self, group: Ipv4Addr) -> impl Iterator<Item = (CacheKey, EntryRef<'_>)> + '_ {
        self.by_group
            .get(&group)
            .into_iter()
            .flatten()
            .filter_map(move |(&key, &id)| {
                self.arena.get(id).map(|rec| {
                    (
                        key,
                        EntryRef {
                            rec,
                            strings: &self.strings,
                        },
                    )
                })
            })
    }

    /// Whether any cached session currently uses `group`.  O(1).
    pub fn group_in_use(&self, group: Ipv4Addr) -> bool {
        self.by_group.contains_key(&group)
    }

    /// Project the cache onto an allocator view: `(address index, TTL)`
    /// for every cached session whose group lies in `space`, sorted by
    /// `(address, TTL)`.  Walks the sorted `(group, ttl)` multiset, so
    /// the cost is O(result), not O(cache) + sort.  Multiplicity is
    /// preserved (two clashing sessions on one group project twice),
    /// matching the per-entry projection the allocators were built
    /// against.
    pub fn visible_sessions(&self, space: &AddrSpace) -> Vec<VisibleSession> {
        let mut v = Vec::new();
        for (&(group, ttl), &count) in &self.visible {
            if let Some(addr) = space.index_of(group) {
                for _ in 0..count {
                    v.push(VisibleSession::new(addr, ttl));
                }
            }
        }
        // `visible` iterates in (group IP, ttl) order and the space is a
        // contiguous range, so `v` is already (addr, ttl)-sorted.
        v
    }

    /// Iterate all entries (unordered) as borrowed views.
    pub fn iter(&self) -> impl Iterator<Item = (CacheKey, EntryRef<'_>)> {
        self.ids.iter().filter_map(move |(&key, &id)| {
            self.arena.get(id).map(|rec| {
                (
                    key,
                    EntryRef {
                        rec,
                        strings: &self.strings,
                    },
                )
            })
        })
    }

    /// Slots in the expiry heap, dead ones included.
    #[cfg(test)]
    pub(crate) fn expiry_slots(&self) -> usize {
        self.expiry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdp::{Media, Origin};

    fn desc(
        origin_ip: [u8; 4],
        sid: u64,
        version: u64,
        group: [u8; 4],
        ttl: u8,
    ) -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: sid,
                version,
                address: Ipv4Addr::from(origin_ip),
            },
            name: format!("s{sid}"),
            info: None,
            group: Ipv4Addr::from(group),
            ttl,
            start: 0,
            stop: 0,
            media: vec![Media {
                kind: "audio".into(),
                port: 5004,
                proto: "RTP/AVP".into(),
                format: 0,
            }],
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn new_refresh_modify_stale() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        let d1 = desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 5], 63);
        assert_eq!(c.observe_announce(t(0), d1.clone()), CacheUpdate::New);
        assert_eq!(
            c.observe_announce(t(10), d1.clone()),
            CacheUpdate::Refreshed
        );
        let mut d2 = d1.clone();
        d2.origin.version = 2;
        d2.group = Ipv4Addr::new(224, 2, 128, 9);
        assert_eq!(c.observe_announce(t(20), d2), CacheUpdate::Modified);
        // The old version is now stale.
        assert_eq!(c.observe_announce(t(30), d1), CacheUpdate::Stale);
        assert_eq!(c.len(), 1);
        let e = c.get(Ipv4Addr::new(10, 0, 0, 1), 7).unwrap();
        assert_eq!(e.group(), Ipv4Addr::new(224, 2, 128, 9));
        assert_eq!(e.announcements(), 3); // stale one not counted
                                          // The group index tracked the move.
        assert!(!c.group_in_use(Ipv4Addr::new(224, 2, 128, 5)));
        assert!(c.group_in_use(Ipv4Addr::new(224, 2, 128, 9)));
    }

    #[test]
    fn same_version_content_change_counts_as_modified() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        let d1 = desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 5], 63);
        c.observe_announce(t(0), d1.clone());
        let mut d2 = d1;
        d2.ttl = 127;
        assert_eq!(c.observe_announce(t(1), d2), CacheUpdate::Modified);
    }

    #[test]
    fn delete_removes() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 5], 63));
        assert!(c.observe_delete(Ipv4Addr::new(10, 0, 0, 1), 7));
        assert!(!c.observe_delete(Ipv4Addr::new(10, 0, 0, 1), 7));
        assert!(c.is_empty());
        assert!(!c.group_in_use(Ipv4Addr::new(224, 2, 128, 5)));
        assert_eq!(c.earliest_last_heard(), None, "expiry slot compacted");
    }

    #[test]
    fn expiry() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(50), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        let purged = c.purge_expired(t(120));
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].session_id, 1);
        assert_eq!(c.len(), 1);
        // Refreshing resets the clock.
        c.observe_announce(t(140), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        assert!(c.purge_expired(t(240)).is_empty());
        assert_eq!(c.earliest_last_heard(), Some(t(140)));
    }

    #[test]
    fn purge_returns_sorted_keys() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(10));
        // Insert out of key order with distinct refresh times, and with
        // TTLs of every scope interleaved against both orders.
        c.observe_announce(t(2), desc([10, 0, 0, 9], 3, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 2], 63));
        c.observe_announce(t(1), desc([10, 0, 0, 5], 1, 1, [224, 2, 128, 3], 63));
        c.observe_announce(t(3), desc([10, 0, 0, 2], 4, 1, [224, 2, 128, 4], 255));
        c.observe_announce(t(1), desc([10, 0, 0, 8], 5, 1, [224, 2, 128, 5], 15));
        c.observe_announce(t(4), desc([10, 0, 0, 3], 6, 1, [224, 2, 128, 6], 127));
        c.observe_announce(t(0), desc([10, 0, 0, 7], 2, 1, [224, 2, 128, 7], 63));
        let purged: Vec<CacheKey> = c.purge_expired(t(100)).to_vec();
        assert_eq!(purged.len(), 7);
        let mut sorted = purged.clone();
        sorted.sort();
        assert_eq!(purged, sorted);
        assert!(c.is_empty());
    }

    #[test]
    fn purge_stale_sheds_ahead_of_timeout() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(1000), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        // Hard timeout not reached, but entry 1 is past the 20-minute
        // staleness horizon.
        let purged: Vec<CacheKey> = c
            .purge_stale(t(1300), SimDuration::from_secs(1200))
            .to_vec();
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].session_id, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn users_of_group() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 5], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 2], 9, 1, [224, 2, 128, 5], 15));
        c.observe_announce(t(0), desc([10, 0, 0, 3], 3, 1, [224, 2, 128, 6], 63));
        let users: Vec<_> = c.users_of(Ipv4Addr::new(224, 2, 128, 5)).collect();
        assert_eq!(users.len(), 2);
        assert_eq!(users[0].0.origin, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c.users_of(Ipv4Addr::new(224, 9, 9, 9)).count(), 0);
    }

    #[test]
    fn visible_sessions_projection() {
        let space = AddrSpace::sdr_dynamic(); // base 224.2.128.0
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 5], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 2], 2, 1, [224, 2, 129, 0], 127));
        // Outside the space: ignored in the view.
        c.observe_announce(t(0), desc([10, 0, 0, 3], 3, 1, [239, 1, 1, 1], 15));
        let view = c.visible_sessions(&space);
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].addr.0, 5);
        assert_eq!(view[0].ttl, 63);
        assert_eq!(view[1].addr.0, 256);
        assert_eq!(view[1].ttl, 127);
    }

    #[test]
    fn visible_sessions_preserve_multiplicity_and_order() {
        let space = AddrSpace::sdr_dynamic();
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        // Two different origins clash on one group with the same TTL —
        // the projection must still list both (the allocators weigh
        // occupancy per session, not per group).
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 5], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 5], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 3], 3, 1, [224, 2, 128, 4], 15));
        let view = c.visible_sessions(&space);
        assert_eq!(view.len(), 3);
        assert_eq!((view[0].addr.0, view[0].ttl), (4, 15));
        assert_eq!((view[1].addr.0, view[1].ttl), (5, 63));
        assert_eq!((view[2].addr.0, view[2].ttl), (5, 63));
        // Deleting one of the clashing pair leaves the other visible.
        c.observe_delete(Ipv4Addr::new(10, 0, 0, 1), 1);
        assert_eq!(c.visible_sessions(&space).len(), 2);
        assert!(c.group_in_use(Ipv4Addr::new(224, 2, 128, 5)));
    }

    #[test]
    fn distinct_origins_distinct_entries() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        // Same session id from two hosts: two sessions.
        c.observe_announce(t(0), desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(0), desc([10, 0, 0, 2], 7, 1, [224, 2, 128, 2], 63));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn earliest_last_heard_tracks_refreshes() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        assert_eq!(c.earliest_last_heard(), None);
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(5), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        assert_eq!(c.earliest_last_heard(), Some(t(0)));
        // Refreshing the oldest entry moves the horizon to the next one.
        c.observe_announce(t(50), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        assert_eq!(c.earliest_last_heard(), Some(t(5)));
        c.purge_expired(t(200));
        assert_eq!(c.earliest_last_heard(), None);
    }

    #[test]
    fn heap_stays_compact_under_refresh_churn() {
        // Refreshing an entry must not grow the heap: slots are only
        // re-filed when they surface, so the heap stays O(entries).
        let mut c = AnnouncementCache::new(SimDuration::from_secs(1000));
        for k in 0..50u64 {
            c.observe_announce(t(0), desc([10, 0, 0, 1], k, 1, [224, 2, 128, k as u8], 63));
        }
        for round in 1..100u64 {
            for k in 0..50u64 {
                c.observe_announce(
                    t(round),
                    desc([10, 0, 0, 1], k, 1, [224, 2, 128, k as u8], 63),
                );
            }
        }
        assert_eq!(c.len(), 50);
        assert_eq!(c.expiry_slots(), 50, "refresh churn must not grow the heap");
    }

    #[test]
    fn heap_stays_compact_under_admit_and_evict_churn() {
        // A removed entry's slot is dropped lazily when it surfaces —
        // but under older live entries it never does before the purge
        // horizon.  A flood of admit-then-evict must not grow the heap
        // with the traffic.
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        for k in 0..7u64 {
            c.observe_announce(t(0), desc([10, 0, 0, 1], k, 1, [224, 2, 128, 1], 63));
        }
        for k in 100..5_100u64 {
            let d = desc([10, 0, 0, 2], k, 1, [224, 2, 128, 2], 200);
            c.observe_announce(t(1), d);
            assert!(c.observe_delete(Ipv4Addr::new(10, 0, 0, 2), k));
            assert!(c.expiry_slots() <= 2 * c.len() + EXPIRY_SLACK);
        }
        // The rebuilt heap still expires what is due, and only that.
        c.observe_announce(t(2000), desc([10, 0, 0, 1], 0, 1, [224, 2, 128, 1], 63));
        assert_eq!(c.purge_expired(t(3602)).len(), 6);
        assert_eq!((c.len(), c.expiry_slots()), (1, 1));
    }

    #[test]
    fn digest_is_order_independent() {
        // XOR accumulation: two caches holding the same entries digest
        // identically no matter the arrival order (or refresh history).
        let descs: Vec<_> = (0..20u64)
            .map(|k| {
                desc(
                    [10, 0, (k / 8) as u8, (k % 8) as u8 + 1],
                    k,
                    1,
                    [224, 2, 128, k as u8],
                    63,
                )
            })
            .collect();
        let mut forward = AnnouncementCache::new(SimDuration::from_secs(3600));
        for d in &descs {
            forward.observe_announce(t(0), d.clone());
        }
        let mut backward = AnnouncementCache::new(SimDuration::from_secs(3600));
        for d in descs.iter().rev() {
            backward.observe_announce(t(5), d.clone());
            backward.observe_announce(t(6), d.clone()); // refresh: digest-neutral
        }
        assert_eq!(forward.digest(), backward.digest());
    }

    #[test]
    fn digest_tracks_insert_modify_delete() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        let empty = c.digest();
        let d1 = desc([10, 0, 0, 1], 7, 1, [224, 2, 128, 5], 63);
        c.observe_announce(t(0), d1.clone());
        let with_v1 = c.digest();
        assert_ne!(with_v1, empty, "an entry must perturb its bucket");
        // A version bump (e.g. an address move) changes the digest ...
        let mut d2 = d1.clone();
        d2.origin.version = 2;
        d2.group = Ipv4Addr::new(224, 2, 128, 9);
        c.observe_announce(t(1), d2);
        assert_ne!(c.digest(), with_v1);
        // ... while removal restores the empty accumulator exactly.
        assert!(c.observe_delete(Ipv4Addr::new(10, 0, 0, 1), 7));
        assert_eq!(c.digest(), empty);
    }

    #[test]
    fn digest_survives_purge() {
        // Expiry removals must unwind the accumulators like deletes do.
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        let empty = c.digest();
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(50), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        c.purge_expired(t(120));
        let survivor = c.digest();
        assert_ne!(survivor, empty);
        c.purge_expired(t(300));
        assert_eq!(c.digest(), empty);
        assert_eq!(
            (0..DIGEST_BUCKETS)
                .filter_map(DigestBucket::new)
                .map(|b| c.keys_in_bucket(b).len())
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn bucket_index_names_divergent_entries() {
        let mut a = AnnouncementCache::new(SimDuration::from_secs(3600));
        let mut b = AnnouncementCache::new(SimDuration::from_secs(3600));
        let shared = desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63);
        a.observe_announce(t(0), shared.clone());
        b.observe_announce(t(0), shared);
        let only_a = desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63);
        a.observe_announce(t(0), only_a.clone());
        let diff = differing_buckets(&a.digest(), &b.digest());
        assert_eq!(
            diff.len(),
            1,
            "one extra entry differs in exactly one bucket"
        );
        let keys = a.keys_in_bucket(DigestBucket::new(diff[0] as usize).unwrap());
        assert!(keys
            .iter()
            .any(|k| k.origin == only_a.origin.address && k.session_id == 2));
    }

    #[test]
    fn governor_indices_track_origins_and_verification() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(3600));
        for sid in 0..3u64 {
            c.observe_announce(
                t(sid),
                desc([10, 0, 0, 1], sid, 1, [224, 2, 128, sid as u8], 63),
            );
        }
        c.observe_announce(t(9), desc([10, 0, 0, 2], 0, 1, [224, 2, 129, 0], 63));
        assert_eq!(c.origin_count(Ipv4Addr::new(10, 0, 0, 1)), 3);
        assert_eq!(c.origin_count(Ipv4Addr::new(10, 0, 0, 2)), 1);
        assert_eq!(c.origin_count(Ipv4Addr::new(10, 0, 0, 9)), 0);
        // All entries heard once: the oldest unverified is the first in.
        assert_eq!(
            c.oldest_unverified(),
            Some(CacheKey {
                origin: Ipv4Addr::new(10, 0, 0, 1),
                session_id: 0
            })
        );
        // A second announcement verifies the entry out of the tier.
        c.observe_announce(t(10), desc([10, 0, 0, 1], 0, 1, [224, 2, 128, 0], 63));
        assert_eq!(
            c.oldest_unverified(),
            Some(CacheKey {
                origin: Ipv4Addr::new(10, 0, 0, 1),
                session_id: 1
            })
        );
        // Quota tier: origin .1 holds 3 > 2; its stalest session (1,
        // last heard at t(1)) is the deterministic victim.
        assert_eq!(
            c.quota_violator(2),
            Some(CacheKey {
                origin: Ipv4Addr::new(10, 0, 0, 1),
                session_id: 1
            })
        );
        assert_eq!(c.quota_violator(3), None);
        // Eviction unwinds every index and digest: the cache is
        // indistinguishable from one that never admitted the victim.
        let victim = c.quota_violator(2).unwrap();
        let victim_group = Ipv4Addr::new(224, 2, 128, 1);
        let handle = c.handle_of(victim.origin, victim.session_id).unwrap();
        assert!(c.group_in_use(victim_group));
        assert!(c.evict(victim));
        assert!(!c.evict(victim), "second eviction finds nothing");
        assert_eq!(c.len(), 3);
        assert!(c.get(victim.origin, victim.session_id).is_none());
        assert!(c.resolve(handle).is_none(), "handle outlived its record");
        assert!(!c.group_in_use(victim_group));
        assert_eq!(c.users_of(victim_group).count(), 0);
        assert_eq!(c.origin_count(Ipv4Addr::new(10, 0, 0, 1)), 2);
        assert_eq!(c.quota_violator(2), None);
        assert_eq!(
            c.oldest_unverified(),
            Some(CacheKey {
                origin: Ipv4Addr::new(10, 0, 0, 1),
                session_id: 2
            }),
            "the evicted (unverified) victim left the unverified tier"
        );
        let mut never = AnnouncementCache::new(SimDuration::from_secs(3600));
        never.observe_announce(t(0), desc([10, 0, 0, 1], 0, 1, [224, 2, 128, 0], 63));
        never.observe_announce(t(2), desc([10, 0, 0, 1], 2, 1, [224, 2, 128, 2], 63));
        never.observe_announce(t(9), desc([10, 0, 0, 2], 0, 1, [224, 2, 129, 0], 63));
        assert_eq!(c.digest(), never.digest());
    }

    #[test]
    fn oldest_entry_matches_earliest_last_heard() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        assert_eq!(c.oldest_entry(), None);
        c.observe_announce(t(3), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        c.observe_announce(t(1), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        let (key, at) = c.oldest_entry().unwrap();
        assert_eq!(at, t(1));
        assert_eq!(key.session_id, 2);
        assert_eq!(c.earliest_last_heard(), Some(t(1)));
        // One entry per TTL scope, `last_heard` interleaved against TTL
        // order: the answer is the global `(last_heard, key)` minimum
        // whatever the scope, and tracks refreshes of the minimum.
        let mixed = [(4, 15, 9), (5, 63, 0), (6, 127, 7), (7, 255, 0)];
        for (sid, ttl, at) in mixed {
            c.observe_announce(t(at), desc([10, 0, 0, 3], sid, 1, [224, 2, 129, ttl], ttl));
        }
        let oldest = |c: &mut AnnouncementCache| c.oldest_entry().map(|(k, at)| (k.session_id, at));
        assert_eq!(oldest(&mut c), Some((5, t(0))), "tie at t(0) broken by key");
        c.observe_announce(t(8), desc([10, 0, 0, 3], 5, 1, [224, 2, 129, 63], 63));
        assert_eq!(oldest(&mut c), Some((7, t(0))));
        assert!(c.evict(CacheKey {
            origin: Ipv4Addr::new(10, 0, 0, 3),
            session_id: 7
        }));
        assert_eq!(oldest(&mut c), Some((2, t(1))));
    }

    #[test]
    fn ttl_move_keeps_digest_and_expiry_exact() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        let d1 = desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 15);
        c.observe_announce(t(0), d1.clone());
        // TTL moves from site to world scope with a version bump: the
        // digest tracks the new (group, version) and nothing else.
        let mut d2 = d1.clone();
        d2.origin.version = 2;
        d2.ttl = 255;
        c.observe_announce(t(10), d2.clone());
        let mut fresh = AnnouncementCache::new(SimDuration::from_secs(100));
        fresh.observe_announce(t(10), d2);
        assert_eq!(c.digest(), fresh.digest());
        // Expiry fires from the record's true refresh time.
        assert_eq!(c.earliest_last_heard(), Some(t(10)));
        assert!(c.purge_expired(t(105)).is_empty());
        let purged: Vec<CacheKey> = c.purge_expired(t(111)).to_vec();
        assert_eq!(purged.len(), 1);
        assert!(c.is_empty());
        assert_eq!(c.digest(), [0; DIGEST_BUCKETS]);
    }

    #[test]
    fn stale_handle_never_resolves_after_slot_reuse() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        c.observe_announce(t(0), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        let h = c.handle_of(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        assert_eq!(c.resolve(h).unwrap().group(), Ipv4Addr::new(224, 2, 128, 1));
        // A refresh keeps the handle live ...
        c.observe_announce(t(5), desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63));
        assert!(c.resolve(h).is_some());
        // ... eviction kills it, and a new session recycling the slot
        // must not resurrect it.
        c.observe_delete(Ipv4Addr::new(10, 0, 0, 1), 1);
        assert!(c.resolve(h).is_none());
        c.observe_announce(t(6), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        assert!(
            c.resolve(h).is_none(),
            "stale handle aliased a recycled slot"
        );
        let h2 = c.handle_of(Ipv4Addr::new(10, 0, 0, 2), 2).unwrap();
        assert_eq!(c.resolve(h2).unwrap().key().session_id, 2);
    }

    #[test]
    fn journal_records_every_row_change_and_nothing_else() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        let key = |ip: u8, sid: u64| CacheKey {
            origin: Ipv4Addr::new(10, 0, 0, ip),
            session_id: sid,
        };
        let since =
            |c: &AnnouncementCache, seq| c.changes_since(seq).map(Iterator::collect::<Vec<_>>);
        assert_eq!(c.change_seq(), 0);
        assert_eq!(
            since(&c, 0),
            Some(vec![]),
            "nothing changed, not 'cannot replay'"
        );
        let d1 = desc([10, 0, 0, 1], 1, 2, [224, 2, 128, 1], 63);
        c.observe_announce(t(0), d1.clone()); // new
        c.observe_announce(t(1), d1.clone()); // refresh moves last_heard
        let mut older = d1.clone();
        older.origin.version = 1;
        assert_eq!(c.observe_announce(t(2), older), CacheUpdate::Stale);
        assert_eq!(c.change_seq(), 2, "a stale announcement changes no row");
        c.observe_announce(t(3), desc([10, 0, 0, 2], 2, 1, [224, 2, 128, 2], 63));
        let cursor = c.change_seq();
        assert!(c.observe_delete(Ipv4Addr::new(10, 0, 0, 2), 2));
        assert!(!c.observe_delete(Ipv4Addr::new(10, 0, 0, 2), 2));
        c.purge_expired(t(200)); // expires session 1
        assert_eq!(since(&c, cursor), Some(vec![key(2, 2), key(1, 1)]));
        assert_eq!(
            since(&c, 0),
            Some(vec![key(1, 1), key(1, 1), key(2, 2), key(2, 2), key(1, 1)])
        );
        assert_eq!(since(&c, c.change_seq()), Some(vec![]));
        assert!(
            since(&c, c.change_seq() + 1).is_none(),
            "a cursor from the future"
        );
    }

    #[test]
    fn journal_is_bounded_and_a_lost_cursor_cannot_replay() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        let d = desc([10, 0, 0, 1], 1, 1, [224, 2, 128, 1], 63);
        c.observe_announce(t(0), d.clone());
        let cursor = c.change_seq();
        for _ in 0..JOURNAL_FLOOR {
            c.observe_announce(t(1), d.clone());
        }
        assert_eq!(
            c.changes_since(cursor).map(Iterator::count),
            Some(JOURNAL_FLOOR)
        );
        assert!(c.changes_since(cursor - 1).is_none(), "fell off the tail");
        c.observe_announce(t(2), d.clone());
        assert!(c.changes_since(cursor).is_none());
        assert_eq!(c.journal.len(), JOURNAL_FLOOR);
        // A table larger than the floor earns a journal as long as itself.
        let n = JOURNAL_FLOOR as u64 + 500;
        for sid in 0..n {
            let ip = [10, 1, (sid >> 8) as u8, sid as u8];
            c.observe_announce(t(3), desc(ip, sid, 1, [224, 2, 128, 1], 63));
        }
        assert_eq!(c.journal.len(), c.len());
        // The survivor of a restart starts a fresh ring past the old
        // cursor: nothing from before replays, and the loss shows.
        let before = c.change_seq();
        let fresh = c.restarted();
        assert!(fresh.is_empty());
        assert!(fresh.change_seq() > before);
        assert!(fresh.changes_since(before).is_none());
        assert!(fresh.changes_since(0).is_none());
        assert_eq!(
            fresh.changes_since(fresh.change_seq()).map(Iterator::count),
            Some(0)
        );
    }

    #[test]
    fn entry_ref_materializes_the_original_description() {
        let mut c = AnnouncementCache::new(SimDuration::from_secs(100));
        let mut d = desc([10, 0, 0, 1], 1, 3, [224, 2, 128, 1], 63);
        d.info = Some("lecture".into());
        c.observe_announce(t(0), d.clone());
        let e = c.get(Ipv4Addr::new(10, 0, 0, 1), 1).unwrap();
        assert_eq!(e.desc(), d);
        assert_eq!(e.name(), "s1");
        assert_eq!(e.version(), 3);
        assert_eq!(e.announcements(), 1);
    }
}
