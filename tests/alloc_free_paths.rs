//! Allocation gates for the paths that must stay off the heap at scale:
//! a steady-state refresh — through the cache's zero-copy admit path,
//! through the borrowed decoder, and through the whole `on_packet`
//! receive path — the idle timer paths, the reader query mix on a
//! published snapshot, and — as a count that a noisy host cannot blur —
//! a snapshot publish whose cost must follow the rows that changed, not
//! the rows there are.
//!
//! One counting `#[global_allocator]` shim tallies allocation events
//! per thread, so the gates see only the calls they bracket — not the
//! other test running beside them, nor the harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

use sdalloc_core::{AddrSpace, InformedRandomAllocator};
use sdalloc_runtime::{SnapshotCadence, SnapshotPublisher};
use sdalloc_sap::cache::AnnouncementCache;
use sdalloc_sap::directory::{DirectoryConfig, SessionDirectory, TimerKind};
use sdalloc_sap::sdp::{DescRef, Media, Origin, SessionDescription};
use sdalloc_sap::wire::{msg_id_hash, SapFrame, SapPacket};
use sdalloc_sim::{SimDuration, SimRng, SimTime};

struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    // `try_with`: a thread tearing down its TLS still allocates.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System`; the per-thread counter has no
// effect on allocation behaviour.  The workspace denies `unsafe_code`,
// but a counting allocator cannot be written without implementing the
// unsafe `GlobalAlloc` trait — the exemption is scoped to this
// test-only shim and adds no unsafe of its own.
#[allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; see the SAFETY note above"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events on this thread so far.
fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

const SESSIONS: usize = 10_000;

fn space() -> AddrSpace {
    AddrSpace::new(Ipv4Addr::new(224, 2, 0, 0), SESSIONS as u32)
}

/// Session `i`'s description: distinct origin per session, group drawn
/// from the space round-robin.
fn session(i: usize, space: &AddrSpace) -> SessionDescription {
    let group = u32::from(space.base()) + (i as u32 % space.size());
    SessionDescription {
        origin: Origin {
            username: "-".into(),
            session_id: i as u64,
            version: 1,
            address: Ipv4Addr::from(0x0a00_0000 + i as u32),
        },
        name: format!("s{i}"),
        info: None,
        group: Ipv4Addr::from(group),
        ttl: 63,
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

#[test]
fn shim_counts_this_threads_allocations() {
    // The gates below are vacuous if the shim is not the allocator.
    let before = alloc_events();
    black_box(vec![0u8; 64]);
    assert!(alloc_events() > before);
}

#[test]
fn steady_state_refresh_does_not_allocate() {
    // A refresh of an unchanged session must not allocate: the record
    // already owns its interned strings and the expiry slot is re-filed
    // lazily.
    let space = space();
    let mut cache = AnnouncementCache::new(SimDuration::from_secs(3600));
    for i in 0..SESSIONS {
        cache.observe_announce(
            SimTime::from_nanos(i as u64 * 10_000_000),
            session(i, &space),
        );
    }
    // Owned fixtures and their borrowed views are built up front; the
    // counted window then sees only the cache refresh itself.
    let mut rng = SimRng::new(29);
    let descs: Vec<SessionDescription> = (0..REFRESHES)
        .map(|_| session(rng.index(SESSIONS), &space))
        .collect();
    let views: Vec<DescRef<'_>> = descs.iter().map(SessionDescription::as_ref).collect();
    let now = SimTime::from_secs(900);
    let before = alloc_events();
    for v in &views {
        black_box(cache.observe_announce_ref(now, v));
    }
    let events = alloc_events() - before;
    assert!(
        events <= SLACK,
        "{events} allocation events across {REFRESHES} steady-state refreshes \
         (slack {SLACK}) — the zero-copy refresh path is allocating"
    );
}

/// Steady-state refreshes counted by the receive-path gates below.
const REFRESHES: usize = 4096;

/// Amortised regrowth of a long-lived buffer, allocator bookkeeping:
/// far below the one-per-packet a new allocation on the path would cost.
const SLACK: u64 = 64;

/// A directory caching [`SESSIONS`] remote sessions.
fn loaded_directory() -> SessionDirectory {
    let space = space();
    let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
    cfg.space = space;
    cfg.staleness_factor = Some(3);
    let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
    for i in 0..SESSIONS {
        dir.cache_observe_for_test(SimTime::from_secs(1), session(i, &space));
    }
    dir
}

/// Encoded refresh announcements for a random sample of the sessions
/// [`loaded_directory`] holds.
fn refresh_datagrams() -> Vec<Vec<u8>> {
    let space = space();
    let mut rng = SimRng::new(31);
    (0..REFRESHES)
        .map(|_| {
            let desc = session(rng.index(SESSIONS), &space);
            let payload = desc.format();
            SapPacket::announce(desc.origin.address, msg_id_hash(&payload), payload)
                .encode()
                .to_vec()
        })
        .collect()
}

#[test]
fn borrowed_decode_allocates_only_the_media_list() {
    // `SapFrame::decode` borrows the datagram and `DescRef::parse`
    // borrows the frame: the only allocation per packet is the list of
    // `m=` refs, one event for the fixture's single stream.
    let datagrams = refresh_datagrams();
    let before = alloc_events();
    for d in &datagrams {
        black_box(SapFrame::decode(d).expect("well-formed datagram"));
    }
    assert_eq!(alloc_events() - before, 0, "SapFrame::decode allocated");
    let before = alloc_events();
    for d in &datagrams {
        let frame = SapFrame::decode(d).expect("well-formed datagram");
        black_box(DescRef::parse(frame.payload).expect("well-formed payload"));
    }
    assert_eq!(
        alloc_events() - before,
        REFRESHES as u64,
        "DescRef::parse must allocate its media list and nothing else"
    );
}

#[test]
fn refresh_through_on_packet_allocates_a_fixed_handful() {
    // What one refresh costs end to end today: the owned payload in
    // `SapPacket::decode`, the media list in `DescRef::parse`, and the
    // one-element event list `on_packet` returns.  The cache refresh in
    // the middle adds nothing.
    const PER_PACKET: u64 = 3;
    let mut dir = loaded_directory();
    let datagrams = refresh_datagrams();
    let mut rng = SimRng::new(37);
    let mut refresh_all = |now| {
        for d in &datagrams {
            let pkt = SapPacket::decode(d).expect("well-formed datagram");
            black_box(dir.on_packet(now, &pkt, &mut rng));
        }
    };
    // Warm-up: grows the change journal to its bound.
    for round in 0..3 {
        refresh_all(SimTime::from_secs(2 + round));
    }
    let before = alloc_events();
    refresh_all(SimTime::from_secs(5));
    let events = alloc_events() - before;
    assert!(
        events <= PER_PACKET * REFRESHES as u64 + SLACK,
        "{events} allocation events across {REFRESHES} refreshes through on_packet \
         ({PER_PACKET} per packet expected, slack {SLACK})"
    );
}

#[test]
fn idle_timer_paths_do_not_allocate() {
    // A wake with nothing to do — the deadline query, a poll before any
    // deadline, an early cache-expiry fire (hard and staleness purges
    // both run and find nothing) — must cost no allocation.
    const PASSES: usize = 1024;
    let mut dir = loaded_directory();
    let now = SimTime::from_secs(2);
    let pass = |dir: &mut SessionDirectory| {
        let deadline = dir
            .next_deadline()
            .expect("the cache-expiry timer is armed");
        assert!(deadline > now);
        assert!(dir.poll(now).is_empty());
        assert!(dir.on_timer(now, TimerKind::CacheExpiry).is_empty());
    };
    pass(&mut dir); // warm-up: sizes the timer heap and the drain scratch
    let before = alloc_events();
    for _ in 0..PASSES {
        pass(&mut dir);
    }
    let events = alloc_events() - before;
    assert_eq!(dir.cached_sessions(), SESSIONS, "nothing was due");
    assert_eq!(
        events, 0,
        "{events} allocation events across {PASSES} idle wakes"
    );
}

/// Publish a `rows`-row directory twice, refresh 500 of its sessions,
/// publish again: allocation events and publisher counters of that
/// third publish.
fn publish_after_500_refreshes(rows: usize) -> (u64, sdalloc_runtime::SnapshotStats) {
    const REFRESHED: usize = 500;
    let space = AddrSpace::new(Ipv4Addr::new(224, 2, 0, 0), rows as u32);
    let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
    cfg.space = space;
    let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
    for i in 0..rows {
        dir.cache_observe_for_test(SimTime::from_secs(1), session(i, &space));
    }
    let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
    publisher.publish(SimTime::from_secs(2), &dir);
    publisher.publish(SimTime::from_secs(3), &dir);
    assert_eq!(publisher.stats().replayed, 0, "no spare before the third");
    let stride = rows / REFRESHED;
    for i in 0..REFRESHED {
        dir.cache_observe_for_test(SimTime::from_secs(4), session(i * stride, &space));
    }
    let before = alloc_events();
    publisher.publish(SimTime::from_secs(5), &dir);
    let events = alloc_events() - before;
    let snap = publisher.handle().load_slow();
    assert_eq!(snap.len(), rows);
    assert_eq!(snap.corrupt_rows(), 0);
    let refreshed = snap
        .rows()
        .iter()
        .filter(|r| r.last_heard == SimTime::from_secs(4))
        .count();
    assert_eq!(refreshed, REFRESHED, "the replayed snapshot is current");
    (events, publisher.stats())
}

#[test]
fn replay_publish_costs_what_changed_not_what_is_cached() {
    // Wall time on a shared host cannot separate O(changes) from
    // O(rows) reliably; these two counts can.  Thirty times the rows,
    // the same 500 changes: the same rows written, the same handful of
    // allocations (the key batch, the `Arc`).
    const SLACK: u64 = 16;
    let (small_events, small) = publish_after_500_refreshes(1_000);
    let (large_events, large) = publish_after_500_refreshes(30_000);
    for stats in [small, large] {
        assert_eq!(stats.replayed, 1, "the third publish must replay");
        assert_eq!(stats.rows_rewritten, 500);
    }
    assert_eq!((small.last_rows, large.last_rows), (1_000, 30_000));
    assert_eq!(
        small_events, large_events,
        "allocations per replayed publish must not depend on table size"
    );
    assert!(
        small_events <= SLACK,
        "{small_events} allocation events in one replayed publish (slack {SLACK})"
    );
}

#[test]
fn reader_queries_on_a_loaded_snapshot_do_not_allocate() {
    const PASSES: usize = 2048;
    let space = space();
    let dir = loaded_directory();
    let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
    publisher.publish(SimTime::from_secs(1), &dir);
    let mut reader = publisher.handle().reader();
    let mut rng = SimRng::new(47);

    // The query mix a deployed directory serves: a group-in-use probe
    // and a keyed lookup every pass, a keyword scan every 64th.
    let mut pass = |iter: usize| {
        let snap = reader.load();
        let group =
            Ipv4Addr::from(u32::from(space.base()) + rng.below(u64::from(space.size())) as u32);
        let mut hits = usize::from(snap.group_in_use(group));
        let probe = rng.below(2 * SESSIONS as u64);
        hits += usize::from(
            snap.get(Ipv4Addr::from(0x0a00_0000 + probe as u32), probe)
                .is_some(),
        );
        if iter.is_multiple_of(64) {
            hits += snap.matching("s1").count();
        }
        hits
    };
    // Warm-up: first-touch costs stay out of the count.
    let mut hits = pass(1);
    let before = alloc_events();
    for iter in 0..PASSES {
        hits += pass(iter);
    }
    let events = alloc_events() - before;
    assert!(hits > PASSES, "queries must actually hit: {hits}");
    assert_eq!(
        events, 0,
        "{events} allocation events across {PASSES} reader passes — \
         snapshot queries must be allocation-free"
    );
}
