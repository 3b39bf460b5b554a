//! Property-based tests over the workspace's core data structures and
//! invariants (proptest).

use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

use sdalloc::core::{
    AdaptiveIpr, Addr, AddrSpace, Allocator, InformedRandomAllocator, PartitionMap, StaticIpr,
    View, VisibleSession,
};
use sdalloc::sap::sdp::{Media, Origin, SessionDescription};
use sdalloc::sap::wire::{MessageType, SapPacket};
use sdalloc::sim::{SimDuration, SimRng, SimTime};
use sdalloc::topology::{NodeId, NodeSet};

// ---------------------------------------------------------------------
// SimRng
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }
}

// ---------------------------------------------------------------------
// SimTime / SimDuration arithmetic
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
    }

    #[test]
    fn duration_ordering_consistent(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da < db, a < b);
    }
}

// ---------------------------------------------------------------------
// NodeSet vs a HashSet model
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn nodeset_matches_hashset_model(ops in proptest::collection::vec((0u32..256, any::<bool>()), 0..200)) {
        let mut set = NodeSet::with_capacity(256);
        let mut model: HashSet<u32> = HashSet::new();
        for (id, insert) in ops {
            if insert {
                set.insert(NodeId(id));
                model.insert(id);
            } else {
                set.remove(NodeId(id));
                model.remove(&id);
            }
        }
        prop_assert_eq!(set.len(), model.len());
        for id in 0..256u32 {
            prop_assert_eq!(set.contains(NodeId(id)), model.contains(&id));
        }
        let iterated: Vec<u32> = set.iter().map(|n| n.0).collect();
        let mut expected: Vec<u32> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(iterated, expected);
    }

    #[test]
    fn nodeset_intersection_model(
        xs in proptest::collection::hash_set(0u32..128, 0..64),
        ys in proptest::collection::hash_set(0u32..128, 0..64),
    ) {
        let mut a = NodeSet::with_capacity(128);
        let mut b = NodeSet::with_capacity(128);
        for &x in &xs { a.insert(NodeId(x)); }
        for &y in &ys { b.insert(NodeId(y)); }
        prop_assert_eq!(a.intersects(&b), xs.intersection(&ys).next().is_some());
        let mut i = a.clone();
        i.intersect_with(&b);
        let expected: HashSet<u32> = xs.intersection(&ys).copied().collect();
        prop_assert_eq!(i.len(), expected.len());
    }
}

// ---------------------------------------------------------------------
// SDP and SAP wire roundtrips
// ---------------------------------------------------------------------

fn arb_sdp() -> impl Strategy<Value = SessionDescription> {
    (
        "[a-zA-Z0-9 ._-]{1,32}",
        any::<u64>(),
        1u64..1_000_000,
        any::<u32>(),
        0u32..(1 << 28),
        any::<u8>(),
        proptest::option::of("[a-zA-Z0-9 ,.]{1,64}"),
        proptest::collection::vec(
            ("(audio|video|whiteboard|text)", any::<u16>(), 0u32..128),
            0..4,
        ),
    )
        .prop_map(
            |(name, session_id, version, origin_ip, group_off, ttl, info, media)| {
                SessionDescription {
                    origin: Origin {
                        username: "-".into(),
                        session_id,
                        version,
                        address: Ipv4Addr::from(origin_ip),
                    },
                    name,
                    info,
                    group: Ipv4Addr::from(0xE000_0000u32 + group_off),
                    ttl,
                    start: 0,
                    stop: 0,
                    media: media
                        .into_iter()
                        .map(|(kind, port, format)| Media {
                            kind,
                            port,
                            proto: "RTP/AVP".into(),
                            format,
                        })
                        .collect(),
                }
            },
        )
}

proptest! {
    #[test]
    fn sdp_roundtrip(desc in arb_sdp()) {
        let text = desc.format();
        let parsed = SessionDescription::parse(&text).unwrap();
        prop_assert_eq!(parsed, desc);
    }

    #[test]
    fn sap_wire_roundtrip(
        desc in arb_sdp(),
        hash in any::<u16>(),
        delete in any::<bool>(),
        auth in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let payload = desc.format();
        let mut pkt = if delete {
            SapPacket::delete(desc.origin.address, hash, payload)
        } else {
            SapPacket::announce(desc.origin.address, hash, payload)
        };
        pkt.auth = auth.clone();
        let decoded = SapPacket::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(decoded.msg_id_hash, hash);
        prop_assert_eq!(
            decoded.message_type,
            if delete { MessageType::Delete } else { MessageType::Announce }
        );
        prop_assert_eq!(decoded.source, pkt.source);
        prop_assert_eq!(&decoded.auth[..auth.len()], &auth[..]);
        prop_assert_eq!(decoded.payload, pkt.payload);
    }

    #[test]
    fn sap_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = SapPacket::decode(&bytes);
    }

    #[test]
    fn sdp_parse_never_panics(text in ".{0,256}") {
        let _ = SessionDescription::parse(&text);
    }
}

// ---------------------------------------------------------------------
// Allocator invariants
// ---------------------------------------------------------------------

fn arb_view() -> impl Strategy<Value = Vec<VisibleSession>> {
    proptest::collection::vec((0u32..500, any::<u8>()), 0..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, t)| VisibleSession::new(Addr(a), t))
            .collect()
    })
}

proptest! {
    #[test]
    fn informed_random_never_returns_visible(sessions in arb_view(), ttl in any::<u8>(), seed in any::<u64>()) {
        let space = AddrSpace::abstract_space(500);
        let view = View::new(&sessions);
        let mut rng = SimRng::new(seed);
        if let Some(addr) = InformedRandomAllocator.allocate(&space, ttl, &view, &mut rng) {
            prop_assert!(!view.in_use(addr), "returned in-use {addr}");
            prop_assert!(space.contains(addr));
        } else {
            // Refusal only when the space is genuinely full.
            prop_assert_eq!(view.occupied().len(), 500);
        }
    }

    #[test]
    fn static_ipr_respects_band(sessions in arb_view(), ttl in any::<u8>(), seed in any::<u64>()) {
        let space = AddrSpace::abstract_space(500);
        let alg = StaticIpr::seven_band();
        let view = View::new(&sessions);
        let mut rng = SimRng::new(seed);
        if let Some(addr) = alg.allocate(&space, ttl, &view, &mut rng) {
            let band = alg.band_of(ttl);
            let (lo, hi) = alg.band_range(band, 500);
            prop_assert!((lo..hi).contains(&addr.0), "addr {addr} outside band [{lo},{hi})");
            prop_assert!(!view.in_use(addr));
        }
    }

    #[test]
    fn adaptive_never_returns_visible(sessions in arb_view(), ttl in any::<u8>(), seed in any::<u64>()) {
        let space = AddrSpace::abstract_space(500);
        let alg = AdaptiveIpr::aipr1();
        let view = View::new(&sessions);
        let mut rng = SimRng::new(seed);
        if let Some(addr) = alg.allocate(&space, ttl, &view, &mut rng) {
            prop_assert!(!view.in_use(addr));
            prop_assert!(space.contains(addr));
        }
    }

    #[test]
    fn adaptive_geometry_depends_only_on_high_ttl_sessions(
        high in proptest::collection::vec((0u32..500, 100u8..=255), 0..24),
        low_a in proptest::collection::vec((0u32..500, 0u8..100), 0..24),
        low_b in proptest::collection::vec((0u32..500, 0u8..100), 0..24),
    ) {
        // Two sites share the high-TTL view but see different low-TTL
        // local sessions; their geometry for a TTL-100 request must
        // agree (the deterministic rule).
        let space = AddrSpace::abstract_space(500);
        let alg = AdaptiveIpr::aipr3();
        let mk = |extra: &[(u32, u8)]| -> Vec<VisibleSession> {
            high.iter()
                .chain(extra.iter())
                .map(|&(a, t)| VisibleSession::new(Addr(a), t))
                .collect()
        };
        let va = mk(&low_a);
        let vb = mk(&low_b);
        let ra = alg.band_range(&space, 100, &View::new(&va));
        let rb = alg.band_range(&space, 100, &View::new(&vb));
        prop_assert_eq!(ra, rb);
    }
}

// ---------------------------------------------------------------------
// Partition map
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn partition_map_tiles_and_is_monotone(margin in 1u32..8) {
        let map = PartitionMap::new(margin);
        let mut prev_hi: i32 = -1;
        for p in map.partitions() {
            prop_assert_eq!(p.lo as i32, prev_hi + 1);
            prop_assert!(p.hi >= p.lo);
            prev_hi = p.hi as i32;
        }
        prop_assert_eq!(prev_hi, 255);
        for ttl in 0..=255u8 {
            prop_assert!(map.partition(ttl).contains(ttl));
        }
    }

    #[test]
    fn partition_map_every_ttl_mapped(margin in 1u32..8, ttl in any::<u8>()) {
        // Every TTL 0..=255 resolves to an in-range partition index and
        // the lookup table agrees with the range list.
        let map = PartitionMap::new(margin);
        let idx = map.partition_of(ttl);
        prop_assert!(idx < map.len());
        let p = map.partitions()[idx];
        prop_assert_eq!(p, map.partition(ttl));
        prop_assert!(p.contains(ttl));
    }

    #[test]
    fn partition_map_disjoint_and_contiguous(margin in 1u32..8) {
        // Partitions are pairwise disjoint and leave no TTL uncovered:
        // exactly 256 TTL values across all partitions, each claimed once.
        let map = PartitionMap::new(margin);
        let mut claimed = [0u32; 256];
        for p in map.partitions() {
            for t in p.lo..=p.hi {
                claimed[t as usize] += 1;
            }
        }
        for (t, &n) in claimed.iter().enumerate() {
            prop_assert_eq!(n, 1, "TTL {} claimed {} times", t, n);
        }
    }

    #[test]
    fn partition_map_paper_default_is_55(_dummy in any::<bool>()) {
        // The paper's margin-2 configuration yields exactly 55 partitions.
        let map = PartitionMap::paper_default();
        prop_assert_eq!(map.len(), 55);
        prop_assert_eq!(map.margin(), 2);
    }
}

// ---------------------------------------------------------------------
// Deterministic Adaptive IPRMA geometry invariants
// ---------------------------------------------------------------------

proptest! {
    /// Bands for different TTLs never overlap under a shared view: a
    /// session in a band above the target always has TTL above the whole
    /// target partition, so the upper stack is identical for every
    /// requester — the structural guarantee behind the paper's
    /// "no clash can occur due to the failings above".
    #[test]
    fn adaptive_bands_disjoint_across_ttls(
        sessions in proptest::collection::vec((0u32..2_000, any::<u8>()), 0..48),
        ttl_a in any::<u8>(),
        ttl_b in any::<u8>(),
    ) {
        let space = AddrSpace::abstract_space(2_000);
        let alg = AdaptiveIpr::aipr1();
        let data: Vec<VisibleSession> = sessions
            .iter()
            .map(|&(a, t)| VisibleSession::new(Addr(a), t))
            .collect();
        let view = View::new(&data);
        let ra = alg.band_range(&space, ttl_a, &view);
        let rb = alg.band_range(&space, ttl_b, &view);
        if let (Some((lo_a, hi_a)), Some((lo_b, hi_b))) = (ra, rb) {
            let band_a = alg.band_map().band_of(ttl_a);
            let band_b = alg.band_map().band_of(ttl_b);
            if band_a == band_b {
                // Same partition: the band top is target-independent;
                // widths may differ (the ≥x filter can exclude sessions
                // inside the partition), giving nested ranges.
                prop_assert_eq!(hi_a, hi_b);
            } else {
                let disjoint = hi_a <= lo_b || hi_b <= lo_a;
                prop_assert!(
                    disjoint,
                    "bands overlap: ttl {} -> [{},{}), ttl {} -> [{},{})",
                    ttl_a, lo_a, hi_a, ttl_b, lo_b, hi_b
                );
                // Higher TTL band sits higher in the space.
                if band_a < band_b {
                    prop_assert!(hi_a <= lo_b);
                } else {
                    prop_assert!(hi_b <= lo_a);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Routing invariants on random topologies
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn source_tree_invariants(n in 10usize..120, seed in any::<u64>()) {
        use sdalloc::topology::doar::{generate, DoarParams};
        use sdalloc::topology::routing::{SourceTree, TTL_UNREACHABLE};

        let topo = generate(&DoarParams::new(n, seed));
        let tree = SourceTree::compute(&topo, NodeId(0));
        for i in 0..n {
            let v = NodeId(i as u32);
            if tree.metric[i] == u32::MAX {
                prop_assert_eq!(tree.required_ttl[i], TTL_UNREACHABLE);
                continue;
            }
            // Reaching v needs at least hops+1 TTL (per-hop decrement),
            // and reachability is monotone in TTL.
            if i != 0 {
                prop_assert!(tree.required_ttl[i] as u32 > tree.hops[i]);
                let (parent, _) = tree.parent[i].expect("reachable node has parent");
                // Parent metrics/hops/delays are monotone along the tree.
                prop_assert!(tree.metric[parent.index()] <= tree.metric[i]);
                prop_assert_eq!(tree.hops[parent.index()] + 1, tree.hops[i]);
                prop_assert!(tree.delay[parent.index()] <= tree.delay[i]);
                prop_assert!(
                    tree.required_ttl[parent.index()] <= tree.required_ttl[i]
                );
            }
            if tree.required_ttl[i] != TTL_UNREACHABLE && tree.required_ttl[i] > 0 {
                let req = tree.required_ttl[i];
                if req <= 255 {
                    prop_assert!(tree.reaches(v, req as u8));
                }
                if req >= 2 && req - 1 <= 255 {
                    prop_assert!(!tree.reaches(v, (req - 1) as u8));
                }
            }
        }
    }

    #[test]
    fn shared_tree_distance_is_a_metric_on_the_tree(n in 10usize..80, seed in any::<u64>()) {
        use sdalloc::topology::doar::{generate, DoarParams};
        use sdalloc::topology::routing::SharedTree;

        let topo = generate(&DoarParams::new(n, seed));
        let st = SharedTree::compute(&topo, NodeId(0));
        let pick = |k: u64| NodeId((k % n as u64) as u32);
        for k in 0..8u64 {
            let a = pick(seed.wrapping_add(k));
            let b = pick(seed.wrapping_add(k * 7 + 1));
            let c = pick(seed.wrapping_add(k * 13 + 2));
            let dab = st.path_delay(a, b).unwrap();
            let dba = st.path_delay(b, a).unwrap();
            prop_assert_eq!(dab, dba, "symmetry");
            let daa = st.path_delay(a, a).unwrap();
            prop_assert!(daa.is_zero(), "identity");
            // Triangle inequality on tree distances.
            let dac = st.path_delay(a, c).unwrap();
            let dcb = st.path_delay(c, b).unwrap();
            prop_assert!(dab <= dac + dcb, "triangle");
        }
    }
}

// ---------------------------------------------------------------------
// Slab session store: id recycling vs a residency-epoch model
// ---------------------------------------------------------------------

/// Session `i`'s description for the slab-recycling model: distinct
/// origin per index, TTLs spread from site to world scope.
fn slab_session(i: usize, version: u64) -> SessionDescription {
    const SCOPE_TTLS: [u8; 4] = [8, 32, 100, 200];
    SessionDescription {
        origin: Origin {
            username: "-".into(),
            session_id: i as u64,
            version,
            address: Ipv4Addr::from(0x0a00_0100 + i as u32),
        },
        name: format!("slab{i}"),
        info: None,
        group: Ipv4Addr::new(224, 5, 0, (i % 200) as u8),
        ttl: SCOPE_TTLS[i % SCOPE_TTLS.len()],
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

proptest! {
    /// Interleaved admit / refresh / expire / evict / delete /
    /// mass-expiry ("restart": a rebooted directory relearns the scope
    /// from the wire, so the cache sees its whole population age out
    /// and re-admit into recycled slots) sequences never let a stale
    /// handle resolve: a [`sdalloc::sap::slab::SessionHandle`] minted
    /// during one residency goes dead the moment that record is
    /// removed, even when the dense id is immediately recycled for a
    /// new admit.  Alongside, the reconciliation digest equals a
    /// from-scratch recompute over the live population after every
    /// operation.
    #[test]
    fn slab_handles_never_alias_across_recycling(
        ops in proptest::collection::vec((0u8..6, 0usize..24, 1u64..40), 1..120),
    ) {
        use sdalloc::sap::cache::{AnnouncementCache, CacheKey, DIGEST_BUCKETS};
        use sdalloc::sap::slab::SessionHandle;
        use std::collections::HashMap;

        let timeout = SimDuration::from_secs(30);
        let mut cache = AnnouncementCache::new(timeout);
        let mut now = SimTime::ZERO;

        // Residency epochs: bumped every time session `i`'s record
        // leaves the cache.  A handle is valid iff its mint epoch is
        // still current.
        let mut epoch: HashMap<usize, u64> = HashMap::new();
        let mut index_of: HashMap<CacheKey, usize> = HashMap::new();
        let mut handles: Vec<(usize, u64, SessionHandle)> = Vec::new();

        for (op, i, delta) in ops {
            let desc = slab_session(i, 1);
            let key = CacheKey {
                origin: desc.origin.address,
                session_id: desc.origin.session_id,
            };
            match op {
                // Admit (or refresh) and mint a handle.
                0 | 1 => {
                    now += SimDuration::from_secs(1);
                    cache.observe_announce(now, desc);
                    index_of.insert(key, i);
                    let h = cache.handle_of(key.origin, key.session_id).unwrap();
                    handles.push((i, *epoch.entry(i).or_insert(0), h));
                }
                // Evict (governor displacement).
                2 => {
                    if cache.evict(key) {
                        *epoch.entry(i).or_insert(0) += 1;
                    }
                }
                // Deletion packet.
                3 => {
                    if cache.observe_delete(key.origin, key.session_id) {
                        *epoch.entry(i).or_insert(0) += 1;
                    }
                }
                // Partial expiry: step the clock, purge the aged.
                4 => {
                    now += SimDuration::from_secs(delta);
                    for purged in cache.purge_expired(now).to_vec() {
                        let idx = index_of[&purged];
                        *epoch.entry(idx).or_insert(0) += 1;
                    }
                }
                // Restart: the whole population ages out, then the
                // session re-admits into a recycled slot.
                _ => {
                    now = now + timeout + SimDuration::from_secs(1);
                    for purged in cache.purge_expired(now).to_vec() {
                        let idx = index_of[&purged];
                        *epoch.entry(idx).or_insert(0) += 1;
                    }
                    cache.observe_announce(now, desc);
                    index_of.insert(key, i);
                    let h = cache.handle_of(key.origin, key.session_id).unwrap();
                    handles.push((i, *epoch.entry(i).or_insert(0), h));
                }
            }

            // Generation check: stale handles are dead, live handles
            // resolve to the record they were minted for.
            for &(hi, he, h) in &handles {
                let current = *epoch.get(&hi).unwrap_or(&0);
                match cache.resolve(h) {
                    Some(entry) => {
                        prop_assert_eq!(
                            he, current,
                            "stale handle (session {} epoch {} vs {}) resolved",
                            hi, he, current
                        );
                        prop_assert_eq!(entry.key().session_id, hi as u64);
                    }
                    None => prop_assert_ne!(
                        he, current,
                        "live handle (session {}) failed to resolve",
                        hi
                    ),
                }
            }

            // The digest matches a from-scratch recompute over the
            // live population.
            let mut fresh = [0u64; DIGEST_BUCKETS];
            for (_, entry) in cache.iter() {
                let (bucket, hash) = AnnouncementCache::desc_digest(&entry.desc());
                *bucket.slot(&mut fresh) ^= hash;
            }
            prop_assert_eq!(cache.digest(), fresh, "digest diverges from recompute");
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot publication: replaying the change journal ≡ capturing afresh
// ---------------------------------------------------------------------

/// Session `i` of the replay model as third parties announce it.  Eight
/// groups for 24 sessions, so sessions share groups (a removal must not
/// free a group its neighbour still uses); `moved` lands on a second
/// set of groups and another TTL scope.
fn replay_session(i: usize, version: u64, renamed: bool, moved: bool) -> SessionDescription {
    let mut desc = slab_session(i, version);
    desc.group = Ipv4Addr::new(224, 6, u8::from(moved), (i % 8) as u8);
    if moved {
        desc.ttl = 255 - desc.ttl;
    }
    if renamed {
        desc.name = format!("renamed{i}");
    }
    desc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever happens to the cache between two publishes — admits,
    /// refreshes, same-version renames, group- and TTL-moving
    /// modifications, deletions, expiry, governor eviction at the entry
    /// budget, a restart, a burst longer than the journal — whether or
    /// not a reader pins the spare with an owned `Arc`, and whether the
    /// publish is forced (a pinned spare then means a capture) or left
    /// to the publisher's rule under random charges (a pinned spare or
    /// an unpaid charge then puts it off), every snapshot the publisher
    /// serves equals a fresh [`DirectorySnapshot::capture`] of the
    /// directory at the instant it was published, and a publish that was
    /// put off publishes nothing at all.
    #[test]
    fn replayed_snapshot_equals_fresh_capture(
        ops in proptest::collection::vec((0u8..14, 0usize..24, 1u64..40), 1..100),
    ) {
        use sdalloc::core::InformedRandomAllocator;
        use sdalloc::runtime::{DirectorySnapshot, SnapshotCadence, SnapshotPublisher};
        use sdalloc::sap::wire::msg_id_hash;
        use sdalloc::sap::{DirectoryConfig, GovernorConfig, SessionDirectory};
        use std::sync::Arc;

        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.cache_timeout = SimDuration::from_secs(30);
        // A budget below the 24-session population: admits at the
        // budget evict.  The rate limit is out of the way.
        cfg.governor = Some(GovernorConfig {
            max_entries: 16,
            rate_per_sec: 1e9,
            burst: 1e9,
            ..GovernorConfig::default()
        });
        let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(5);
        let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
        let handle = publisher.handle();
        let mut reader = handle.reader();
        let mut held = Vec::new();
        let mut version = [1u64; 24];
        let mut now = SimTime::ZERO;
        let mut replays_seen = 0;

        for (op, i, delta) in ops {
            now += SimDuration::from_millis(100);
            let announce = |dir: &mut SessionDirectory, rng: &mut SimRng, now, desc: SessionDescription| {
                let payload = desc.format();
                let pkt = SapPacket::announce(desc.origin.address, msg_id_hash(&payload), payload);
                dir.on_packet(now, &pkt, rng);
            };
            match op {
                // Admit or refresh.
                0..=2 => announce(&mut dir, &mut rng, now, replay_session(i, version[i], false, false)),
                // Same version, different name.
                3 => announce(&mut dir, &mut rng, now, replay_session(i, version[i], true, false)),
                // New version on another group, in another TTL scope.
                4 => {
                    version[i] += 1;
                    let moved = version[i] % 2 == 0;
                    announce(&mut dir, &mut rng, now, replay_session(i, version[i], false, moved));
                }
                // Deletion packet.
                5 => {
                    let desc = replay_session(i, version[i], false, false);
                    let payload = desc.format();
                    let pkt = SapPacket::delete(desc.origin.address, msg_id_hash(&payload), payload);
                    dir.on_packet(now, &pkt, &mut rng);
                }
                // Let time pass: entries not refreshed lately expire.
                6 => {
                    now += SimDuration::from_secs(delta);
                    let _ = dir.poll(now);
                }
                7 => dir.restart(now),
                // More refreshes than the journal keeps.
                8 if delta > 36 => {
                    for _ in 0..1_100 {
                        announce(&mut dir, &mut rng, now, replay_session(i, version[i], false, false));
                    }
                }
                // Publish, forced (9..=11) or if the rule allows
                // (12, 13); sometimes keep an owned reference to what
                // was current, alive across the next two attempts.
                _ => {
                    held.retain_mut(|(attempts_left, _)| {
                        *attempts_left -= 1;
                        *attempts_left > 0
                    });
                    if op == 11 || op == 13 {
                        held.push((3, reader.load_full()));
                    }
                    let before = publisher.stats();
                    let served = handle.load_slow();
                    if op < 12 {
                        publisher.publish(now, &dir);
                    } else if publisher.maybe_publish(now, &dir) {
                        // Up to 39 ms, times the share: back-offs from
                        // none to the 250 ms cap, 100 ms per op.
                        publisher.charge(now, SimDuration::from_millis(delta));
                    } else {
                        // Put off, or nothing to publish: nothing built.
                        prop_assert_eq!(publisher.stats().published, before.published);
                        prop_assert!(Arc::ptr_eq(&served, &handle.load_slow()));
                        continue;
                    }
                    drop(served);
                    let stats = publisher.stats();
                    let snap = handle.load_slow();
                    let fresh = DirectorySnapshot::capture(stats.published, now, &dir);
                    prop_assert_eq!(snap.version(), stats.published);
                    prop_assert_eq!(snap.published_at(), now);
                    prop_assert_eq!(snap.rows(), fresh.rows(), "rows diverge (replayed {})", stats.replayed);
                    prop_assert_eq!(snap.groups(), fresh.groups(), "groups diverge");
                    prop_assert!(snap.rows().windows(2).all(|w| w[0].key < w[1].key));
                    prop_assert!(snap.groups().windows(2).all(|w| w[0] < w[1]));
                    prop_assert_eq!(snap.corrupt_rows(), 0);
                    prop_assert_eq!(stats.last_rows, dir.cached_sessions());
                    for row in snap.rows() {
                        prop_assert!(snap.group_in_use(row.group));
                    }
                    replays_seen = stats.replayed;
                }
            }
        }
        // Not vacuous: with nobody holding the spare, a third publish
        // in a row replays.
        held.clear();
        for _ in 0..3 {
            publisher.publish(now, &dir);
        }
        prop_assert!(publisher.stats().replayed > replays_seen);
    }
}
