//! `directory_scale` — cache scaling benchmark for the slab storage
//! core.
//!
//! Measures the three hot cache operations at directory scale — 10k,
//! 100k and one **million** cached sessions — against the generational
//! slab [`AnnouncementCache`] (contiguous arena, TTL-band sharded
//! expiry heaps, interned strings).  At 10k/100k every workload also
//! runs against `LegacyCache`, an in-bin replica of the pre-refactor
//! full-scan implementation; the legacy comparison is *not* run at 1M,
//! where the full-scan side would dominate wall time without saying
//! anything new.  Workloads:
//!
//! * **announce_churn** — steady-state refresh traffic with a purge
//!   check per round (the directory's cache-expiry timer path).  The
//!   legacy purge is a full `retain` scan even when nothing expires.
//! * **allocation_probe** — `users_of` on random groups (the clash
//!   probe run on every received announcement) plus a periodic
//!   `visible_sessions` projection (the allocator view).
//! * **expiry** — age a fully-populated cache out in steps; legacy
//!   rescans every surviving entry per step.
//! * **refresh_op / probe_op** — individually-timed operations on the
//!   populated cache, reported as p50/p99 per-op latency.
//!
//! After each size the process peak RSS (`VmHWM` from
//! `/proc/self/status`, Linux only) is sampled; `VmHWM` is a monotonic
//! high-water mark, so with ascending sizes the last reading is the 1M
//! peak.
//!
//! Run modes:
//! * `--smoke` — 10k sessions, reduced iterations; prints the table and
//!   exits non-zero if any workload regresses below 1× or if the
//!   per-op refresh latency exceeds its ceiling (used by
//!   `scripts/check.sh`; the allocation-free refresh gate is the tier-1
//!   test `tests/alloc_free_paths.rs`).
//! * full (no flag) — 10k, 100k and 1M sessions; also writes
//!   `results_full/BENCH_scale.json`.  The scan workloads' speedups
//!   grow with size (roughly 10x churn / 30x probe at 100k); the
//!   sampled per-op rows sit near parity at 10k and pull ahead as the
//!   legacy scans leave cache.
//!
//! Both modes finish with the **telemetry overhead gate**: the full
//! directory receive path (`on_packet` announcement traffic + announce
//! and cache-expiry timers) is driven with telemetry enabled and
//! disabled, interleaved best-of-N, and the enabled run must stay
//! within 5% of the disabled one (`--smoke` exits non-zero past the
//! bar; the full run reports without gating, since it follows the long
//! cache benchmark and inherits its thermal noise).
//!
//! Everything is driven from a fixed-seed [`SimRng`], so the work done
//! (not the wall time) is identical across runs.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use sdalloc_core::{AddrSpace, InformedRandomAllocator, VisibleSession};
use sdalloc_sap::cache::{AnnouncementCache, CacheKey};
use sdalloc_sap::directory::{DirectoryConfig, SessionDirectory, TimerKind};
use sdalloc_sap::sdp::{Media, Origin, SessionDescription};
use sdalloc_sap::wire::SapPacket;
use sdalloc_sim::{SimDuration, SimRng, SimTime};

/// Process peak RSS in kilobytes (`VmHWM` from `/proc/self/status`).
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Hard cache timeout used by every scenario.
const TIMEOUT: SimDuration = SimDuration::from_secs(3600);

/// The pre-refactor cache: a bare `HashMap` where every hot operation
/// is a full scan.  Kept verbatim-in-spirit so the benchmark compares
/// algorithms, not incidental code differences — observation and
/// removal bookkeeping match the indexed cache (including the
/// reconciliation digests and governor indices both sides now
/// maintain); only the lookups scan.
struct LegacyCache {
    entries: HashMap<CacheKey, LegacyEntry>,
    timeout: SimDuration,
    /// Matched-bookkeeping mirror of the indexed cache's per-bucket
    /// digest accumulators.
    digests: [u64; 16],
    /// Matched-bookkeeping mirror of the governor's origin index.
    origin_keys: HashMap<Ipv4Addr, BTreeSet<u64>>,
    /// Matched-bookkeeping mirror of the governor's unverified tier.
    unverified: BTreeSet<(SimTime, CacheKey)>,
}

/// The pre-refactor owned entry: a `String` per description field.
struct LegacyEntry {
    desc: SessionDescription,
    first_heard: SimTime,
    last_heard: SimTime,
    announcements: u64,
}

impl LegacyCache {
    fn new(timeout: SimDuration) -> Self {
        LegacyCache {
            entries: HashMap::new(),
            timeout,
            digests: [0; 16],
            origin_keys: HashMap::new(),
            unverified: BTreeSet::new(),
        }
    }

    fn observe_announce(&mut self, now: SimTime, desc: SessionDescription) {
        let key = CacheKey {
            origin: desc.origin.address,
            session_id: desc.origin.session_id,
        };
        match self.entries.get_mut(&key) {
            None => {
                let (bucket, hash) = AnnouncementCache::desc_digest(&desc);
                self.digests[bucket] ^= hash;
                self.origin_keys
                    .entry(key.origin)
                    .or_default()
                    .insert(key.session_id);
                self.unverified.insert((now, key));
                self.entries.insert(
                    key,
                    LegacyEntry {
                        desc,
                        first_heard: now,
                        last_heard: now,
                        announcements: 1,
                    },
                );
            }
            Some(entry) => {
                let (bucket, old_hash) = AnnouncementCache::desc_digest(&entry.desc);
                let (_, new_hash) = AnnouncementCache::desc_digest(&desc);
                if old_hash != new_hash {
                    self.digests[bucket] ^= old_hash ^ new_hash;
                }
                entry.desc = desc;
                entry.last_heard = now;
                entry.announcements += 1;
                if entry.announcements == 2 {
                    self.unverified.remove(&(entry.first_heard, key));
                }
            }
        }
    }

    fn purge_expired(&mut self, now: SimTime) -> usize {
        let timeout = self.timeout;
        let mut purged = Vec::new();
        let digests = &mut self.digests;
        let origin_keys = &mut self.origin_keys;
        let unverified = &mut self.unverified;
        self.entries.retain(|key, entry| {
            if now.saturating_since(entry.last_heard) > timeout {
                let (bucket, hash) = AnnouncementCache::desc_digest(&entry.desc);
                digests[bucket] ^= hash;
                if let Some(ids) = origin_keys.get_mut(&key.origin) {
                    ids.remove(&key.session_id);
                    if ids.is_empty() {
                        origin_keys.remove(&key.origin);
                    }
                }
                if entry.announcements < 2 {
                    unverified.remove(&(entry.first_heard, *key));
                }
                purged.push(*key);
                false
            } else {
                true
            }
        });
        purged.sort_unstable();
        purged.len()
    }

    fn users_of(&self, group: Ipv4Addr) -> usize {
        let mut users: Vec<&CacheKey> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.desc.group == group)
            .map(|(key, _)| key)
            .collect();
        users.sort_unstable();
        users.len()
    }

    fn visible_sessions(&self, space: &AddrSpace) -> Vec<VisibleSession> {
        let mut view: Vec<VisibleSession> = self
            .entries
            .values()
            .filter_map(|entry| {
                space
                    .index_of(entry.desc.group)
                    .map(|addr| VisibleSession::new(addr, entry.desc.ttl))
            })
            .collect();
        view.sort_unstable_by_key(|s| (s.addr.0, s.ttl));
        view
    }
}

/// The operations both implementations expose, so each workload is
/// written once and timed against either side.
trait CacheOps {
    fn observe(&mut self, now: SimTime, desc: SessionDescription);
    fn purge(&mut self, now: SimTime) -> usize;
    fn probe(&self, group: Ipv4Addr) -> usize;
    fn view_len(&self, space: &AddrSpace) -> usize;
}

impl CacheOps for LegacyCache {
    fn observe(&mut self, now: SimTime, desc: SessionDescription) {
        self.observe_announce(now, desc);
    }
    fn purge(&mut self, now: SimTime) -> usize {
        self.purge_expired(now)
    }
    fn probe(&self, group: Ipv4Addr) -> usize {
        self.users_of(group)
    }
    fn view_len(&self, space: &AddrSpace) -> usize {
        self.visible_sessions(space).len()
    }
}

impl CacheOps for AnnouncementCache {
    fn observe(&mut self, now: SimTime, desc: SessionDescription) {
        self.observe_announce(now, desc);
    }
    fn purge(&mut self, now: SimTime) -> usize {
        self.purge_expired(now).len()
    }
    fn probe(&self, group: Ipv4Addr) -> usize {
        self.users_of(group).count()
    }
    fn view_len(&self, space: &AddrSpace) -> usize {
        self.visible_sessions(space).len()
    }
}

/// Benchmark knobs for one run mode.
struct Knobs {
    sizes: Vec<usize>,
    churn_rounds: u64,
    churn_per_round: usize,
    probes: usize,
    expiry_steps: u64,
    /// Individually-timed ops for the p50/p99 rows.
    sampled_ops: usize,
}

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

/// Session `i`'s description: distinct origin per session, group drawn
/// from the space round-robin.  Generated on demand so the 1M tier
/// does not hold a million fixture descriptions alive — the measured
/// peak RSS is the cache's, not the harness's.
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
        media: media(),
    }
}

/// Populate with `last_heard` staggered 10 ms apart, so expiry is
/// spread rather than simultaneous.
fn populate<C: CacheOps>(cache: &mut C, n: usize, space: &AddrSpace) {
    for i in 0..n {
        cache.observe(
            SimTime::from_nanos(i as u64 * 10_000_000),
            session(i, space),
        );
    }
}

/// Steady-state churn: refresh a random subset each round, then run the
/// purge check the cache-expiry timer performs.  Nothing expires — the
/// cost under test is the no-op purge plus refresh bookkeeping.
fn announce_churn<C: CacheOps>(cache: &mut C, n: usize, space: &AddrSpace, knobs: &Knobs) -> usize {
    let mut rng = SimRng::new(11);
    let mut purged = 0;
    for round in 0..knobs.churn_rounds {
        let now = SimTime::from_secs(100 + round);
        for _ in 0..knobs.churn_per_round {
            let d = session(rng.index(n), space);
            cache.observe(now, d);
        }
        purged += cache.purge(now);
    }
    purged
}

/// The clash probe: `users_of` on random groups, with the allocator
/// view rebuilt every 64 probes.
fn allocation_probe<C: CacheOps>(cache: &C, space: &AddrSpace, knobs: &Knobs) -> usize {
    let mut rng = SimRng::new(13);
    let mut hits = 0;
    for i in 0..knobs.probes {
        let group =
            Ipv4Addr::from(u32::from(space.base()) + rng.below(u64::from(space.size())) as u32);
        hits += cache.probe(group);
        if i % 64 == 0 {
            hits += cache.view_len(space);
        }
    }
    hits
}

/// Age the whole cache out in steps; each step expires roughly
/// `n / expiry_steps` entries.  A step models one poll tick during the
/// drain window — the pre-refactor directory ran the purge scan on
/// every poll, so the tick count is deliberately high.
fn expiry<C: CacheOps>(cache: &mut C, n: usize, knobs: &Knobs) -> usize {
    // Population spans [0, n * 10ms); step the clock so the horizon
    // sweeps that span in `expiry_steps` slices.
    let span_ns = n as u64 * 10_000_000;
    let mut purged = 0;
    for step in 1..=knobs.expiry_steps {
        let now = SimTime::from_nanos(TIMEOUT.as_nanos() + span_ns * step / knobs.expiry_steps + 1);
        purged += cache.purge(now);
    }
    purged
}

/// p50/p99 of a sample set (nanoseconds).  Sorts in place.
fn percentiles(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    let pick = |p: usize| samples[(samples.len() - 1) * p / 100];
    (pick(50), pick(99))
}

/// Individually-timed refresh operations, each side driven through its
/// natural receive path with fixtures built before the clock starts:
/// the legacy cache consumes an owned description (its entries own
/// their strings, so a refresh must hand one over), the indexed cache
/// consumes a borrowed view (`on_packet` parses once and refreshes
/// zero-copy).  Returns (total_ns, p50_ns, p99_ns).
fn refresh_op_latency_legacy(
    cache: &mut LegacyCache,
    n: usize,
    space: &AddrSpace,
    ops: usize,
) -> (u128, u64, u64) {
    let mut rng = SimRng::new(19);
    let mut samples = Vec::with_capacity(ops);
    let now = SimTime::from_secs(500);
    for _ in 0..ops {
        let d = session(rng.index(n), space);
        let start = Instant::now();
        cache.observe_announce(now, d);
        samples.push(start.elapsed().as_nanos() as u64);
    }
    let total: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    let (p50, p99) = percentiles(&mut samples);
    (total, p50, p99)
}

/// Indexed-side counterpart of [`refresh_op_latency_legacy`]: the
/// owned fixture and its borrowed view are built outside the timed
/// window, so the sample is `observe_announce_ref` alone — the
/// operation the directory performs per received announcement after
/// the one-time parse.
fn refresh_op_latency_indexed(
    cache: &mut AnnouncementCache,
    n: usize,
    space: &AddrSpace,
    ops: usize,
) -> (u128, u64, u64) {
    let mut rng = SimRng::new(19);
    let mut samples = Vec::with_capacity(ops);
    let now = SimTime::from_secs(500);
    for _ in 0..ops {
        let d = session(rng.index(n), space);
        let view = d.as_ref();
        let start = Instant::now();
        black_box(cache.observe_announce_ref(now, &view));
        samples.push(start.elapsed().as_nanos() as u64);
    }
    let total: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    let (p50, p99) = percentiles(&mut samples);
    (total, p50, p99)
}

/// Individually-timed `users_of` probes.  Returns (total_ns, p50_ns,
/// p99_ns).
fn probe_op_latency<C: CacheOps>(cache: &C, space: &AddrSpace, ops: usize) -> (u128, u64, u64) {
    let mut rng = SimRng::new(23);
    let mut samples = Vec::with_capacity(ops);
    let mut hits = 0usize;
    for _ in 0..ops {
        let group =
            Ipv4Addr::from(u32::from(space.base()) + rng.below(u64::from(space.size())) as u32);
        let start = Instant::now();
        hits += cache.probe(group);
        samples.push(start.elapsed().as_nanos() as u64);
    }
    black_box(hits);
    let total: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    let (p50, p99) = percentiles(&mut samples);
    (total, p50, p99)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

struct Row {
    size: usize,
    workload: &'static str,
    /// `None` at sizes where the full-scan comparator is not run (1M).
    legacy_ns: Option<u128>,
    indexed_ns: u128,
    /// Per-op latency percentiles, for the individually-sampled rows.
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.legacy_ns
            .map(|l| l as f64 / self.indexed_ns.max(1) as f64)
    }
}

/// Largest size at which the legacy full-scan comparator still runs;
/// beyond this the quadratic scan side would dominate wall time.
const LEGACY_CEILING: usize = 100_000;

fn run_size(n: usize, knobs: &Knobs, rows: &mut Vec<Row>, rss: &mut Vec<(usize, u64)>) {
    let with_legacy = n <= LEGACY_CEILING;
    let space = AddrSpace::new(Ipv4Addr::new(224, 2, 0, 0), n as u32);

    // announce_churn
    let mut legacy = with_legacy.then(|| {
        let mut c = LegacyCache::new(TIMEOUT);
        populate(&mut c, n, &space);
        c
    });
    let legacy_churn = legacy.as_mut().map(|c| {
        let (out, ns) = timed(|| announce_churn(c, n, &space, knobs));
        (out, ns)
    });
    let mut indexed = AnnouncementCache::new(TIMEOUT);
    populate(&mut indexed, n, &space);
    let (i_out, indexed_ns) = timed(|| announce_churn(&mut indexed, n, &space, knobs));
    if let Some((l_out, _)) = legacy_churn {
        assert_eq!(l_out, i_out, "churn purge counts diverge");
    }
    black_box(i_out);
    rows.push(Row {
        size: n,
        workload: "announce_churn",
        legacy_ns: legacy_churn.map(|(_, ns)| ns),
        indexed_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // allocation_probe (on the churned caches — both hold all n entries)
    let legacy_probe = legacy
        .as_ref()
        .map(|c| timed(|| allocation_probe(c, &space, knobs)));
    let (i_out, indexed_ns) = timed(|| allocation_probe(&indexed, &space, knobs));
    if let Some((l_out, _)) = legacy_probe {
        assert_eq!(l_out, i_out, "probe hit counts diverge");
    }
    black_box(i_out);
    rows.push(Row {
        size: n,
        workload: "allocation_probe",
        legacy_ns: legacy_probe.map(|(_, ns)| ns),
        indexed_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // refresh_op / probe_op: per-op latency percentiles on the
    // populated caches.
    let legacy_refresh = legacy
        .as_mut()
        .map(|c| refresh_op_latency_legacy(c, n, &space, knobs.sampled_ops));
    let (total, p50, p99) = refresh_op_latency_indexed(&mut indexed, n, &space, knobs.sampled_ops);
    rows.push(Row {
        size: n,
        workload: "refresh_op",
        legacy_ns: legacy_refresh.map(|(t, _, _)| t),
        indexed_ns: total,
        p50_ns: Some(p50),
        p99_ns: Some(p99),
    });
    let legacy_probe_op = legacy
        .as_ref()
        .map(|c| probe_op_latency(c, &space, knobs.sampled_ops));
    let (total, p50, p99) = probe_op_latency(&indexed, &space, knobs.sampled_ops);
    rows.push(Row {
        size: n,
        workload: "probe_op",
        legacy_ns: legacy_probe_op.map(|(t, _, _)| t),
        indexed_ns: total,
        p50_ns: Some(p50),
        p99_ns: Some(p99),
    });

    // expiry (fresh caches: the churned ones have bunched last_heard)
    let mut legacy = with_legacy.then(|| {
        let mut c = LegacyCache::new(TIMEOUT);
        populate(&mut c, n, &space);
        c
    });
    let mut indexed = AnnouncementCache::new(TIMEOUT);
    populate(&mut indexed, n, &space);
    if let Some(c) = &legacy {
        assert_eq!(
            c.digests,
            indexed.digest(),
            "matched digest bookkeeping diverges after populate"
        );
        assert_ne!(c.digests, [0; 16], "populated digests must be non-zero");
    }
    let legacy_expiry = legacy.as_mut().map(|c| timed(|| expiry(c, n, knobs)));
    let (i_out, indexed_ns) = timed(|| expiry(&mut indexed, n, knobs));
    if let Some((l_out, _)) = legacy_expiry {
        assert_eq!(l_out, i_out, "expiry purge counts diverge");
    }
    assert_eq!(i_out, n, "expiry must drain the whole cache");
    if let Some(c) = &legacy {
        assert_eq!(
            c.digests,
            indexed.digest(),
            "matched digest bookkeeping returns to empty after full drain"
        );
    }
    black_box(i_out);
    rows.push(Row {
        size: n,
        workload: "expiry",
        legacy_ns: legacy_expiry.map(|(_, ns)| ns),
        indexed_ns,
        p50_ns: None,
        p99_ns: None,
    });

    if let Some(kb) = peak_rss_kb() {
        rss.push((n, kb));
    }
}

/// One pass over the directory's hot receive path: a round of remote
/// announcement traffic through `on_packet`, the node's own announce
/// timers, and the cache-expiry timer — i.e. every code path the
/// telemetry instrumentation touches.  Returns total packets emitted,
/// as a black-box anchor.
fn drive_directory(telemetry_on: bool, packets: &[SapPacket], rounds: u64) -> usize {
    let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 9, 9, 9));
    cfg.space = AddrSpace::new(Ipv4Addr::new(224, 9, 0, 0), 4096);
    let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
    dir.set_telemetry_enabled(telemetry_on);
    let mut rng = SimRng::new(17);
    let mut own = Vec::new();
    for i in 0..8 {
        let id = dir
            .create_session(SimTime::ZERO, &format!("own{i}"), 63, media(), &mut rng)
            .expect("allocate own session");
        own.push(id);
    }
    let mut emitted = 0;
    for round in 0..rounds {
        let now = SimTime::from_secs(1 + round);
        for pkt in packets {
            let (out, _) = dir.on_packet(now, pkt, &mut rng);
            emitted += out.len();
        }
        for &id in &own {
            emitted += dir.on_timer(now, TimerKind::Announce(id)).len();
        }
        emitted += dir.on_timer(now, TimerKind::CacheExpiry).len();
    }
    emitted
}

/// Best-of-N interleaved comparison of the directory hot path with
/// telemetry enabled vs disabled.  Interleaving (off, on, off, on, ...)
/// cancels frequency-scaling drift; best-of-N discards scheduler noise.
fn telemetry_overhead(smoke: bool) -> (u128, u128) {
    let (n_remote, rounds, trials) = if smoke { (512, 24, 5) } else { (1024, 48, 7) };
    let space = AddrSpace::new(Ipv4Addr::new(224, 9, 0, 0), 4096);
    let packets: Vec<SapPacket> = (0..n_remote)
        .map(|i| {
            let d = session(i, &space);
            SapPacket::announce(d.origin.address, d.origin.session_id as u16, d.format())
        })
        .collect();

    // Warm-up pass (page in code and allocator state on both sides).
    let expect = drive_directory(false, &packets, rounds);
    assert_eq!(
        drive_directory(true, &packets, rounds),
        expect,
        "telemetry must not change directory behaviour"
    );

    let (mut best_off, mut best_on) = (u128::MAX, u128::MAX);
    for _ in 0..trials {
        let (out, off_ns) = timed(|| drive_directory(false, &packets, rounds));
        black_box(out);
        best_off = best_off.min(off_ns);
        let (out, on_ns) = timed(|| drive_directory(true, &packets, rounds));
        black_box(out);
        best_on = best_on.min(on_ns);
    }
    (best_off, best_on)
}

fn render_json(rows: &[Row], rss: &[(usize, u64)]) -> String {
    let mut out = String::from("{\n  \"bench\": \"directory_scale\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let legacy = r.legacy_ns.map_or("null".to_string(), |ns| ns.to_string());
        let speedup = r
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        let p50 = r.p50_ns.map_or("null".to_string(), |ns| ns.to_string());
        let p99 = r.p99_ns.map_or("null".to_string(), |ns| ns.to_string());
        out.push_str(&format!(
            "    {{\"size\": {}, \"workload\": \"{}\", \"legacy_ns\": {legacy}, \"indexed_ns\": {}, \"speedup\": {speedup}, \"p50_ns\": {p50}, \"p99_ns\": {p99}}}{}\n",
            r.size,
            r.workload,
            r.indexed_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"peak_rss\": [\n");
    for (i, (size, kb)) in rss.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"after_size\": {size}, \"vm_hwm_kb\": {kb}}}{}\n",
            if i + 1 < rss.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Smoke ceilings for the per-op gates, deliberately generous so only
/// an algorithmic regression (a scan creeping back into the refresh or
/// probe path) trips them on shared CI hardware.
const SMOKE_REFRESH_P99_NS: u64 = 100_000;
const SMOKE_PROBE_P99_NS: u64 = 200_000;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let knobs = if smoke {
        Knobs {
            sizes: vec![10_000],
            churn_rounds: 32,
            churn_per_round: 64,
            probes: 512,
            expiry_steps: 512,
            sampled_ops: 4096,
        }
    } else {
        Knobs {
            sizes: vec![10_000, 100_000, 1_000_000],
            churn_rounds: 256,
            churn_per_round: 64,
            probes: 2048,
            expiry_steps: 2048,
            sampled_ops: 8192,
        }
    };

    let mut rows = Vec::new();
    let mut rss = Vec::new();
    for &n in &knobs.sizes {
        run_size(n, &knobs, &mut rows, &mut rss);
    }

    println!(
        "{:>8}  {:>17}  {:>12}  {:>12}  {:>8}  {:>9}  {:>9}",
        "size", "workload", "legacy_ms", "indexed_ms", "speedup", "p50_ns", "p99_ns"
    );
    for r in &rows {
        let legacy_ms = r
            .legacy_ns
            .map_or("-".to_string(), |ns| format!("{:.3}", ns as f64 / 1e6));
        let speedup = r.speedup().map_or("-".to_string(), |s| format!("{s:.1}x"));
        let p50 = r.p50_ns.map_or("-".to_string(), |v| v.to_string());
        let p99 = r.p99_ns.map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:>8}  {:>17}  {:>12}  {:>12.3}  {:>8}  {:>9}  {:>9}",
            r.size,
            r.workload,
            legacy_ms,
            r.indexed_ns as f64 / 1e6,
            speedup,
            p50,
            p99,
        );
    }
    for (size, kb) in &rss {
        println!("peak RSS after {size}: {kb} kB (VmHWM)");
    }

    if !smoke {
        let json = render_json(&rows, &rss);
        fs::create_dir_all("results_full").expect("create results_full/");
        fs::write("results_full/BENCH_scale.json", &json).expect("write BENCH_scale.json");
        println!("wrote results_full/BENCH_scale.json");
    }

    // Regression gate: the indexed cache must never be slower than the
    // legacy scan on the aggregate workloads (where the comparator
    // runs).  The individually-sampled rows sit near parity by design
    // — a slab refresh does the same O(1) work as a HashMap refresh —
    // so they are gated by the absolute ceilings below instead.
    // Smoke runs the aggregates at 10k where expiry sits near parity
    // and finishes in ~15ms, so a scheduler hiccup can push a row a
    // hair under 1.0x; allow 15% noise there.  Full runs keep the
    // strict bar — at 100k+ the real margins are 4-30x.
    let floor = if smoke { 0.85 } else { 1.0 };
    let regressed: Vec<&Row> = rows
        .iter()
        .filter(|r| r.p50_ns.is_none() && r.speedup().is_some_and(|s| s < floor))
        .collect();
    if !regressed.is_empty() {
        for r in regressed {
            eprintln!(
                "REGRESSION: {} @ {} — indexed {}ns vs legacy {:?}ns",
                r.workload, r.size, r.indexed_ns, r.legacy_ns
            );
        }
        std::process::exit(1);
    }

    // Per-op latency gates (smoke only: the full run's 1M tier reports
    // the same numbers without gating).
    if smoke {
        for r in rows.iter().filter(|r| r.p99_ns.is_some()) {
            let bar = match r.workload {
                "refresh_op" => SMOKE_REFRESH_P99_NS,
                _ => SMOKE_PROBE_P99_NS,
            };
            let p99 = r.p99_ns.unwrap_or(0);
            if p99 > bar {
                eprintln!(
                    "REGRESSION: {} p99 {}ns exceeds the {}ns ceiling",
                    r.workload, p99, bar
                );
                std::process::exit(1);
            }
        }
    }

    // Telemetry overhead gate: the instrumented directory hot path must
    // stay within 5% of the uninstrumented one.
    let (off_ns, on_ns) = telemetry_overhead(smoke);
    let mut ratio = on_ns as f64 / off_ns.max(1) as f64;
    if smoke && ratio > 1.05 {
        // One re-measure before failing: a single smoke trial is short
        // enough that scheduler noise alone can breach the 5% bar.
        let (off2, on2) = telemetry_overhead(smoke);
        ratio = ratio.min(on2 as f64 / off2.max(1) as f64);
    }
    println!(
        "\ntelemetry overhead: off {:.3}ms, on {:.3}ms — ratio {:.3} (bar 1.05)",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6,
        ratio,
    );
    if smoke && ratio > 1.05 {
        eprintln!("REGRESSION: telemetry-enabled directory exceeds the 5% overhead bar");
        std::process::exit(1);
    }
}
