//! The system under test.  This is the only file of the benchmark that
//! names product types; fixtures, phases, statistics and the micro
//! timings all go through the thin wrappers below, so a product API
//! change needs a follow-up in this one file.
//!
//! The wrappers add no logic of their own beyond what it takes to hand
//! plain data across the boundary: every timed call in `phases.rs` and
//! `micro.rs` lands on exactly one public product call.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::epoch::Guard;
use sdalloc_core::{AddrSpace, Allocator, InformedRandomAllocator, View, VisibleSession};
use sdalloc_runtime::{
    AgentDriver, AgentExit, BusEndpoint, Clock, DirectorySnapshot, DriverConfig, LoopbackBus,
    Runtime, SnapshotCadence, SnapshotHandle, SnapshotPublisher, SnapshotReader, WallClock,
};
use sdalloc_sap::cache::AnnouncementCache;
use sdalloc_sap::wire::msg_id_hash;
use sdalloc_sap::{
    CacheUpdate, DescRef, DirectoryConfig, DirectoryEvent, GovernorConfig, Media, MessageType,
    Origin, SapFrame, SapPacket, SapSocket, SapTransport, SessionDescription, SessionDirectory,
};
use sdalloc_sim::{FaultPlan, ShardedTimerQueue, SimDuration, SimRng, SimTime};

use crate::fixture::{
    Fixture, Op, RawSpec, SessionSpec, HOST_A, HOST_B, HOST_MICRO, SPACE_BASE, SPACE_SIZE,
};

fn media() -> Vec<Media> {
    vec![Media {
        kind: "audio".into(),
        port: 5004,
        proto: "RTP/AVP".into(),
        format: 0,
    }]
}

fn description(spec: &SessionSpec) -> SessionDescription {
    SessionDescription {
        origin: Origin {
            username: "-".into(),
            session_id: spec.id,
            version: 1,
            address: spec.origin,
        },
        name: spec.name.clone(),
        info: None,
        group: spec.group,
        ttl: spec.ttl,
        start: 0,
        stop: 0,
        media: media(),
    }
}

/// `SessionDescription::format` of a spec (the `sdp.format_ns` probe).
pub fn format_sdp(spec: &SessionSpec) -> usize {
    description(spec).format().len()
}

/// One generated SAP packet.
#[derive(Debug, Clone)]
pub struct Packet(SapPacket);

/// A description parsed in place, borrowed from its packet.
pub struct Parsed<'a>(DescRef<'a>);

impl Packet {
    pub fn announce(spec: &SessionSpec) -> Packet {
        let payload = description(spec).format();
        Packet(SapPacket::announce(
            spec.origin,
            msg_id_hash(&payload),
            payload,
        ))
    }

    pub fn delete(spec: &SessionSpec) -> Packet {
        let payload = description(spec).format();
        Packet(SapPacket::delete(
            spec.origin,
            msg_id_hash(&payload),
            payload,
        ))
    }

    pub fn raw(spec: &RawSpec) -> Packet {
        Packet(SapPacket::announce(
            spec.source,
            msg_id_hash(&spec.payload),
            spec.payload.clone(),
        ))
    }

    /// `SapPacket::encode`.
    pub fn encode(&self) -> Vec<u8> {
        self.0.encode().to_vec()
    }

    /// `SapPacket::encode` without the copy out of `Bytes`.
    pub fn encode_len(&self) -> usize {
        self.0.encode().len()
    }

    /// `DescRef::parse` over the payload.
    pub fn parse(&self) -> Option<Parsed<'_>> {
        DescRef::parse(&self.0.payload).ok().map(Parsed)
    }
}

/// `SapFrame::decode`: the zero-copy decoder.
pub fn decode_frame(bytes: &[u8]) -> bool {
    SapFrame::decode(bytes).is_ok()
}

/// `SapPacket::decode`: the owning decoder `SapSocket` calls.
pub fn decode_owned(bytes: &[u8]) -> bool {
    SapPacket::decode(bytes).is_ok()
}

/// Every packet a workload's stream can ask for, built once at set-up
/// so the measured phases generate nothing.
pub struct PacketTable {
    residents: Vec<Packet>,
    pool_new: Vec<Packet>,
    pool_delete: Vec<Packet>,
    forged: Vec<Packet>,
    unparseable: Vec<Packet>,
    big_names: Vec<Packet>,
}

impl PacketTable {
    pub fn build(fx: &Fixture) -> PacketTable {
        PacketTable {
            residents: fx.residents.iter().map(Packet::announce).collect(),
            pool_new: fx.pool.iter().map(Packet::announce).collect(),
            pool_delete: fx.pool.iter().map(Packet::delete).collect(),
            forged: fx.forged.iter().map(Packet::announce).collect(),
            unparseable: fx.unparseable.iter().map(Packet::raw).collect(),
            big_names: fx.big_names.iter().map(Packet::announce).collect(),
        }
    }

    pub fn get(&self, op: Op) -> &Packet {
        match op {
            Op::Refresh(i) => &self.residents[i as usize],
            Op::PoolNew(k) => &self.pool_new[k as usize],
            Op::PoolDelete(k) => &self.pool_delete[k as usize],
            Op::Forged(i) => &self.forged[i as usize],
            Op::Unparseable(i) => &self.unparseable[i as usize],
            Op::BigName(i) => &self.big_names[i as usize],
        }
    }

    pub fn residents(&self) -> &[Packet] {
        &self.residents
    }

    /// What an agent has heard before the stream starts: every resident,
    /// then the pool sessions that are live at stream position 0.
    pub fn preload<'a>(&'a self, fx: &'a Fixture) -> impl Iterator<Item = &'a Packet> + Clone + 'a {
        self.residents.iter().chain(
            fx.pool_live_at_start
                .iter()
                .map(|&k| &self.pool_new[k as usize]),
        )
    }
}

fn directory_config(host: Ipv4Addr, governor_max_entries: Option<usize>) -> DirectoryConfig {
    // Product defaults on purpose: only the space (and the governor in
    // `storm_10k`) is set, so a change to any default shows.
    let mut cfg = DirectoryConfig::new(host);
    cfg.space = AddrSpace::new(SPACE_BASE, SPACE_SIZE);
    cfg.governor = governor_max_entries.map(|max_entries| GovernorConfig {
        max_entries,
        // The default 10 packets/s per source would refuse agent A
        // itself, which creates 40 sessions/s here (measured: 376 of 535
        // creates never reached B).  50/s admits A and still refuses
        // every hostile source, each of which sends about 156/s.
        rate_per_sec: 50.0,
        burst: 100.0,
        ..GovernorConfig::default()
    });
    cfg
}

/// Feed the pre-load to a directory twice, the way any session older
/// than one announce interval has been heard: the second pass takes
/// every entry out of the governor's "heard once" eviction tier.
fn preload_directory<'a>(
    dir: &mut SessionDirectory,
    now: SimTime,
    rng: &mut SimRng,
    packets: impl Iterator<Item = &'a Packet> + Clone,
) {
    for _ in 0..2 {
        for p in packets.clone() {
            let _ = dir.on_packet(now, &p.0, rng);
        }
    }
}

/// Empty the tap; with `parse`, call `on_a_session(id)` for every
/// announcement of one of A's own sessions among what it heard.
fn drain_tap(tap: &BusEndpoint, parse: bool, mut on_a_session: impl FnMut(u64)) {
    while let Ok(Some(pkt)) = tap.recv(Duration::ZERO) {
        if parse && pkt.source == HOST_A && pkt.message_type == MessageType::Announce {
            if let Ok(d) = DescRef::parse(&pkt.payload) {
                if d.origin.address == HOST_A {
                    on_a_session(d.origin.session_id);
                }
            }
        }
    }
}

/// Bus counters the output check and the `bus.*` metrics read.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusCounters {
    pub delivered: u64,
    pub dropped_full: u64,
}

fn bus_counters(bus: &LoopbackBus) -> BusCounters {
    let s = bus.stats();
    BusCounters {
        delivered: s.delivered,
        dropped_full: s.dropped_full,
    }
}

/// Agents A and B on one loopback bus, not yet spawned: the stepped
/// (closed-loop) shape.  A third endpoint, owned by the harness, is both
/// feeder and tap.
pub struct Agents {
    clock: Arc<WallClock>,
    bus: LoopbackBus,
    a: AgentDriver<BusEndpoint>,
    b: AgentDriver<BusEndpoint>,
    feeder: BusEndpoint,
}

impl Agents {
    /// Build both agents, pre-load them and publish their first
    /// snapshots.
    pub fn build(
        fx: &Fixture,
        table: &PacketTable,
        seed: u64,
        governor_max_entries: Option<usize>,
    ) -> Agents {
        let clock = Arc::new(WallClock::new());
        let dyn_clock: Arc<dyn Clock> = clock.clone();
        let bus = LoopbackBus::new(dyn_clock.clone(), seed, FaultPlan::new());
        let agent = |node: u32, host: Ipv4Addr| {
            AgentDriver::new(
                node,
                seed,
                directory_config(host, governor_max_entries),
                Box::new(InformedRandomAllocator),
                bus.endpoint(),
                dyn_clock.clone(),
                DriverConfig::default(),
            )
        };
        let mut a = agent(0, HOST_A);
        let mut b = agent(1, HOST_B);
        let feeder = bus.endpoint();
        let mut rng = SimRng::new(seed ^ 0x0005_e70f);
        for driver in [&mut a, &mut b] {
            let now = clock.now();
            preload_directory(driver.directory_mut(), now, &mut rng, table.preload(fx));
            driver.publish_now();
        }
        Agents {
            clock,
            bus,
            a,
            b,
            feeder,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    /// The feeder sends one background packet to both agents.
    pub fn feed(&self, pkt: &Packet) {
        let _ = self.feeder.send(&pkt.0);
    }

    pub fn drain_tap(&self) {
        drain_tap(&self.feeder, false, |_| {});
    }

    /// `AgentDriver::step` on A.
    pub fn step_a(&mut self) -> Result<(), String> {
        self.a.step().map_err(|e| format!("agent A: {e}"))
    }

    /// `AgentDriver::step` on B.
    pub fn step_b(&mut self) -> Result<(), String> {
        self.b.step().map_err(|e| format!("agent B: {e}"))
    }

    /// (A, B) cached session counts.
    pub fn cached(&self) -> (usize, usize) {
        (
            self.a.directory().cached_sessions(),
            self.b.directory().cached_sessions(),
        )
    }

    pub fn bus_counters(&self) -> BusCounters {
        bus_counters(&self.bus)
    }

    /// Snapshots B has published so far.
    pub fn published_b(&self) -> u64 {
        self.b.snapshot_stats().published
    }

    /// `Runtime::spawn(vec![a, b])`: one thread per agent.
    pub fn spawn(self) -> Result<Running, String> {
        let handle_b = self.b.snapshot_handle();
        let published_b_at_spawn = self.b.snapshot_stats().published;
        let runtime = Runtime::spawn(vec![self.a, self.b]).map_err(|e| format!("spawn: {e}"))?;
        Ok(Running {
            runtime,
            clock: self.clock,
            bus: self.bus,
            feeder: self.feeder,
            handle_b,
            published_b_at_spawn,
        })
    }
}

/// The spawned runtime: the open-loop shape.
pub struct Running {
    runtime: Runtime,
    clock: Arc<WallClock>,
    bus: LoopbackBus,
    feeder: BusEndpoint,
    handle_b: SnapshotHandle,
    published_b_at_spawn: u64,
}

impl Running {
    pub fn now_ns(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    pub fn feed(&self, pkt: &Packet) {
        let _ = self.feeder.send(&pkt.0);
    }

    /// Drain the tap; with `parse`, report A's own announcements.
    pub fn drain_tap(&self, parse: bool, on_a_session: impl FnMut(u64)) {
        drain_tap(&self.feeder, parse, on_a_session);
    }

    /// `Runtime::create_session` on agent A (blocking round trip).
    pub fn create(&self, name: &str, ttl: u8) -> Result<u64, String> {
        self.runtime
            .create_session(0, name, ttl, media())
            .map_err(|e| e.to_string())
    }

    /// `Runtime::withdraw` on agent A.
    pub fn withdraw(&self, id: u64) {
        self.runtime.withdraw(0, id);
    }

    /// A reader of B's snapshots.
    pub fn reader_b(&self) -> Reader {
        Reader(self.handle_b.reader())
    }

    /// `Runtime::shutdown`, then B's final snapshot (the worker
    /// publishes once more on its way out).
    pub fn shutdown(self) -> Finished {
        let exits = self.runtime.shutdown();
        let mut reports = exits.into_iter().map(ExitReport::from);
        let a = reports.next().unwrap_or_default();
        let mut b = reports.next().unwrap_or_default();
        b.published_since_spawn = b.published.saturating_sub(self.published_b_at_spawn);
        Finished {
            a,
            b,
            final_b: FinalSnapshot(self.handle_b.load_slow()),
            bus: bus_counters(&self.bus),
        }
    }
}

/// One agent's `AgentExit`, reduced to what the checks and metrics use.
#[derive(Debug, Clone, Default)]
pub struct ExitReport {
    pub cached_sessions: usize,
    pub error: Option<String>,
    pub published: u64,
    pub published_since_spawn: u64,
    pub last_rows: usize,
    directory_telemetry: String,
    runtime_telemetry: String,
}

impl From<AgentExit> for ExitReport {
    fn from(e: AgentExit) -> ExitReport {
        ExitReport {
            cached_sessions: e.cached_sessions,
            error: e.error,
            published: e.snapshot_stats.published,
            published_since_spawn: 0,
            last_rows: e.snapshot_stats.last_rows,
            directory_telemetry: e.directory_telemetry,
            runtime_telemetry: e.runtime_telemetry,
        }
    }
}

impl ExitReport {
    /// A protocol counter from the directory's telemetry snapshot
    /// (`net.rx_packets`, `governor.rate_limited`, …).
    pub fn directory_counter(&self, name: &str) -> u64 {
        json_counter(&self.directory_telemetry, name)
    }

    /// A `runtime.*` counter from the driver's telemetry snapshot.
    pub fn runtime_counter(&self, name: &str) -> u64 {
        json_counter(&self.runtime_telemetry, name)
    }
}

/// Read `"name": <integer>` out of a telemetry snapshot; 0 if absent.
fn json_counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    json.find(&needle)
        .map(|at| &json[at + needle.len()..])
        .and_then(|rest| {
            let digits: &str = &rest[..rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len())];
            digits.parse().ok()
        })
        .unwrap_or(0)
}

pub struct Finished {
    pub a: ExitReport,
    pub b: ExitReport,
    pub final_b: FinalSnapshot,
    pub bus: BusCounters,
}

/// B's last published snapshot, owned.
pub struct FinalSnapshot(Arc<DirectorySnapshot>);

impl FinalSnapshot {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The group of `(origin, id)`, if cached.
    pub fn group_of(&self, origin: Ipv4Addr, id: u64) -> Option<Ipv4Addr> {
        self.0.get(origin, id).map(|r| r.group)
    }

    pub fn corrupt_rows(&self) -> usize {
        self.0.corrupt_rows()
    }
}

/// `SnapshotReader`: one per query thread.
pub struct Reader(SnapshotReader);

impl Reader {
    /// `SnapshotReader::load`: pin and borrow the current snapshot.
    pub fn load(&mut self) -> Snap<'_> {
        Snap(self.0.load())
    }
}

/// A pinned borrow of one published `DirectorySnapshot`.
pub struct Snap<'a>(Guard<'a, DirectorySnapshot>);

impl Snap<'_> {
    pub fn version(&self) -> u64 {
        self.0.version()
    }

    pub fn published_at_ns(&self) -> u64 {
        self.0.published_at().as_nanos()
    }

    /// `DirectorySnapshot::staleness` at `now_ns`, in ns.
    pub fn staleness_ns(&self, now_ns: u64) -> u64 {
        self.0.staleness(SimTime::from_nanos(now_ns)).as_nanos()
    }

    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.0.len()
    }

    /// `DirectorySnapshot::get`.
    pub fn has(&self, origin: Ipv4Addr, id: u64) -> bool {
        self.0.get(origin, id).is_some()
    }

    /// `DirectorySnapshot::group_in_use`.
    pub fn group_in_use(&self, group: Ipv4Addr) -> bool {
        self.0.group_in_use(group)
    }

    /// `DirectorySnapshot::matching(keyword).count()`.
    pub fn matching(&self, keyword: &str) -> usize {
        self.0.matching(keyword).count()
    }

    /// `DirectorySnapshot::corrupt_rows`.
    pub fn corrupt_rows(&self) -> usize {
        self.0.corrupt_rows()
    }
}

/// How `SessionDirectory::on_packet` disposed of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The returned events were a lone `Heard(Refreshed)` and nothing
    /// was sent: the fast path.
    Refreshed,
    /// `Heard(New)` with no clash.
    New,
    /// At least one clash event.
    Clash,
    /// Anything else: dropped, refused, deleted, stale, modified.
    Other,
}

/// A third, single-threaded directory pre-loaded like A and B: the
/// bench for the per-layer micro timings.
pub struct Lab {
    dir: SessionDirectory,
    rng: SimRng,
    clock: WallClock,
    space: AddrSpace,
    view: Vec<VisibleSession>,
    publisher: SnapshotPublisher,
}

impl Lab {
    pub fn build(fx: &Fixture, table: &PacketTable, governor_max_entries: Option<usize>) -> Lab {
        let cfg = directory_config(HOST_MICRO, governor_max_entries);
        let space = cfg.space;
        let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        dir.set_telemetry_identity(2, 0);
        let clock = WallClock::new();
        let mut rng = SimRng::new(0x1ab);
        preload_directory(&mut dir, clock.now(), &mut rng, table.preload(fx));
        let view = dir.current_view();
        let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
        publisher.publish(clock.now(), &dir);
        Lab {
            dir,
            rng,
            clock,
            space,
            view,
            publisher,
        }
    }

    #[cfg(test)]
    pub fn cached(&self) -> usize {
        self.dir.cached_sessions()
    }

    /// `SessionDirectory::on_packet`.
    pub fn on_packet(&mut self, pkt: &Packet) -> Disposition {
        let now = self.clock.now();
        let (replies, events) = self.dir.on_packet(now, &pkt.0, &mut self.rng);
        if events
            .iter()
            .any(|e| matches!(e, DirectoryEvent::Clash { .. }))
        {
            return Disposition::Clash;
        }
        match (replies.is_empty(), events.as_slice()) {
            (true, [DirectoryEvent::Heard(CacheUpdate::Refreshed)]) => Disposition::Refreshed,
            (true, [DirectoryEvent::Heard(CacheUpdate::New)]) => Disposition::New,
            _ => Disposition::Other,
        }
    }

    /// `SessionDirectory::set_telemetry_enabled`.
    pub fn set_telemetry(&mut self, on: bool) {
        self.dir.set_telemetry_enabled(on);
    }

    /// A protocol counter of this directory.
    #[cfg(test)]
    pub fn counter(&self, name: &str) -> u64 {
        json_counter(&self.dir.telemetry_snapshot_json(), name)
    }

    /// `SessionDirectory::create_session`.
    pub fn create(&mut self, name: &str, ttl: u8) -> Option<u64> {
        let now = self.clock.now();
        self.dir
            .create_session(now, name, ttl, media(), &mut self.rng)
            .ok()
    }

    /// `SessionDirectory::withdraw_session`.
    pub fn withdraw(&mut self, id: u64) -> bool {
        self.dir.withdraw_session(id).is_some()
    }

    /// `SessionDirectory::poll`; returns packets emitted.
    pub fn poll(&mut self) -> usize {
        let now = self.clock.now();
        self.dir.poll(now).len()
    }

    /// `SessionDirectory::current_view`.
    pub fn current_view(&self) -> usize {
        self.dir.current_view().len()
    }

    /// `InformedRandomAllocator::allocate` over a view taken at build.
    pub fn allocate(&mut self, ttl: u8) -> bool {
        InformedRandomAllocator
            .allocate(&self.space, ttl, &View::new(&self.view), &mut self.rng)
            .is_some()
    }

    /// `DirectorySnapshot::capture`.  The snapshot is handed back so
    /// the caller can drop it outside the timed region.
    pub fn capture(&self) -> Captured {
        Captured(DirectorySnapshot::capture(1, self.clock.now(), &self.dir))
    }

    /// `SnapshotPublisher::publish` (capture + swap).
    pub fn publish(&mut self) {
        self.publisher.publish(self.clock.now(), &self.dir);
    }

    pub fn reader(&self) -> Reader {
        Reader(self.publisher.handle().reader())
    }
}

/// An unpublished `DirectorySnapshot`.
pub struct Captured(DirectorySnapshot);

impl Captured {
    pub fn rows(&self) -> usize {
        self.0.len()
    }
}

/// A bare `AnnouncementCache` pre-loaded with the residents, for the
/// `cache.*` timings (the directory only lends its cache read-only).
pub struct CacheLab {
    cache: AnnouncementCache,
    now: SimTime,
}

impl CacheLab {
    pub fn build(table: &PacketTable) -> CacheLab {
        let mut lab = CacheLab {
            cache: AnnouncementCache::new(SimDuration::from_hours(1)),
            now: SimTime::from_secs(1),
        };
        for p in table.residents() {
            if let Some(d) = p.parse() {
                lab.observe(&d);
            }
        }
        lab
    }

    /// `AnnouncementCache::observe_announce_ref`; true when it was a
    /// refresh, false for new/modified/stale.
    pub fn observe(&mut self, d: &Parsed<'_>) -> bool {
        self.now += SimDuration::from_nanos(1_000);
        self.cache.observe_announce_ref(self.now, &d.0) == CacheUpdate::Refreshed
    }

    /// `AnnouncementCache::observe_delete`.
    pub fn delete(&mut self, origin: Ipv4Addr, id: u64) -> bool {
        self.cache.observe_delete(origin, id)
    }

    /// `AnnouncementCache::get`.
    pub fn has(&self, origin: Ipv4Addr, id: u64) -> bool {
        self.cache.get(origin, id).is_some()
    }

    /// `AnnouncementCache::group_in_use`.
    pub fn group_in_use(&self, group: Ipv4Addr) -> bool {
        self.cache.group_in_use(group)
    }
}

/// A bare `ShardedTimerQueue` shaped like the directory's (TTL bands +
/// control shard).
pub struct TimerLab {
    queue: ShardedTimerQueue<u64>,
    scratch: Vec<(SimTime, u64)>,
}

impl TimerLab {
    pub fn new() -> TimerLab {
        TimerLab {
            queue: ShardedTimerQueue::new(sdalloc_sap::TTL_BANDS + 1),
            scratch: Vec::new(),
        }
    }

    /// `ShardedTimerQueue::schedule`.
    pub fn schedule(&mut self, shard: usize, due_ns: u64, key: u64) {
        self.queue.schedule(shard, SimTime::from_nanos(due_ns), key);
    }

    /// `ShardedTimerQueue::drain_due`; returns timers fired.
    pub fn drain_due(&mut self, now_ns: u64) -> usize {
        self.scratch.clear();
        self.queue
            .drain_due(SimTime::from_nanos(now_ns), &mut self.scratch);
        self.scratch.len()
    }
}

/// A private three-endpoint bus, the shape of the real one (a sender
/// and two receivers), for the `bus.*` timings.
pub struct BusLab {
    tx: BusEndpoint,
    rx: [BusEndpoint; 2],
}

impl BusLab {
    pub fn new() -> BusLab {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let bus = LoopbackBus::new(clock, 1, FaultPlan::new());
        let rx = [bus.endpoint(), bus.endpoint()];
        BusLab {
            tx: bus.endpoint(),
            rx,
        }
    }

    /// `BusEndpoint::send`: encode + one clone per receiver.
    pub fn send(&self, pkt: &Packet) {
        let _ = self.tx.send(&pkt.0);
    }

    /// `BusEndpoint::recv(0)` on receiver `i`.
    pub fn recv(&self, i: usize) -> bool {
        matches!(self.rx[i].recv(Duration::ZERO), Ok(Some(_)))
    }
}

/// One `SapSocket` hearing itself over multicast loopback.
pub struct UdpLab(SapSocket);

impl UdpLab {
    /// `SapSocket::open` on the SAP group at `port`; `None` when the
    /// host has no usable multicast.
    pub fn open(port: u16) -> Option<UdpLab> {
        SapSocket::open(sdalloc_sap::SAP_GROUP, port, 1)
            .ok()
            .map(UdpLab)
    }

    /// `SapSocket::send`.
    pub fn send(&self, pkt: &Packet) -> bool {
        self.0.send(&pkt.0).is_ok()
    }

    /// `SapSocket::recv_timeout`.
    pub fn recv(&self, timeout: Duration) -> bool {
        matches!(self.0.recv_timeout(timeout), Ok(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Kind, DS2_TTLS};

    #[test]
    fn ds2_matches_the_products_distribution() {
        assert_eq!(
            sdalloc_topology::TtlDistribution::ds2().values(),
            &DS2_TTLS[..]
        );
    }

    #[test]
    fn counters_are_read_out_of_telemetry_json() {
        let json = "{\n  \"counters\": {\"net.rx_packets\": 42, \"governor.rate_limited\": 7},\n  \"gauges\": {\"cache.size\": 3}\n}";
        assert_eq!(json_counter(json, "net.rx_packets"), 42);
        assert_eq!(json_counter(json, "governor.rate_limited"), 7);
        assert_eq!(json_counter(json, "cache.size"), 3);
        assert_eq!(json_counter(json, "absent"), 0);
    }

    #[test]
    fn preloaded_agents_hold_the_fixture_and_publish_it() {
        let fx = Fixture::generate(Kind::Churn, 2_000, 3);
        let table = PacketTable::build(&fx);
        let agents = Agents::build(&fx, &table, 3, None);
        let want = fx.residents.len() + fx.pool_live_at_start.len();
        assert_eq!(agents.cached(), (want, want));
        let running = agents.spawn().expect("spawn");
        let mut reader = running.reader_b();
        let snap = reader.load();
        assert_eq!(snap.rows(), want);
        let r = &fx.residents[17];
        assert!(snap.has(r.origin, r.id));
        assert!(snap.group_in_use(r.group));
        assert_eq!(snap.corrupt_rows(), 0);
        drop(snap);
        let done = running.shutdown();
        assert_eq!(done.b.error, None);
        assert_eq!(done.final_b.len(), want);
        assert_eq!(done.final_b.group_of(r.origin, r.id), Some(r.group));
    }

    #[test]
    fn lab_classifies_refresh_new_and_unparseable() {
        let fx = Fixture::generate(Kind::Storm, 1_000, 5);
        let table = PacketTable::build(&fx);
        let mut lab = Lab::build(&fx, &table, Some(1_200));
        assert_eq!(lab.cached(), 1_000);
        assert_eq!(
            lab.on_packet(table.get(Op::Refresh(3))),
            Disposition::Refreshed
        );
        assert_eq!(lab.on_packet(table.get(Op::Forged(0))), Disposition::New);
        assert_eq!(
            lab.on_packet(table.get(Op::Unparseable(0))),
            Disposition::Other
        );
        assert_eq!(lab.counter("net.rx_unparseable"), 1);
    }
}
