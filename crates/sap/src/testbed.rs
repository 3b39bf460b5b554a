//! An in-memory SAP testbed: several [`SessionDirectory`] instances
//! joined by an impaired multicast channel, driven by the discrete-event
//! simulator.
//!
//! This is the harness behind the clash-recovery demonstrations and the
//! integration tests: every packet any directory emits is fanned out to
//! every other directory through a [`Channel`] (loss + delay), exactly
//! like a flat SAP scope.  Network partitions can be injected and healed
//! to reproduce the Section 3 scenarios ("existing sessions can only be
//! disrupted by other existing sessions that had not been known due to
//! network partitioning").
//!
//! Beyond hand-driven `partition`/`heal` calls, a seeded
//! [`FaultPlan`] can be installed with [`Testbed::with_faults`] to
//! replay timed fault scenarios — burst-loss windows, zone partitions
//! that heal on schedule, node crashes with cache-losing restarts,
//! per-node clock skew, forged announcement storms, and packet
//! corruption (truncation/bit-flips/garbage) that must pass back
//! through the real [`SapPacket::decode`] to be delivered at all.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use sdalloc_core::Allocator;
use sdalloc_sim::{Channel, FaultPlan, SimContext, SimRng, SimTime, Simulator, Transmission};

use crate::directory::{DirectoryConfig, DirectoryEvent, SessionDirectory};
use crate::sdp::{Origin, SessionDescription};
use crate::wire::{corrupt_in_flight, msg_id_hash, trace_emission, SapPacket};

/// Sender index used for forged storm packets: matches no real node, so
/// it is never partitioned away and never equals a recipient.
const PHANTOM_SENDER: usize = usize::MAX;

/// Events flowing through the testbed simulator.
#[derive(Debug, Clone)]
enum Event {
    /// Deliver a packet to directory `to`.
    Deliver { to: usize, pkt: SapPacket },
    /// A packet reached `to`'s socket but died before decode
    /// (corruption mangled it past recognition); only the drop counter
    /// arrives.
    DeliverDropped { to: usize },
    /// Give directory `node` a chance to run its timers.
    Wakeup { node: usize },
    /// Take a directory down: it neither sends nor receives until its
    /// Restart (if any) fires.
    Crash { node: usize },
    /// Bring a crashed directory back with an empty cache.
    Restart { node: usize },
    /// Inject a burst of forged third-party announcements.
    Storm { index: usize, packets: u32 },
}

/// A record of something that happened, for assertions and demos.
#[derive(Debug, Clone)]
pub struct LoggedEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which directory it happened at.
    pub node: usize,
    /// What happened.
    pub event: DirectoryEvent,
}

/// The testbed.
pub struct Testbed {
    sim: Simulator<Event>,
    directories: Vec<SessionDirectory>,
    channel: Channel,
    rng: SimRng,
    /// Directed pairs (from, to) whose packets are currently dropped.
    blocked: HashSet<(usize, usize)>,
    /// Timed fault scenario composed on top of `channel` and `blocked`.
    faults: FaultPlan,
    /// Everything the directories reported.
    pub log: Vec<LoggedEvent>,
    /// Restarts that have fired, as `(at, node)` — for measuring cache
    /// rebuild times in chaos experiments.
    pub restarts: Vec<(SimTime, usize)>,
    /// Per-node down flag, flipped by Crash/Restart events (replacing
    /// per-packet scans over the fault plan's crash windows).
    down: Vec<bool>,
    /// The earliest pending Wakeup per node (global time), so a node
    /// whose deadline is already covered is not flooded with redundant
    /// wakeups — the core of wake-on-deadline: a node only enters the
    /// event queue when something of its is actually due.
    wake_at: Vec<Option<SimTime>>,
    /// Optional byte trace of every packet a directory *emits*
    /// (`global-time-nanos ‖ node ‖ encoded packet`), recorded before
    /// fan-out so loss and corruption downstream do not perturb it.
    /// Enabled by [`Self::enable_packet_trace`]; the differential tests
    /// fingerprint this against the threaded runtime's loopback-bus
    /// trace to pin byte-identical behaviour across the two drivers.
    trace: Option<Vec<u8>>,
}

/// Schedule a wakeup for `node` at global time `at` unless an earlier or
/// equal one is already pending.  Superseded later wakeups are not
/// cancelled; firing one finds nothing due and is a no-op.
#[expect(
    clippy::indexing_slicing,
    reason = "test harness: instance ids are dense indices issued by this testbed"
)]
fn schedule_wake(
    ctx: &mut SimContext<Event>,
    wake_at: &mut [Option<SimTime>],
    node: usize,
    at: SimTime,
) {
    if let Some(pending) = wake_at[node] {
        if pending <= at {
            return;
        }
    }
    wake_at[node] = Some(at);
    ctx.schedule_at(at, Event::Wakeup { node });
}

impl Testbed {
    /// Build a testbed of directories with the given configs and
    /// allocator factory, joined by `channel`.
    pub fn new(
        configs: Vec<DirectoryConfig>,
        mut make_allocator: impl FnMut() -> Box<dyn Allocator>,
        channel: Channel,
        seed: u64,
    ) -> Self {
        let directories: Vec<SessionDirectory> = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                let mut d = SessionDirectory::new(cfg, make_allocator());
                d.set_telemetry_identity(i as u32, seed);
                d
            })
            .collect();
        let n = directories.len();
        Testbed {
            sim: Simulator::new(),
            directories,
            channel,
            rng: SimRng::new(seed),
            blocked: HashSet::new(),
            faults: FaultPlan::new(),
            log: Vec::new(),
            restarts: Vec::new(),
            down: vec![false; n],
            wake_at: vec![None; n],
            trace: None,
        }
    }

    /// Start recording every directory emission into a byte trace (see
    /// the `trace` field).  Call before the first [`Self::run_until`].
    pub fn enable_packet_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded packet trace, leaving recording enabled.
    pub fn take_packet_trace(&mut self) -> Vec<u8> {
        self.trace.replace(Vec::new()).unwrap_or_default()
    }

    /// Install a fault plan, scheduling its timed events (crashes,
    /// restarts, storms).  Call before the first [`Self::run_until`];
    /// the plan's *windows* (loss, partitions, corruption) are consulted
    /// per packet as the simulation runs, while crashes and restarts are
    /// ordinary simulator events that flip the node's up/down flag and
    /// reschedule its timers.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let ctx = self.sim.context();
        for crash in &plan.crashes {
            ctx.schedule_at(crash.at, Event::Crash { node: crash.node });
            if let Some(at) = crash.restart_at {
                ctx.schedule_at(at, Event::Restart { node: crash.node });
            }
        }
        for (index, storm) in plan.storms.iter().enumerate() {
            ctx.schedule_at(
                storm.at,
                Event::Storm {
                    index,
                    packets: storm.packets,
                },
            );
        }
        self.faults = plan;
        self
    }

    /// Number of directories.
    pub fn len(&self) -> usize {
        self.directories.len()
    }

    /// Whether the testbed is empty.
    pub fn is_empty(&self) -> bool {
        self.directories.is_empty()
    }

    /// Access a directory.
    #[expect(
        clippy::indexing_slicing,
        reason = "test harness: panicking on a bad instance id is the desired failure mode"
    )]
    pub fn directory(&self, node: usize) -> &SessionDirectory {
        &self.directories[node]
    }

    /// Mutable access (e.g. to create sessions).  Remember to call
    /// [`Self::kick`] afterwards so the new session's announcements get
    /// scheduled.
    #[expect(
        clippy::indexing_slicing,
        reason = "test harness: panicking on a bad instance id is the desired failure mode"
    )]
    pub fn directory_mut(&mut self, node: usize) -> &mut SessionDirectory {
        &mut self.directories[node]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The shared RNG (for creating sessions deterministically).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Enable or disable telemetry recording on every node.
    pub fn set_telemetry_enabled(&mut self, on: bool) {
        for d in &mut self.directories {
            d.set_telemetry_enabled(on);
        }
    }

    /// Deterministic per-node telemetry snapshots as one JSON array,
    /// node order.  Byte-identical across runs for a fixed seed and
    /// schedule (pinned by `tests/event_driven.rs`).
    pub fn telemetry_json(&self) -> String {
        let mut s = String::from("[\n");
        let n = self.directories.len();
        for (i, d) in self.directories.iter().enumerate() {
            let snap = d.telemetry_snapshot_json();
            s.push_str(snap.trim_end());
            s.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("]\n");
        s
    }

    /// Post-mortem flight-recorder dumps, one JSON document per node,
    /// stamped with `reason`.  Call when a chaos scenario or property
    /// check fails.
    pub fn flight_dump(&self, reason: &str) -> Vec<String> {
        self.directories
            .iter()
            .map(|d| d.flight_dump_json(reason))
            .collect()
    }

    /// Partition two nodes from each other (both directions).
    pub fn partition(&mut self, a: usize, b: usize) {
        self.blocked.insert((a, b));
        self.blocked.insert((b, a));
    }

    /// Block one direction only: packets from `from` no longer reach
    /// `to` — the transport-level analogue of the paper's TTL-scoping
    /// asymmetry, where A's announcements miss B while B's traffic can
    /// still collide with A's.
    pub fn block_direction(&mut self, from: usize, to: usize) {
        self.blocked.insert((from, to));
    }

    /// Heal a partition (both directions).
    pub fn heal(&mut self, a: usize, b: usize) {
        self.blocked.remove(&(a, b));
        self.blocked.remove(&(b, a));
    }

    /// Schedule a wakeup for `node` at its next deadline (call after
    /// creating sessions or any out-of-band mutation).
    #[expect(
        clippy::indexing_slicing,
        reason = "test harness: panicking on a bad instance id is the desired failure mode"
    )]
    pub fn kick(&mut self, node: usize) {
        if let Some(at) = self.directories[node].next_deadline() {
            let at = self.faults.global_time(node, at).max(self.sim.now());
            schedule_wake(self.sim.context(), &mut self.wake_at, node, at);
        }
    }

    /// Run the testbed until `horizon`.
    ///
    /// Wake-on-deadline: a node enters the event queue only when its
    /// directory reports a due deadline ([`SessionDirectory::next_deadline`])
    /// or a packet arrives for it; nothing polls idle nodes.  Crashes
    /// and restarts are events that stop and re-prime a node's timer
    /// chain rather than per-packet window checks.
    #[expect(
        clippy::indexing_slicing,
        reason = "test harness: instance ids are dense indices issued by this testbed"
    )]
    pub fn run_until(&mut self, horizon: SimTime) {
        // Split borrows for the closure.
        let directories = &mut self.directories;
        let channel = &self.channel;
        let rng = &mut self.rng;
        let blocked = &self.blocked;
        let faults = &self.faults;
        let log = &mut self.log;
        let restarts = &mut self.restarts;
        let down = &mut self.down;
        let wake_at = &mut self.wake_at;
        let trace = &mut self.trace;
        self.sim.run_until(horizon, &mut |ctx, event| match event {
            Event::Wakeup { node } => {
                let now = ctx.now();
                // Clear the pending marker first: even a wake that finds
                // the node down must not block later reschedules.
                if wake_at[node] == Some(now) {
                    wake_at[node] = None;
                }
                if down[node] {
                    // Crashed: timers stop; the Restart event (if any)
                    // re-primes the wakeup chain.
                    return;
                }
                let lnow = faults.local_time(node, now);
                let pkts = directories[node].poll(lnow);
                for pkt in pkts {
                    trace_emission(trace, now, node, &pkt);
                    fan_out(ctx, channel, faults, rng, blocked, down, node, pkt);
                }
                if let Some(at) = directories[node].next_deadline() {
                    let at = faults.global_time(node, at).max(now);
                    schedule_wake(ctx, wake_at, node, at);
                }
            }
            Event::Deliver { to, pkt } => {
                let now = ctx.now();
                if down[to] {
                    return; // packets to a crashed node vanish
                }
                let lnow = faults.local_time(to, now);
                let (replies, events) = directories[to].on_packet(lnow, &pkt, rng);
                for e in events {
                    log.push(LoggedEvent {
                        at: now,
                        node: to,
                        event: e,
                    });
                }
                for reply in replies {
                    trace_emission(trace, now, to, &reply);
                    fan_out(ctx, channel, faults, rng, blocked, down, to, reply);
                }
                if let Some(at) = directories[to].next_deadline() {
                    let at = faults.global_time(to, at).max(now);
                    schedule_wake(ctx, wake_at, to, at);
                }
            }
            Event::DeliverDropped { to } => {
                if down[to] {
                    return; // a crashed node has no socket to count on
                }
                let lnow = faults.local_time(to, ctx.now());
                directories[to].note_rx_dropped(lnow);
            }
            Event::Crash { node } => {
                down[node] = true;
            }
            Event::Restart { node } => {
                let now = ctx.now();
                down[node] = false;
                restarts.push((now, node));
                let lnow = faults.local_time(node, now);
                directories[node].restart(lnow);
                if let Some(at) = directories[node].next_deadline() {
                    let at = faults.global_time(node, at).max(now);
                    schedule_wake(ctx, wake_at, node, at);
                }
            }
            Event::Storm { index, packets } => {
                for i in 0..packets {
                    let pkt = forge_storm_packet(index, i, rng);
                    fan_out(
                        ctx,
                        channel,
                        faults,
                        rng,
                        blocked,
                        down,
                        PHANTOM_SENDER,
                        pkt,
                    );
                }
            }
        });
    }
}

/// Forge one storm announcement from a phantom site (TEST-NET-2
/// addresses), with a random group — the kind of traffic a buggy or
/// hostile announcer would flood the SAP group with.
fn forge_storm_packet(storm: usize, i: u32, rng: &mut SimRng) -> SapPacket {
    let origin = Ipv4Addr::new(198, 51, 100, 1 + ((storm as u32 * 17 + i) % 250) as u8);
    let group = Ipv4Addr::new(224, 2, rng.below(128) as u8, rng.below(256) as u8);
    let desc = SessionDescription {
        origin: Origin {
            username: "-".into(),
            // Distinct per (storm, packet) so each forgery is a fresh
            // cache entry, maximising cache pressure.
            session_id: 0x5701_0000 + (storm as u64) * 0x1_0000 + i as u64,
            version: 1,
            address: origin,
        },
        name: format!("storm-{storm}-{i}"),
        info: None,
        group,
        ttl: 127,
        start: 0,
        stop: 0,
        media: vec![],
    };
    let payload = desc.format();
    SapPacket::announce(origin, msg_id_hash(&payload), payload)
}

/// Fan a packet out to every other node through the channel, under the
/// fault plan: partition cuts, crashed recipients, burst loss, and
/// corruption ([`corrupt_in_flight`]) all apply per (link, packet).
#[allow(
    clippy::too_many_arguments,
    reason = "takes the testbed field by field so the caller keeps `directories` borrowed"
)]
fn fan_out(
    ctx: &mut SimContext<Event>,
    channel: &Channel,
    faults: &FaultPlan,
    rng: &mut SimRng,
    blocked: &HashSet<(usize, usize)>,
    down: &[bool],
    from: usize,
    pkt: SapPacket,
) {
    let now = ctx.now();
    for (to, &to_down) in down.iter().enumerate() {
        if to == from {
            continue;
        }
        if blocked.contains(&(from, to)) {
            continue;
        }
        if !faults.delivers(now, from, to) || to_down {
            continue;
        }
        let extra = faults.extra_drop(now);
        if extra > 0.0 && rng.chance(extra) {
            continue;
        }
        match channel.transmit(rng) {
            Transmission::Lost => {}
            Transmission::Delivered(delay) => {
                let event = match corrupt_in_flight(&pkt, faults, now, rng) {
                    Some(pkt) => Event::Deliver { to, pkt },
                    None => Event::DeliverDropped { to },
                };
                ctx.schedule_after(delay, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdp::Media;
    use sdalloc_core::{AddrSpace, InformedRandomAllocator};
    use sdalloc_sim::SimDuration;
    use std::net::Ipv4Addr;

    fn testbed(n: usize, seed: u64) -> Testbed {
        let configs: Vec<DirectoryConfig> = (0..n)
            .map(|i| {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
                cfg.space = AddrSpace::abstract_space(256);
                cfg
            })
            .collect();
        Testbed::new(
            configs,
            || Box::new(InformedRandomAllocator),
            Channel::perfect(SimDuration::from_millis(50)),
            seed,
        )
    }

    fn media() -> Vec<Media> {
        vec![Media {
            kind: "audio".into(),
            port: 5004,
            proto: "RTP/AVP".into(),
            format: 0,
        }]
    }

    #[test]
    fn announcements_propagate() {
        let mut tb = testbed(3, 1);
        let now = tb.now();
        let mut rng = SimRng::new(99);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(1));
        assert_eq!(tb.directory(1).cached_sessions(), 1);
        assert_eq!(tb.directory(2).cached_sessions(), 1);
    }

    #[test]
    fn sequential_allocations_avoid_each_other() {
        let mut tb = testbed(4, 2);
        for node in 0..4 {
            let now = tb.now();
            let mut rng = tb.rng().fork();
            tb.directory_mut(node)
                .create_session(now, "s", 127, media(), &mut rng)
                .unwrap();
            tb.kick(node);
            // Let the announcement settle before the next allocation.
            let horizon = tb.now() + SimDuration::from_secs(2);
            tb.run_until(horizon);
        }
        let groups: HashSet<Ipv4Addr> = (0..4)
            .flat_map(|n| {
                tb.directory(n)
                    .own_sessions()
                    .map(|(_, s)| s.desc.group)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(groups.len(), 4, "all four sessions on distinct groups");
    }

    #[test]
    fn partition_causes_clash_then_heals() {
        // Two nodes partitioned from each other pick addresses blindly
        // from a tiny space until they collide; healing the partition
        // triggers detection and recovery, ending with distinct groups.
        let configs: Vec<DirectoryConfig> = (0..2)
            .map(|i| {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
                cfg.space = AddrSpace::abstract_space(2); // collide quickly
                cfg
            })
            .collect();
        let mut tb = Testbed::new(
            configs,
            || Box::new(InformedRandomAllocator),
            Channel::perfect(SimDuration::from_millis(50)),
            3,
        );
        tb.partition(0, 1);
        // Both allocate while deaf to each other; with a 2-address space
        // and different seeds they may or may not collide — force it by
        // trying seeds until the groups match.
        let mut rng0 = SimRng::new(7);
        let mut rng1 = SimRng::new(8);
        loop {
            let now = tb.now();
            let id0 = tb
                .directory_mut(0)
                .create_session(now, "a", 127, media(), &mut rng0)
                .unwrap();
            let id1 = tb
                .directory_mut(1)
                .create_session(now, "b", 127, media(), &mut rng1)
                .unwrap();
            let g0 = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
            let g1 = tb.directory(1).own_sessions().next().unwrap().1.desc.group;
            if g0 == g1 {
                break;
            }
            tb.directory_mut(0).withdraw_session(id0);
            tb.directory_mut(1).withdraw_session(id1);
        }
        tb.kick(0);
        tb.kick(1);
        let horizon = tb.now() + SimDuration::from_secs(30);
        tb.run_until(horizon);
        // Still clashing (they can't hear each other).
        let g0 = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
        let g1 = tb.directory(1).own_sessions().next().unwrap().1.desc.group;
        assert_eq!(g0, g1);

        // Heal; the next announcements collide, phases 1/2 resolve it.
        tb.heal(0, 1);
        let horizon = tb.now() + SimDuration::from_secs(1_300);
        tb.run_until(horizon);
        let g0 = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
        let g1 = tb.directory(1).own_sessions().next().unwrap().1.desc.group;
        assert_ne!(g0, g1, "clash not resolved after heal");
        assert!(
            tb.log
                .iter()
                .any(|e| matches!(e.event, DirectoryEvent::Moved { .. })),
            "no session moved: {:?}",
            tb.log
        );
    }

    #[test]
    fn heavy_loss_still_converges_via_backoff() {
        // 20% loss: the exponential back-off's early repeats push the
        // announcement through within a couple of minutes.
        let configs: Vec<DirectoryConfig> = (0..3)
            .map(|i| {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
                cfg.space = AddrSpace::abstract_space(256);
                cfg
            })
            .collect();
        let mut tb = Testbed::new(
            configs,
            || Box::new(InformedRandomAllocator),
            Channel {
                loss: sdalloc_sim::LossModel::new(0.20),
                delay: sdalloc_sim::DelayModel::Constant(SimDuration::from_millis(150)),
            },
            77,
        );
        let now = tb.now();
        let mut rng = SimRng::new(78);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(180));
        assert_eq!(tb.directory(1).cached_sessions(), 1);
        assert_eq!(tb.directory(2).cached_sessions(), 1);
    }

    #[test]
    fn asymmetric_block_resolved_by_third_party() {
        // A cannot hear B (one-way block), so when B later lands on A's
        // address, A would never notice — but C hears both and either
        // side's defence flows through the open directions.
        let configs: Vec<DirectoryConfig> = (0..3)
            .map(|i| {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
                cfg.space = AddrSpace::abstract_space(2);
                cfg
            })
            .collect();
        let mut tb = Testbed::new(
            configs,
            || Box::new(InformedRandomAllocator),
            Channel::perfect(SimDuration::from_millis(40)),
            79,
        );
        // B deaf to A (so B can collide) and A deaf to B (so only third-
        // party relay can inform A's side of the world).
        tb.block_direction(0, 1);
        tb.block_direction(1, 0);
        let mut rng_a = SimRng::new(80);
        let now = tb.now();
        tb.directory_mut(0)
            .create_session(now, "alpha", 127, media(), &mut rng_a)
            .unwrap();
        let group_a = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
        tb.kick(0);
        tb.run_until(SimTime::from_secs(2));
        // B collides.
        let mut rng_b = SimRng::new(81);
        loop {
            let now = tb.now();
            let id = tb
                .directory_mut(1)
                .create_session(now, "beta", 127, media(), &mut rng_b)
                .unwrap();
            let g = tb.directory(1).own_sessions().next().unwrap().1.desc.group;
            if g == group_a {
                break;
            }
            tb.directory_mut(1).withdraw_session(id);
        }
        tb.kick(1);
        let horizon = tb.now() + SimDuration::from_secs(120);
        tb.run_until(horizon);
        let ga = tb.directory(0).own_sessions().next().unwrap().1.desc.group;
        let gb = tb.directory(1).own_sessions().next().unwrap().1.desc.group;
        assert_ne!(ga, gb, "asymmetric clash unresolved");
        assert_eq!(ga, group_a, "the incumbent should keep its address");
    }

    #[test]
    fn fault_plan_partition_cuts_and_heals_on_schedule() {
        let mut tb = testbed(2, 11).with_faults(FaultPlan::new().with_partition(
            SimTime::ZERO,
            SimTime::from_secs(60),
            vec![0],
            vec![1],
        ));
        let now = tb.now();
        let mut rng = SimRng::new(12);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(59));
        assert_eq!(tb.directory(1).cached_sessions(), 0, "partition holds");
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.directory(1).cached_sessions(), 1, "heal lets it through");
    }

    #[test]
    fn crash_loses_cache_and_restart_reannounces() {
        let mut tb = testbed(2, 13).with_faults(FaultPlan::new().with_crash(
            1,
            SimTime::from_secs(30),
            Some(SimTime::from_secs(60)),
        ));
        let now = tb.now();
        let mut rng = SimRng::new(14);
        // Node 1 announces; node 0 hears it.  Node 1 then crashes and
        // restarts with an empty cache but keeps announcing its session.
        tb.directory_mut(1)
            .create_session(now, "survivor", 127, media(), &mut rng)
            .unwrap();
        tb.kick(1);
        tb.run_until(SimTime::from_secs(29));
        assert_eq!(tb.directory(0).cached_sessions(), 1);
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.restarts, vec![(SimTime::from_secs(60), 1)]);
        // Re-announcement after restart refreshed node 0's entry.
        let heard_after_restart = tb.log.iter().any(|e| {
            e.node == 0
                && e.at > SimTime::from_secs(60)
                && matches!(e.event, DirectoryEvent::Heard(_))
        });
        assert!(heard_after_restart, "restarted node must re-announce");
    }

    #[test]
    fn storm_fills_caches_without_breaking_real_traffic() {
        let mut tb =
            testbed(2, 15).with_faults(FaultPlan::new().with_storm(SimTime::from_secs(5), 40));
        let now = tb.now();
        let mut rng = SimRng::new(16);
        tb.directory_mut(0)
            .create_session(now, "real", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(30));
        // The forged sessions landed in the caches …
        assert!(tb.directory(1).cached_sessions() > 30, "storm cached");
        // … and the real announcement still made it through.
        assert!(
            tb.log
                .iter()
                .any(|e| e.node == 1 && matches!(e.event, DirectoryEvent::Heard(_))),
            "real traffic survives the storm"
        );
    }

    #[test]
    fn corruption_window_thins_but_does_not_stop_traffic() {
        // Garbage corruption with p=1 kills every packet in the window;
        // after it closes announcements flow again.
        let mut tb = testbed(2, 17).with_faults(FaultPlan::new().with_corruption(
            SimTime::ZERO,
            SimTime::from_secs(40),
            1.0,
            sdalloc_sim::CorruptionMode::Garbage,
        ));
        let now = tb.now();
        let mut rng = SimRng::new(18);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(39));
        assert_eq!(tb.directory(1).cached_sessions(), 0, "garbage never parses");
        // The mangled packets were not invisible: every pre-decode death
        // shows up in the receiver's drop counter.
        let dropped = tb
            .directory(1)
            .telemetry()
            .metrics
            .counter_by_name("net.rx_dropped");
        assert!(dropped > 0, "pre-decode drops must be accounted");
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.directory(1).cached_sessions(), 1, "window closed");
    }

    #[test]
    fn skewed_clock_still_converges() {
        // Node 1's clock runs 30 s ahead; announcements still propagate
        // and cache (the cache keys on local arrival time only).
        let mut tb =
            testbed(2, 19).with_faults(FaultPlan::new().with_clock_skew(1, 30_000_000_000));
        let now = tb.now();
        let mut rng = SimRng::new(20);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(10));
        assert_eq!(tb.directory(1).cached_sessions(), 1);
    }

    #[test]
    fn skewed_clock_does_not_burst_catchup_announcements() {
        // Regression for the unbounded catch-up loop: node 1's clock
        // runs 35 s ahead, so its first wakeup lands at local t ≈ 35 s
        // while its announce schedule was anchored at local-session
        // creation.  The old `while next_send <= now` loop replayed
        // every missed period (t = 0, 5, 15, 35) back-to-back; the clamp
        // emits exactly one announcement and re-anchors.
        let mut tb =
            testbed(2, 25).with_faults(FaultPlan::new().with_clock_skew(1, 35_000_000_000));
        let now = tb.now();
        let mut rng = SimRng::new(26);
        tb.directory_mut(1)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(1);
        // One hop of delay (50 ms) is well inside the first second.
        tb.run_until(SimTime::from_secs(1));
        let heard: Vec<_> = tb
            .log
            .iter()
            .filter(|e| e.node == 0 && matches!(e.event, DirectoryEvent::Heard(_)))
            .collect();
        assert_eq!(
            heard.len(),
            1,
            "skewed node must emit exactly one catch-up announcement: {heard:?}"
        );
        // The schedule re-anchored instead of replaying the backlog:
        // nothing else is due within the next couple of seconds.
        tb.run_until(SimTime::from_secs(3));
        let heard = tb
            .log
            .iter()
            .filter(|e| e.node == 0 && matches!(e.event, DirectoryEvent::Heard(_)))
            .count();
        assert_eq!(heard, 1, "no burst replay of missed periods");
    }

    #[test]
    fn telemetry_json_is_byte_identical_per_seed() {
        let run = || {
            let mut tb = testbed(3, 21);
            let now = tb.now();
            let mut rng = SimRng::new(22);
            tb.directory_mut(0)
                .create_session(now, "s", 127, media(), &mut rng)
                .unwrap();
            tb.kick(0);
            tb.run_until(SimTime::from_secs(60));
            tb.telemetry_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "telemetry must be deterministic per seed");
        assert!(a.contains("\"announce.sent\""), "{a}");
        assert!(a.contains("\"cache.heard_new\": 1"), "{a}");
    }

    #[test]
    fn flight_dump_covers_every_node() {
        let mut tb = testbed(2, 23);
        let now = tb.now();
        let mut rng = SimRng::new(24);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        tb.run_until(SimTime::from_secs(10));
        let dumps = tb.flight_dump("unit-test dump");
        assert_eq!(dumps.len(), 2);
        for (i, d) in dumps.iter().enumerate() {
            assert!(d.contains("\"flight_recorder\": true"), "{d}");
            assert!(d.contains(&format!("\"node\": {i}")), "{d}");
            assert!(d.contains("\"reason\": \"unit-test dump\""), "{d}");
        }
        // The announcing node recorded its create in the ring.
        assert!(dumps[0].contains("\"name\": \"created\""), "{}", dumps[0]);
    }

    #[test]
    fn lossy_channel_still_converges() {
        let configs: Vec<DirectoryConfig> = (0..3)
            .map(|i| {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1 + i as u8));
                cfg.space = AddrSpace::abstract_space(256);
                cfg
            })
            .collect();
        let mut tb = Testbed::new(
            configs,
            || Box::new(InformedRandomAllocator),
            Channel::mbone_default(), // 2% loss, 200 ms
            4,
        );
        let now = tb.now();
        let mut rng = SimRng::new(5);
        tb.directory_mut(0)
            .create_session(now, "s", 127, media(), &mut rng)
            .unwrap();
        tb.kick(0);
        // Within a few repeats everyone has heard it despite loss.
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.directory(1).cached_sessions(), 1);
        assert_eq!(tb.directory(2).cached_sessions(), 1);
    }
}
