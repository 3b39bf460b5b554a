//! The session directory engine — an sdr-alike.
//!
//! Ties together the four mechanisms the paper describes into one
//! transport-agnostic state machine:
//!
//! * the **announcement cache** (announce/listen, [`crate::cache`]);
//! * the **announcement schedule** (exponential back-off,
//!   [`crate::schedule`]);
//! * the **address allocator** (any [`sdalloc_core::Allocator`] — the
//!   dual use of announcements as reservations);
//! * the **clash detector/responder** (three-phase recovery,
//!   [`sdalloc_core::clash`]).
//!
//! The engine never touches a socket or a clock: callers feed it
//! received packets and the current time, and it returns packets to
//! send.  The same code therefore runs under the discrete-event
//! simulator ([`crate::testbed`]), the real UDP transport
//! ([`crate::net`]) and the examples.

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sdalloc_core::{
    Addr, AddrSpace, Allocator, ClashAction, ClashPolicy, ClashResponder, Incumbent, SessionId,
    View, VisibleSession,
};
use sdalloc_sim::{SimDuration, SimRng, SimTime, TimerQueue, TimerToken};
use sdalloc_telemetry::{CounterId, GaugeId, Severity, Telemetry, NO_ARG};

use crate::cache::{
    differing_buckets, AnnouncementCache, CacheKey, CacheUpdate, DigestBucket, DIGEST_BUCKETS,
    DIGEST_SEED,
};
use crate::schedule::BackoffSchedule;
use crate::sdp::{DescRef, Media, Origin, SessionDescription};
use crate::wire::{
    msg_id_hash, CacheDigest, MessageType, ReconMessage, ReconcileRequest, SapPacket,
};

/// Static configuration of a directory instance.
#[derive(Debug, Clone)]
pub struct DirectoryConfig {
    /// This host's unicast address (goes into `o=` lines).
    pub host: Ipv4Addr,
    /// The address space allocations are made from.
    pub space: AddrSpace,
    /// Announcement repeat schedule.
    pub schedule: BackoffSchedule,
    /// Cache expiry timeout.
    pub cache_timeout: SimDuration,
    /// Clash-recovery timing policy.
    pub clash_policy: ClashPolicy,
    /// Announcement bandwidth budget for the whole scope, bits/second.
    /// When set, the background repeat interval stretches with the
    /// number of sessions sharing the scope (sdr/RFC 2974 behaviour —
    /// and the scaling pressure behind the paper's Section 4: "the
    /// inter-announcement interval would become too long to give any
    /// kind of assurance of reliability").  `None` = unpaced.
    pub bandwidth_limit_bps: Option<f64>,
    /// Graceful degradation: when the allocator's own partition is
    /// exhausted, widen to the whole space (via
    /// [`sdalloc_core::Allocator::allocate_or_widen`]) and log a
    /// [`DirectoryEvent::Degraded`] instead of failing the create.
    pub exhaustion_fallback: bool,
    /// Staleness-aware cache expiry: when set to `Some(k)`, entries not
    /// refreshed within `k` background announcement periods (the
    /// schedule cap) are purged ahead of the hard cache timeout.  After
    /// a partition heal or restart this sheds state from sessions that
    /// moved or died unheard, at the cost of forgetting sessions whose
    /// announcements were merely lost.  `None` = hard timeout only.
    pub staleness_factor: Option<u32>,
    /// Anti-entropy digest reconciliation.  When enabled the directory
    /// periodically broadcasts a cache digest, answers divergent peers,
    /// and — after [`SessionDirectory::restart`] — rebuilds its cache
    /// from a live peer in a handful of RTTs instead of waiting out a
    /// full announce cycle.  `None` = announce/listen only.
    pub reconcile: Option<ReconcileConfig>,
    /// Ingest resource governor: per-source token-bucket rate limits
    /// plus cache admission control (per-source quotas, a hard entry
    /// budget, tiered eviction) so announcement storms cannot grow the
    /// cache unboundedly or evict legitimate sessions.  `None` =
    /// admit everything (the paper's original trusting behaviour).
    pub governor: Option<GovernorConfig>,
}

/// Timing and rate-limit knobs of the anti-entropy reconciliation
/// protocol (see [`DirectoryConfig::reconcile`]).
#[derive(Debug, Clone, Copy)]
pub struct ReconcileConfig {
    /// Interval between periodic digest broadcasts.
    pub digest_interval: SimDuration,
    /// Digest cadence while *rebuilding*: a restarted node re-digests
    /// on this (much shorter) interval until a peer's digest matches,
    /// so one lost or rate-limited exchange costs seconds, not a full
    /// `digest_interval`.
    pub rebuild_interval: SimDuration,
    /// Minimum gap between digests sent in *response* to a rebuilding
    /// peer — the rate limit that keeps a digest storm from amplifying.
    pub min_digest_gap: SimDuration,
    /// Minimum gap between reconcile requests we originate.
    pub min_request_gap: SimDuration,
    /// Cap on sessions re-announced in answer to one request.
    pub max_reannounce_per_request: usize,
}

impl Default for ReconcileConfig {
    fn default() -> Self {
        ReconcileConfig {
            digest_interval: SimDuration::from_secs(30),
            rebuild_interval: SimDuration::from_secs(2),
            min_digest_gap: SimDuration::from_secs(1),
            min_request_gap: SimDuration::from_secs(1),
            max_reannounce_per_request: 64,
        }
    }
}

/// Resource limits of the ingest governor (see
/// [`DirectoryConfig::governor`]).
#[derive(Debug, Clone, Copy)]
pub struct GovernorConfig {
    /// Hard cache entry budget.  A new entry arriving at the budget
    /// triggers tiered eviction (stale → unverified-new →
    /// quota-exceeding); with no evictable victim the entry is refused.
    pub max_entries: usize,
    /// Per-source cache quota: a source already holding this many
    /// entries has further *new* sessions refused (refreshes of its
    /// existing entries still land).
    pub per_source_quota: u32,
    /// Sustained per-source announcement rate, packets/second.
    pub rate_per_sec: f64,
    /// Token-bucket burst depth, packets.
    pub burst: f64,
    /// Upper bound on tracked per-source token buckets.  At the bound,
    /// fully-refilled buckets are pruned first; if every tracked source
    /// is still active, untracked sources bypass the rate limit (the
    /// quota and budget tiers still hold the state bound).
    pub max_tracked_sources: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            max_entries: 4096,
            per_source_quota: 64,
            rate_per_sec: 10.0,
            burst: 20.0,
            max_tracked_sources: 1024,
        }
    }
}

impl DirectoryConfig {
    /// A sensible default for host `host`: sdr dynamic space, paper
    /// back-off schedule, one-hour cache timeout.
    pub fn new(host: Ipv4Addr) -> Self {
        DirectoryConfig {
            host,
            space: AddrSpace::sdr_dynamic(),
            schedule: BackoffSchedule::default(),
            cache_timeout: SimDuration::from_hours(1),
            clash_policy: ClashPolicy::default(),
            bandwidth_limit_bps: None,
            exhaustion_fallback: false,
            staleness_factor: None,
            reconcile: None,
            governor: None,
        }
    }
}

/// One of our own announced sessions.
#[derive(Debug, Clone)]
pub struct OwnSession {
    /// Current description (including the allocated group).
    pub desc: SessionDescription,
    /// When we first announced it.
    pub first_announced: SimTime,
    /// Number of announcements sent.
    pub sends: u32,
    /// When the next scheduled announcement is due.
    pub next_send: SimTime,
}

/// Why a session could not be created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CreateError {
    /// The allocator found no free address for this TTL.
    SpaceFull,
    /// The agent thread that owns the directory has exited (terminal
    /// transport failure or shutdown), so nothing served the request.
    AgentNotRunning,
}

impl std::fmt::Display for CreateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreateError::SpaceFull => write!(f, "no free multicast address for this scope"),
            CreateError::AgentNotRunning => write!(f, "the directory's agent is not running"),
        }
    }
}

impl std::error::Error for CreateError {}

/// Events a caller may want to react to (logging, metrics, tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryEvent {
    /// A clash was detected on `group`; we are taking `action`.
    Clash {
        /// The contested group.
        group: Ipv4Addr,
        /// What the three-phase protocol decided.
        action: ClashAction,
    },
    /// We moved one of our sessions to a new address after losing a race.
    Moved {
        /// Our session id.
        session_id: u64,
        /// The abandoned group.
        from: Ipv4Addr,
        /// The replacement group.
        to: Ipv4Addr,
    },
    /// Cache update classification for an incoming announcement.
    Heard(CacheUpdate),
    /// Graceful degradation: the allocator's partition was exhausted
    /// and the address was taken from outside it (whole-space informed
    /// random).  The session exists, but without the partition's
    /// clash-avoidance guarantees — callers should surface this.
    Degraded {
        /// Our session id.
        session_id: u64,
        /// The out-of-partition group it landed on.
        group: Ipv4Addr,
        /// The session's scope (TTL) whose partition was exhausted.
        ttl: u8,
        /// The exhausted partition band, as `[lo, hi)` address indexes
        /// into the configured space.
        exhausted_band: (u32, u32),
        /// The fallback range the address was actually drawn from
        /// (whole-space informed random), as `[lo, hi)` indexes.
        fallback_range: (u32, u32),
    },
}

/// The kinds of deadline the directory schedules in its timer queue.
/// Exposed so event-driven callers ([`crate::testbed`], the
/// differential trace tests) can drive [`SessionDirectory::on_timer`]
/// directly instead of going through the [`SessionDirectory::poll`]
/// compat wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The next scheduled announcement of one of our own sessions.
    Announce(u64),
    /// The earliest cache entry may have aged out (expiry or staleness
    /// horizon).  Conservative: a refresh after arming makes the wake a
    /// no-op purge, never a missed one.
    CacheExpiry,
    /// The earliest pending third-party clash defence is due.
    /// Conservative in the same way: a suppressed defence leaves the
    /// wake a no-op.
    Defence,
    /// The next periodic reconciliation digest broadcast is due (only
    /// armed when [`DirectoryConfig::reconcile`] is set).
    Reconcile,
}

/// Pre-registered metric ids for the directory's hot paths.  Built
/// once per [`SessionDirectory`]; every update afterwards is a branch
/// plus a `Vec` index (see `sdalloc_telemetry`).
#[derive(Debug, Clone, Copy)]
struct DirMetrics {
    sessions_created: CounterId,
    sessions_withdrawn: CounterId,
    degraded: CounterId,
    moved: CounterId,
    restarts: CounterId,
    announce_sent: CounterId,
    defence_sent: CounterId,
    rx_packets: CounterId,
    rx_deletes: CounterId,
    rx_unparseable: CounterId,
    rx_dropped: CounterId,
    heard_new: CounterId,
    heard_refreshed: CounterId,
    heard_modified: CounterId,
    heard_stale: CounterId,
    purged_expired: CounterId,
    purged_stale: CounterId,
    cache_size: GaugeId,
    recon_digest_sent: CounterId,
    recon_digest_heard: CounterId,
    recon_request_sent: CounterId,
    recon_request_heard: CounterId,
    recon_reannounced: CounterId,
    recon_completed: CounterId,
    recon_rebuilding: GaugeId,
    rebuild_fraction: GaugeId,
    gov_rate_limited: CounterId,
    gov_rejected_quota: CounterId,
    gov_rejected_budget: CounterId,
    gov_evicted_stale: CounterId,
    gov_evicted_unverified: CounterId,
    gov_evicted_quota: CounterId,
}

impl DirMetrics {
    fn register(t: &mut Telemetry) -> DirMetrics {
        DirMetrics {
            sessions_created: t.counter("dir.sessions_created"),
            sessions_withdrawn: t.counter("dir.sessions_withdrawn"),
            degraded: t.counter("dir.degraded"),
            moved: t.counter("dir.moved"),
            restarts: t.counter("dir.restarts"),
            announce_sent: t.counter("announce.sent"),
            defence_sent: t.counter("announce.defence_sent"),
            rx_packets: t.counter("net.rx_packets"),
            rx_deletes: t.counter("net.rx_deletes"),
            rx_unparseable: t.counter("net.rx_unparseable"),
            rx_dropped: t.counter("net.rx_dropped"),
            heard_new: t.counter("cache.heard_new"),
            heard_refreshed: t.counter("cache.heard_refreshed"),
            heard_modified: t.counter("cache.heard_modified"),
            heard_stale: t.counter("cache.heard_stale"),
            purged_expired: t.counter("cache.purged_expired"),
            purged_stale: t.counter("cache.purged_stale"),
            cache_size: t.gauge("cache.size"),
            recon_digest_sent: t.counter("recon.digest_sent"),
            recon_digest_heard: t.counter("recon.digest_heard"),
            recon_request_sent: t.counter("recon.request_sent"),
            recon_request_heard: t.counter("recon.request_heard"),
            recon_reannounced: t.counter("recon.reannounced"),
            recon_completed: t.counter("recon.completed"),
            recon_rebuilding: t.gauge("recon.rebuilding"),
            rebuild_fraction: t.gauge("cache.rebuild_fraction"),
            gov_rate_limited: t.counter("governor.rate_limited"),
            gov_rejected_quota: t.counter("governor.rejected_quota"),
            gov_rejected_budget: t.counter("governor.rejected_budget"),
            gov_evicted_stale: t.counter("governor.evicted_stale"),
            gov_evicted_unverified: t.counter("governor.evicted_unverified"),
            gov_evicted_quota: t.counter("governor.evicted_quota"),
        }
    }
}

/// Rebuild progress after a [`SessionDirectory::restart`] with
/// reconciliation enabled: the directory stays in this phase until a
/// peer digest matches its own.
#[derive(Debug, Clone)]
struct RebuildState {
    /// Cache entries held at the instant of the crash — the
    /// denominator of the `cache.rebuild_fraction` gauge.
    entries_at_crash: u64,
    /// The most recent peer digest heard while rebuilding; when our
    /// scope digest reaches it, the rebuild is complete.
    last_peer_digest: Option<[u64; DIGEST_BUCKETS]>,
}

/// One source's ingest token bucket.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last_refill: SimTime,
}

/// The id of one of our own sessions, read back from the keys of
/// [`SessionDirectory::own`] — minted by this host's
/// [`SessionDirectory::create_session`], never parsed off the wire.
/// The clash path moves and re-announces sessions by these only.
#[derive(Debug, Clone, Copy)]
struct HostMintedId(u64);

/// The session directory engine.
pub struct SessionDirectory {
    cfg: DirectoryConfig,
    allocator: Box<dyn Allocator>,
    cache: AnnouncementCache,
    /// This host's own sessions, keyed by the id
    /// [`Self::create_session`] minted.  Only the local application
    /// grows this map; wire traffic cannot.
    own: BTreeMap<u64, OwnSession>,
    responder: ClashResponder,
    next_session_id: u64,
    /// Events produced outside [`Self::on_packet`] (e.g. degraded
    /// allocations during [`Self::create_session`]), drained by
    /// [`Self::take_events`] or appended to the next `on_packet`
    /// result.
    pending_events: Vec<DirectoryEvent>,
    /// Every deadline the directory owns: one announce timer per own
    /// session plus the single-instance control timers (cache expiry,
    /// clash defence, reconciliation).  Fires in deadline order, FIFO
    /// among equals.
    timers: TimerQueue<TimerKind>,
    /// Live announce-timer token per own session (cancelled on
    /// withdraw).
    announce_timers: BTreeMap<u64, TimerToken>,
    /// The single outstanding cache-expiry timer, with the deadline it
    /// was armed for.  Armed deadlines are never later than required
    /// (the earliest `last_heard` can only move forward), so the timer
    /// is left alone until it fires and re-arms.
    cache_timer: Option<(TimerToken, SimTime)>,
    /// The single outstanding clash-defence timer, with its deadline.
    /// Re-armed earlier when a new clash undercuts it.
    defence_timer: Option<(TimerToken, SimTime)>,
    /// The single outstanding periodic-digest timer, with its deadline
    /// (only armed when reconciliation is configured).
    recon_timer: Option<(TimerToken, SimTime)>,
    /// Scratch buffer for [`Self::poll`]'s batch drain; kept across
    /// calls so a steady-state poll allocates nothing.
    due_scratch: Vec<(SimTime, TimerKind)>,
    /// Post-restart rebuild progress; `None` once a peer digest
    /// confirms we are back in sync (or when reconciliation is off).
    rebuilding: Option<RebuildState>,
    /// When we last transmitted a digest (periodic or responsive) —
    /// the [`ReconcileConfig::min_digest_gap`] rate-limit clock.
    last_digest_sent: Option<SimTime>,
    /// When we last originated a reconcile request — the
    /// [`ReconcileConfig::min_request_gap`] rate-limit clock.
    last_request_sent: Option<SimTime>,
    /// Per-source ingest token buckets, bounded by
    /// [`GovernorConfig::max_tracked_sources`].  `BTreeMap` so pruning
    /// order — and therefore every governor decision — is
    /// deterministic.
    gov_buckets: BTreeMap<Ipv4Addr, TokenBucket>,
    /// Per-node telemetry: counters/gauges for the directory paths plus
    /// the flight recorder.  Clash-decision metrics live in the
    /// responder's own bundle and are folded in on snapshot/dump.
    telemetry: Telemetry,
    metrics: DirMetrics,
}

impl SessionDirectory {
    /// Create a directory with the given allocator.
    pub fn new(cfg: DirectoryConfig, allocator: Box<dyn Allocator>) -> Self {
        let cache = AnnouncementCache::new(cfg.cache_timeout);
        let responder =
            ClashResponder::with_telemetry(cfg.clash_policy.clone(), Telemetry::new(0, 0));
        let mut telemetry = Telemetry::new(0, 0);
        let metrics = DirMetrics::register(&mut telemetry);
        let mut dir = SessionDirectory {
            cfg,
            allocator,
            cache,
            own: BTreeMap::new(),
            responder,
            next_session_id: 1,
            pending_events: Vec::new(),
            timers: TimerQueue::new(),
            announce_timers: BTreeMap::new(),
            cache_timer: None,
            defence_timer: None,
            recon_timer: None,
            due_scratch: Vec::new(),
            rebuilding: None,
            last_digest_sent: None,
            last_request_sent: None,
            gov_buckets: BTreeMap::new(),
            telemetry,
            metrics,
        };
        dir.arm_recon_timer(SimTime::ZERO);
        dir
    }

    /// The directory's own telemetry bundle.  Clash-decision metrics
    /// live in the responder's bundle; use
    /// [`Self::telemetry_snapshot_json`] for the merged view.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry bundle, so the layer driving
    /// this directory can file its own events (transport retries, a
    /// terminal failure) in the same flight recorder.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn all recording (directory + clash responder) on or off.
    /// Disabled recording costs a single branch per instrumented site;
    /// registered ids stay valid.
    pub fn set_telemetry_enabled(&mut self, on: bool) {
        self.telemetry.set_enabled(on);
        let mut t = self.responder.take_telemetry();
        t.set_enabled(on);
        self.responder.set_telemetry(t);
    }

    /// Stamp the node id and seed rendered into snapshots and dumps.
    pub fn set_telemetry_identity(&mut self, node: u32, seed: u64) {
        self.telemetry.set_identity(node, seed);
        let mut t = self.responder.take_telemetry();
        t.set_identity(node, seed);
        self.responder.set_telemetry(t);
    }

    /// Deterministic per-node metrics snapshot as JSON: the directory's
    /// bundle with the clash responder's metrics folded in.
    pub fn telemetry_snapshot_json(&self) -> String {
        let mut merged = self.telemetry.clone();
        merged.merge_metrics_from(self.responder.telemetry());
        merged.snapshot_json()
    }

    /// Post-mortem flight-recorder dump (merged metrics + the retained
    /// trace events) as JSON, stamped with `reason`.
    pub fn flight_dump_json(&self, reason: &str) -> String {
        let mut merged = self.telemetry.clone();
        merged.merge_metrics_from(self.responder.telemetry());
        merged.dump_json(reason)
    }

    /// The configuration.
    pub fn config(&self) -> &DirectoryConfig {
        &self.cfg
    }

    /// Number of sessions in the listen cache.
    pub fn cached_sessions(&self) -> usize {
        self.cache.len()
    }

    /// Our own sessions.
    pub fn own_sessions(&self) -> impl Iterator<Item = (&u64, &OwnSession)> {
        self.own.iter()
    }

    /// Direct read access to the cache.
    pub fn cache(&self) -> &AnnouncementCache {
        &self.cache
    }

    /// Test helper: inject a cache entry without going through a packet.
    #[doc(hidden)]
    pub fn cache_observe_for_test(&mut self, now: SimTime, desc: SessionDescription) {
        self.cache.observe_announce(now, desc);
        self.arm_cache_timer();
    }

    /// The allocator's current view: everything cached plus our own
    /// sessions (we must not collide with ourselves).
    pub fn current_view(&self) -> Vec<VisibleSession> {
        let mut v = self.cache.visible_sessions(&self.cfg.space);
        for s in self.own.values() {
            if let Some(addr) = self.cfg.space.index_of(s.desc.group) {
                v.push(VisibleSession::new(addr, s.desc.ttl));
            }
        }
        v.sort_by_key(|s| (s.addr, s.ttl));
        v
    }

    /// Create and start announcing a session.  Returns the session id;
    /// the first announcement is emitted by the next [`Self::poll`].
    pub fn create_session(
        &mut self,
        now: SimTime,
        name: &str,
        ttl: u8,
        media: Vec<Media>,
        rng: &mut SimRng,
    ) -> Result<u64, CreateError> {
        let view_data = self.current_view();
        let view = View::new(&view_data);
        let (addr, widened, band) = if self.cfg.exhaustion_fallback {
            let out = self
                .allocator
                .allocate_or_widen(&self.cfg.space, ttl, &view, rng)
                .ok_or(CreateError::SpaceFull)?;
            (out.addr, out.widened, out.band)
        } else {
            let addr = self
                .allocator
                .allocate(&self.cfg.space, ttl, &view, rng)
                .ok_or(CreateError::SpaceFull)?;
            (addr, false, (0, self.cfg.space.size()))
        };
        let session_id = self.next_session_id;
        self.next_session_id += 1;
        self.telemetry.inc(self.metrics.sessions_created);
        self.telemetry.record(
            now.as_nanos(),
            Severity::Info,
            "allocate",
            "created",
            [
                ("session", session_id),
                ("addr", u64::from(addr.0)),
                ("ttl", u64::from(ttl)),
            ],
        );
        if widened {
            self.telemetry.inc(self.metrics.degraded);
            self.telemetry.record(
                now.as_nanos(),
                Severity::Warn,
                "allocate",
                "widened",
                [
                    ("session", session_id),
                    ("band_lo", u64::from(band.0)),
                    ("band_hi", u64::from(band.1)),
                ],
            );
            self.pending_events.push(DirectoryEvent::Degraded {
                session_id,
                group: self.cfg.space.ip(addr),
                ttl,
                exhausted_band: band,
                fallback_range: (0, self.cfg.space.size()),
            });
        }
        let desc = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id,
                version: 1,
                address: self.cfg.host,
            },
            name: name.to_string(),
            info: None,
            group: self.cfg.space.ip(addr),
            ttl,
            start: 0,
            stop: 0,
            media,
        };
        self.own.insert(
            session_id,
            OwnSession {
                desc,
                first_announced: now,
                sends: 0,
                next_send: now,
            },
        );
        let token = self.timers.schedule(now, TimerKind::Announce(session_id));
        self.announce_timers.insert(session_id, token);
        Ok(session_id)
    }

    /// Stop announcing a session; returns the deletion packet to send.
    pub fn withdraw_session(&mut self, session_id: u64) -> Option<SapPacket> {
        let s = self.own.remove(&session_id)?;
        self.telemetry.inc(self.metrics.sessions_withdrawn);
        if let Some(token) = self.announce_timers.remove(&session_id) {
            self.timers.cancel(token);
        }
        let payload = s.desc.format();
        Some(SapPacket::delete(
            self.cfg.host,
            msg_id_hash(&payload),
            payload,
        ))
    }

    /// The cache purge horizon: the hard timeout, tightened by the
    /// staleness factor when configured.
    fn cache_horizon(&self) -> SimDuration {
        let mut horizon = self.cfg.cache_timeout;
        if let Some(k) = self.cfg.staleness_factor {
            horizon = horizon.min(self.cfg.schedule.cap.saturating_mul(k as u64));
        }
        horizon
    }

    /// Arm (or keep) the cache-expiry timer for the oldest entry.  The
    /// purge condition is strict (`elapsed > horizon`), so the deadline
    /// is one nanosecond past the horizon.  An already-armed timer is
    /// never later than required — the earliest `last_heard` only moves
    /// forward — so it is left in place; an early fire is a no-op purge.
    fn arm_cache_timer(&mut self) {
        if self.cache_timer.is_some() {
            return;
        }
        if let Some(oldest) = self.cache.earliest_last_heard() {
            let deadline = oldest + self.cache_horizon() + SimDuration::from_nanos(1);
            let token = self.timers.schedule(deadline, TimerKind::CacheExpiry);
            self.cache_timer = Some((token, deadline));
        }
    }

    /// Arm or tighten the clash-defence timer to the responder's next
    /// deadline.  A new clash can undercut the armed deadline, so this
    /// reschedules earlier when needed; suppression (the originator
    /// defended itself) just leaves a no-op early fire behind.
    fn arm_defence_timer(&mut self) {
        let Some(deadline) = self.responder.next_deadline() else {
            return;
        };
        match self.defence_timer {
            Some((_, armed)) if armed <= deadline => {}
            current => {
                if let Some((token, _)) = current {
                    self.timers.cancel(token);
                }
                let token = self.timers.schedule(deadline, TimerKind::Defence);
                self.defence_timer = Some((token, deadline));
            }
        }
    }

    /// Arm (or keep) the periodic digest timer.  No-op when
    /// reconciliation is not configured.  The deadline derives only
    /// from the local clock and the configured interval: wire digests
    /// trigger an exchange but never set when our own timers fire.
    fn arm_recon_timer(&mut self, now: SimTime) {
        if self.recon_timer.is_some() {
            return;
        }
        let Some(rc) = &self.cfg.reconcile else {
            return;
        };
        let interval = if self.rebuilding.is_some() {
            rc.rebuild_interval.min(rc.digest_interval)
        } else {
            rc.digest_interval
        };
        let deadline = now + interval;
        let token = self.timers.schedule(deadline, TimerKind::Reconcile);
        self.recon_timer = Some((token, deadline));
    }

    /// The scope digest: the cache's accumulators with our own
    /// (uncached) sessions folded in, so two in-sync peers digest
    /// identically no matter who originated which session.
    fn scope_digest(&self) -> [u64; DIGEST_BUCKETS] {
        let mut d = self.cache.digest();
        for s in self.own.values() {
            let (bucket, hash) = AnnouncementCache::desc_digest(&s.desc);
            *bucket.slot(&mut d) ^= hash;
        }
        d
    }

    /// Build a digest broadcast packet and stamp the rate-limit clock.
    fn digest_packet(&mut self, now: SimTime) -> SapPacket {
        let digest = self.scope_digest();
        let msg = ReconMessage::Digest(CacheDigest {
            seed: DIGEST_SEED,
            entries: (self.cache.len() + self.own.len()) as u64,
            rebuilding: self.rebuilding.is_some(),
            buckets: digest.to_vec(),
        });
        let payload = msg.encode_payload();
        self.last_digest_sent = Some(now);
        self.telemetry.inc(self.metrics.recon_digest_sent);
        SapPacket::announce(self.cfg.host, msg_id_hash(&payload), payload)
    }

    /// Update the `cache.rebuild_fraction` gauge (per-mille: recovered
    /// entries / entries at crash) from the current cache size.
    fn update_rebuild_fraction(&mut self) {
        let Some(rb) = &self.rebuilding else { return };
        let fraction = (self.cache.len() as u64)
            .saturating_mul(1000)
            .checked_div(rb.entries_at_crash)
            .map_or(1000, |f| f.min(1000));
        self.telemetry
            .set(self.metrics.rebuild_fraction, fraction as i64);
    }

    /// Leave the rebuilding phase (a peer digest matched ours).
    fn complete_rebuild(&mut self, now: SimTime) {
        if self.rebuilding.take().is_none() {
            return;
        }
        self.telemetry.inc(self.metrics.recon_completed);
        self.telemetry.set(self.metrics.recon_rebuilding, 0);
        self.telemetry.record(
            now.as_nanos(),
            Severity::Info,
            "recon",
            "rebuilt",
            [("entries", self.cache.len() as u64), NO_ARG, NO_ARG],
        );
    }

    /// Handle a reconciliation payload (already marker-checked).  This
    /// is the trust boundary of the digest exchange: the seed and
    /// bucket count are validated before any comparison, the request
    /// fan-out is capped by configuration, and nothing here ever
    /// schedules a timer from a wire-derived value.
    fn on_recon_packet(&mut self, now: SimTime, pkt: &SapPacket, out: &mut Vec<SapPacket>) {
        let Some(msg) = ReconMessage::parse(&pkt.payload) else {
            self.telemetry.inc(self.metrics.rx_unparseable);
            return;
        };
        let Some(rc) = self.cfg.reconcile else {
            return; // reconciliation disabled: ignore peers' exchanges
        };
        match msg {
            ReconMessage::Digest(d) => {
                self.telemetry.inc(self.metrics.recon_digest_heard);
                if d.seed != DIGEST_SEED || d.buckets.len() != DIGEST_BUCKETS {
                    return; // incomparable digest (foreign seed or shape)
                }
                let mut theirs = [0u64; DIGEST_BUCKETS];
                theirs.copy_from_slice(&d.buckets);
                let ours = self.scope_digest();
                if ours == theirs {
                    // In sync with this peer: any rebuild is over.
                    self.complete_rebuild(now);
                    return;
                }
                if let Some(rb) = &mut self.rebuilding {
                    rb.last_peer_digest = Some(theirs);
                }
                // Pull what we are missing: ask for every divergent
                // bucket, rate-limited against digest storms.
                let can_request = self
                    .last_request_sent
                    .is_none_or(|at| now.saturating_since(at) >= rc.min_request_gap);
                if can_request {
                    let req = ReconMessage::Request(ReconcileRequest {
                        buckets: differing_buckets(&ours, &theirs),
                    });
                    let payload = req.encode_payload();
                    out.push(SapPacket::announce(
                        self.cfg.host,
                        msg_id_hash(&payload),
                        payload,
                    ));
                    self.last_request_sent = Some(now);
                    self.telemetry.inc(self.metrics.recon_request_sent);
                }
                // Push what the peer is missing: a rebuilding peer gets
                // our digest promptly so it can diff and fetch, under
                // the same style of rate limit.
                if d.rebuilding {
                    let can_digest = self
                        .last_digest_sent
                        .is_none_or(|at| now.saturating_since(at) >= rc.min_digest_gap);
                    if can_digest {
                        let pkt = self.digest_packet(now);
                        out.push(pkt);
                    }
                }
            }
            ReconMessage::Request(r) => {
                self.telemetry.inc(self.metrics.recon_request_heard);
                // Compact re-announce of everything we hold in the
                // requested buckets: cached entries on their
                // originators' behalf, plus our own sessions.
                let mut requested = [false; DIGEST_BUCKETS];
                for &b in &r.buckets {
                    if let Some(slot) = requested.get_mut(usize::from(b)) {
                        *slot = true;
                    }
                }
                // The key snapshot decouples the re-announce loop from
                // the cache borrow.
                let mut keys: Vec<CacheKey> = Vec::new();
                for bucket in (0..DIGEST_BUCKETS).filter_map(DigestBucket::new) {
                    if requested.get(bucket.index()) == Some(&true) {
                        keys.extend(self.cache.keys_in_bucket(bucket));
                    }
                }
                keys.sort_unstable();
                keys.truncate(rc.max_reannounce_per_request);
                for key in keys {
                    if let Some(entry) = self.cache.get(key.origin, key.session_id) {
                        out.push(Self::announcement_packet(key.origin, &entry.desc()));
                        self.telemetry.inc(self.metrics.recon_reannounced);
                    }
                }
                for s in self.own.values() {
                    let (bucket, _) = AnnouncementCache::desc_digest(&s.desc);
                    if requested.get(bucket.index()) == Some(&true) {
                        out.push(Self::announcement_packet(self.cfg.host, &s.desc));
                        self.telemetry.inc(self.metrics.recon_reannounced);
                    }
                }
            }
        }
    }

    /// Per-source token-bucket check; `true` admits the packet.
    fn governor_rate_ok(&mut self, now: SimTime, source: Ipv4Addr) -> bool {
        let Some(g) = self.cfg.governor else {
            return true;
        };
        if !self.gov_buckets.contains_key(&source)
            && self.gov_buckets.len() >= g.max_tracked_sources
        {
            // Prune buckets that have fully refilled — their sources
            // are idle and unconstrained anyway.
            let (rate, burst) = (g.rate_per_sec, g.burst);
            self.gov_buckets.retain(|_, b| {
                b.tokens + now.saturating_since(b.last_refill).as_secs_f64() * rate < burst
            });
            if self.gov_buckets.len() >= g.max_tracked_sources {
                return true; // fail open: quota and budget still bound state
            }
        }
        // Growth is capped at max_tracked_sources by the prune/fail-open
        // branch above.
        let fresh = TokenBucket {
            tokens: g.burst,
            last_refill: now,
        };
        let bucket = self.gov_buckets.entry(source).or_insert(fresh);
        let elapsed = now.saturating_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * g.rate_per_sec).min(g.burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Admission control for a *new* cache entry from `source`: the
    /// per-source quota, then the hard budget with tiered eviction
    /// (stale → unverified-new → quota-exceeding).  `true` admits.
    fn governor_admit_new(&mut self, now: SimTime, source: Ipv4Addr) -> bool {
        let Some(g) = self.cfg.governor else {
            return true;
        };
        if self.cache.origin_count(source) as u64 >= u64::from(g.per_source_quota) {
            self.telemetry.inc(self.metrics.gov_rejected_quota);
            return false;
        }
        if self.cache.len() < g.max_entries {
            return true;
        }
        // At the budget: free one slot, cheapest tier first.
        // Tier 1 — an entry already past the purge horizon.
        let horizon = self.cache_horizon();
        if let Some((key, last)) = self.cache.oldest_entry() {
            if now.saturating_since(last) > horizon {
                self.cache.evict(key);
                self.telemetry.inc(self.metrics.gov_evicted_stale);
                return true;
            }
        }
        // Tier 2 — the oldest entry heard exactly once (unverified).
        if let Some(key) = self.cache.oldest_unverified() {
            self.cache.evict(key);
            self.telemetry.inc(self.metrics.gov_evicted_unverified);
            return true;
        }
        // Tier 3 — the stalest session of a quota-exceeding source.
        if let Some(key) = self.cache.quota_violator(g.per_source_quota) {
            self.cache.evict(key);
            self.telemetry.inc(self.metrics.gov_evicted_quota);
            return true;
        }
        // Every cached session is legitimate (verified, within quota):
        // refuse the newcomer rather than evict an incumbent.
        self.telemetry.inc(self.metrics.gov_rejected_budget);
        false
    }

    /// Account one datagram dropped before decode (truncation,
    /// corruption, forged framing).  Transports call this so storm
    /// telemetry reflects actual wire pressure, not just the packets
    /// that survived to the parser.
    pub fn note_rx_dropped(&mut self, now: SimTime) {
        self.telemetry.inc(self.metrics.rx_dropped);
        self.telemetry.record(
            now.as_nanos(),
            Severity::Debug,
            "net",
            "rx_dropped",
            [NO_ARG, NO_ARG, NO_ARG],
        );
    }

    /// Run the cache purges (hard expiry plus the staleness horizon)
    /// and re-arm the expiry timer for whatever remains.  Returns
    /// (expired, stale) purge counts.
    fn purge_cache(&mut self, now: SimTime) -> (usize, usize) {
        let expired = self.cache.purge_expired(now).len();
        let mut stale = 0;
        if self.cfg.staleness_factor.is_some() {
            // Entries missing for more than k background periods are
            // presumed dead or moved; shed them early.
            let horizon = self.cache_horizon();
            stale = self.cache.purge_stale(now, horizon).len();
        }
        (expired, stale)
    }

    /// The bandwidth-pacing floor for background repeats, if a budget is
    /// configured.  Under a budget, the steady repeat interval grows
    /// with the number of sessions sharing the scope (ours plus
    /// everything cached), so the scope's total announcement traffic
    /// stays within the budget.
    fn paced_floor(&self) -> Option<SimDuration> {
        self.cfg.bandwidth_limit_bps.map(|bps| {
            let population = self.cache.len() + self.own.len();
            let bytes = self
                .own
                .values()
                .next()
                .map(|s| s.desc.format().len() + 8)
                .unwrap_or(256);
            crate::schedule::bandwidth_limited_interval(
                population.max(1),
                bytes,
                bps,
                self.cfg.schedule.cap,
            )
        })
    }

    /// Handle one due timer.  This is the event-driven core: callers
    /// obtain due timers from [`Self::pop_due_timer`] (or equivalently
    /// let [`Self::poll`] drain them) and feed them here with the
    /// current time.
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind) -> Vec<SapPacket> {
        let mut out = Vec::new();
        match kind {
            TimerKind::Announce(session_id) => {
                // Direct (non-popped) invocation: retire the queued
                // timer so it cannot fire twice.
                if let Some(token) = self.announce_timers.remove(&session_id) {
                    self.timers.cancel(token);
                }
                let paced_floor = self.paced_floor();
                let Some(s) = self.own.get_mut(&session_id) else {
                    return out; // withdrawn between scheduling and firing
                };
                out.push(Self::announcement_packet(self.cfg.host, &s.desc));
                let sends_before = s.sends;
                let mut interval = self.cfg.schedule.interval_after(s.sends);
                if let Some(floor) = paced_floor {
                    // Pacing only stretches the background rate; the
                    // fast initial repeats (which fix the effective
                    // propagation delay of *new* sessions) stay.
                    if interval >= self.cfg.schedule.cap {
                        interval = interval.max(floor);
                    }
                }
                s.sends += 1;
                // Catch-up clamp: the schedule is wall-clock anchored,
                // but after a restart or a clock jump we emit ONE
                // announcement and re-anchor, instead of a back-to-back
                // burst for every missed period.
                let mut next = s.next_send + interval;
                if next <= now {
                    next = now + interval;
                }
                s.next_send = next;
                self.telemetry.inc(self.metrics.announce_sent);
                self.telemetry.record(
                    now.as_nanos(),
                    Severity::Debug,
                    "announce",
                    "sent",
                    [
                        ("session", session_id),
                        ("sends", u64::from(sends_before)),
                        NO_ARG,
                    ],
                );
                let token = self.timers.schedule(next, TimerKind::Announce(session_id));
                self.announce_timers.insert(session_id, token);
            }
            TimerKind::CacheExpiry => {
                if let Some((token, _)) = self.cache_timer.take() {
                    self.timers.cancel(token);
                }
                let (expired, stale) = self.purge_cache(now);
                self.telemetry
                    .inc_by(self.metrics.purged_expired, expired as u64);
                self.telemetry
                    .inc_by(self.metrics.purged_stale, stale as u64);
                self.telemetry
                    .set(self.metrics.cache_size, self.cache.len() as i64);
                if expired + stale > 0 {
                    self.telemetry.record(
                        now.as_nanos(),
                        Severity::Debug,
                        "cache",
                        "purge",
                        [
                            ("expired", expired as u64),
                            ("stale", stale as u64),
                            ("remaining", self.cache.len() as u64),
                        ],
                    );
                }
                self.arm_cache_timer();
            }
            TimerKind::Defence => {
                if let Some((token, _)) = self.defence_timer.take() {
                    self.timers.cancel(token);
                }
                for action in self.responder.poll(now) {
                    if let ClashAction::DefendThirdParty { session } = action {
                        // Re-announce the cached session on the
                        // originator's behalf, if we still hold it.
                        let origin = Ipv4Addr::from(session.site);
                        if let Some(entry) = self.cache.get(origin, session.seq) {
                            out.push(Self::announcement_packet(origin, &entry.desc()));
                            self.telemetry.inc(self.metrics.defence_sent);
                            self.telemetry.record(
                                now.as_nanos(),
                                Severity::Info,
                                "defend",
                                "reannounce",
                                [
                                    ("site", u64::from(session.site)),
                                    ("seq", session.seq),
                                    NO_ARG,
                                ],
                            );
                        }
                    }
                }
                self.arm_defence_timer();
            }
            TimerKind::Reconcile => {
                if let Some((token, _)) = self.recon_timer.take() {
                    self.timers.cancel(token);
                }
                if self.cfg.reconcile.is_some() {
                    let pkt = self.digest_packet(now);
                    out.push(pkt);
                    self.telemetry.record(
                        now.as_nanos(),
                        Severity::Debug,
                        "recon",
                        "digest_broadcast",
                        [
                            ("entries", (self.cache.len() + self.own.len()) as u64),
                            ("rebuilding", u64::from(self.rebuilding.is_some())),
                            NO_ARG,
                        ],
                    );
                    self.arm_recon_timer(now);
                }
            }
        }
        out
    }

    /// Pop the earliest due timer, if any.  Event-driven callers loop
    /// `pop_due_timer` + [`Self::on_timer`]; FIFO order at equal
    /// deadlines is guaranteed by the queue.
    pub fn pop_due_timer(&mut self, now: SimTime) -> Option<TimerKind> {
        let (_, kind) = self.timers.pop_due(now)?;
        self.forget_consumed_token(kind);
        Some(kind)
    }

    /// The queue has handed out `kind`'s token (popped or drained), so
    /// it is consumed: clear the matching bookkeeping so `on_timer`
    /// doesn't cancel a successor it didn't schedule.
    fn forget_consumed_token(&mut self, kind: TimerKind) {
        match kind {
            TimerKind::Announce(id) => {
                self.announce_timers.remove(&id);
            }
            TimerKind::CacheExpiry => self.cache_timer = None,
            TimerKind::Defence => self.defence_timer = None,
            TimerKind::Reconcile => self.recon_timer = None,
        }
    }

    /// Advance time: emit due announcements, fire expired third-party
    /// defences, purge the cache.  Compat wrapper over the event API —
    /// batch-drains every due timer in deadline order, looping in case a
    /// handler re-arms something... though no handler schedules a
    /// deadline `<= now`, so the second sweep is empty in practice.
    pub fn poll(&mut self, now: SimTime) -> Vec<SapPacket> {
        let mut out = Vec::new();
        let mut due = std::mem::take(&mut self.due_scratch);
        loop {
            due.clear();
            self.timers.drain_due(now, &mut due);
            if due.is_empty() {
                break;
            }
            for &(_, kind) in &due {
                self.forget_consumed_token(kind);
                out.append(&mut self.on_timer(now, kind));
            }
        }
        due.clear();
        self.due_scratch = due;
        out
    }

    /// Drain events produced outside [`Self::on_packet`] (degraded
    /// allocations, restart notices).  `on_packet` drains these into
    /// its own event list automatically; callers that only use
    /// [`Self::create_session`]/[`Self::poll`] should collect them here.
    pub fn take_events(&mut self) -> Vec<DirectoryEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Simulate a crash/restart with state loss: the announcement cache
    /// and all pending clash-defence state are gone (they lived in
    /// memory), while our own sessions survive (the application still
    /// wants them announced) and re-enter the fast announcement phase so
    /// the scope re-learns them quickly.
    ///
    /// With [`DirectoryConfig::reconcile`] set, the directory also
    /// enters an explicit *Rebuilding* phase (gauge `recon.rebuilding`,
    /// progress gauge `cache.rebuild_fraction` in per-mille): a digest
    /// broadcast fires immediately so a live peer can diff and refill
    /// the cache in a couple of RTTs instead of a full announce cycle,
    /// and the phase ends when a heard digest matches ours.
    pub fn restart(&mut self, now: SimTime) {
        self.telemetry.inc(self.metrics.restarts);
        self.telemetry.record(
            now.as_nanos(),
            Severity::Warn,
            "dir",
            "restart",
            [("own_sessions", self.own.len() as u64), NO_ARG, NO_ARG],
        );
        let entries_at_crash = self.cache.len() as u64;
        self.cache = self.cache.restarted();
        // The responder's pending defences die with the process, but
        // its telemetry (counters, flight ring) survives the rebuild.
        let responder_telemetry = self.responder.take_telemetry();
        self.responder = ClashResponder::new(self.cfg.clash_policy.clone());
        self.responder.set_telemetry(responder_telemetry);
        self.timers.clear();
        self.announce_timers.clear();
        self.cache_timer = None;
        self.defence_timer = None;
        self.recon_timer = None;
        self.last_digest_sent = None;
        self.last_request_sent = None;
        self.gov_buckets.clear();
        for (&id, s) in &mut self.own {
            s.sends = 0;
            s.next_send = now;
            let token = self.timers.schedule(now, TimerKind::Announce(id));
            self.announce_timers.insert(id, token);
        }
        if self.cfg.reconcile.is_some() {
            self.rebuilding = Some(RebuildState {
                entries_at_crash,
                last_peer_digest: None,
            });
            self.telemetry.set(self.metrics.recon_rebuilding, 1);
            self.update_rebuild_fraction();
            // An immediate digest broadcast opens the exchange; the
            // periodic cadence resumes from here.
            let token = self.timers.schedule(now, TimerKind::Reconcile);
            self.recon_timer = Some((token, now));
        }
    }

    /// The exact next instant at which a timer fires (announce, cache
    /// expiry or clash defence), compacting any lazily-cancelled queue
    /// entries on the way.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.timers.next_deadline()
    }

    /// Process one received SAP packet.  Returns packets to send in
    /// response (defences, modified announcements) plus events for the
    /// caller's logs.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &SapPacket,
        rng: &mut SimRng,
    ) -> (Vec<SapPacket>, Vec<DirectoryEvent>) {
        let mut out = Vec::new();
        // Leftover out-of-band events (e.g. degraded allocations) ride
        // along with whatever this packet produces.
        let mut events = self.take_events();
        self.telemetry.inc(self.metrics.rx_packets);

        // Reconciliation control messages short-circuit before SDP
        // parsing (their payloads are not session descriptions); our
        // own digests echoed back by the multicast loop are dropped.
        if ReconMessage::is_recon(&pkt.payload) {
            if pkt.source != self.cfg.host {
                self.on_recon_packet(now, pkt, &mut out);
            }
            return (out, events);
        }

        // Zero-copy receive path: the description is parsed as borrowed
        // slices of the packet payload; owned strings materialize only
        // inside the cache, and only when the announcement is admitted.
        let Ok(desc) = DescRef::parse(&pkt.payload) else {
            self.telemetry.inc(self.metrics.rx_unparseable);
            return (out, events); // unparseable payloads are dropped
        };

        if pkt.message_type == MessageType::Delete {
            self.cache
                .observe_delete(desc.origin.address, desc.origin.session_id);
            self.telemetry.inc(self.metrics.rx_deletes);
            self.telemetry
                .set(self.metrics.cache_size, self.cache.len() as i64);
            return (out, events);
        }

        let their_sid = SessionId {
            site: u32::from(desc.origin.address),
            seq: desc.origin.session_id,
        };

        // Our own announcement echoed back (multicast loop or a third
        // party defending us): nothing to do.
        if desc.origin.address == self.cfg.host && self.own.contains_key(&desc.origin.session_id) {
            return (out, events);
        }

        // Ingest governor: rate-limit the source, then gate admission
        // of new entries (quota, hard budget with tiered eviction).
        // Refreshes of existing entries always land — a storm must not
        // be able to starve a legitimate session's keepalives.  Gated
        // before `on_announcement_seen` so a refused forgery cannot
        // suppress a pending third-party defence either.
        if self.cfg.governor.is_some() {
            if !self.governor_rate_ok(now, desc.origin.address) {
                self.telemetry.inc(self.metrics.gov_rate_limited);
                return (out, events);
            }
            let is_new = self
                .cache
                .get(desc.origin.address, desc.origin.session_id)
                .is_none();
            if is_new && !self.governor_admit_new(now, desc.origin.address) {
                self.telemetry
                    .set(self.metrics.cache_size, self.cache.len() as i64);
                return (out, events);
            }
        }

        // Any pending third-party defence for this session is now moot.
        self.responder.on_announcement_seen(their_sid);

        // Hoist the Copy fields we still need, then hand the borrowed
        // description to the cache: refreshes (the steady-state case)
        // touch no owned strings at all.
        let group = desc.group;
        let their_origin = desc.origin.address;
        let their_session_id = desc.origin.session_id;
        let update = self.cache.observe_announce_ref(now, &desc);
        self.arm_cache_timer();
        let heard_counter = match update {
            CacheUpdate::New => self.metrics.heard_new,
            CacheUpdate::Refreshed => self.metrics.heard_refreshed,
            CacheUpdate::Modified => self.metrics.heard_modified,
            CacheUpdate::Stale => self.metrics.heard_stale,
        };
        self.telemetry.inc(heard_counter);
        self.telemetry
            .set(self.metrics.cache_size, self.cache.len() as i64);
        events.push(DirectoryEvent::Heard(update));
        if matches!(update, CacheUpdate::New | CacheUpdate::Modified) && self.rebuilding.is_some() {
            // Recovery progress; the arriving entry may also have been
            // the last one missing relative to the peer digest we
            // heard, in which case the rebuild is complete.
            self.update_rebuild_fraction();
            if let Some(rb) = &self.rebuilding {
                if rb.last_peer_digest == Some(self.scope_digest()) {
                    self.complete_rebuild(now);
                }
            }
        }
        if update == CacheUpdate::Stale {
            return (out, events);
        }
        // A modification implies any clash on the *old* address resolved.
        if update == CacheUpdate::Modified {
            // We don't know the old group here; conservatively keep
            // pending defences — they are cancelled when their session
            // re-announces.
        }

        // Clash detection against our own sessions.
        let own_clashes = self.clashing_own_ids(group);
        for own_id in own_clashes {
            let HostMintedId(id) = own_id;
            // Keys come from the iteration above; nothing removes from
            // `own` in this loop, but stay total anyway.
            let Some(s) = self.own.get(&id) else { continue };
            let first_announced = s.first_announced;
            let our_sid = SessionId {
                site: u32::from(self.cfg.host),
                seq: id,
            };
            // Total order for the post-partition mutual-clash tiebreak:
            // lowest (origin address, session id) keeps the address.
            let ours_key = (u32::from(self.cfg.host), id);
            let theirs_key = (u32::from(their_origin), their_session_id);
            let action = self.responder.on_clash(
                now,
                self.cfg.space.index_of(group).unwrap_or(Addr(0)),
                our_sid,
                Incumbent::Ours {
                    announced_at: first_announced,
                    wins_tiebreak: ours_key < theirs_key,
                },
                rng,
            );
            events.push(DirectoryEvent::Clash {
                group,
                action: action.clone(),
            });
            match action {
                ClashAction::DefendOwn { .. } => {
                    // Phase 1: re-send immediately.
                    self.telemetry.record(
                        now.as_nanos(),
                        Severity::Info,
                        "clash",
                        "defend_own",
                        [("session", id), NO_ARG, NO_ARG],
                    );
                    if let Some(s) = self.own.get(&id) {
                        out.push(Self::announcement_packet(self.cfg.host, &s.desc));
                    }
                }
                ClashAction::ModifyOwn { .. } => {
                    // Phase 2: move to a fresh address and re-announce.
                    self.telemetry.record(
                        now.as_nanos(),
                        Severity::Warn,
                        "clash",
                        "modify_own",
                        [("session", id), NO_ARG, NO_ARG],
                    );
                    if let Some((from, to)) = self.move_session(own_id, rng) {
                        self.telemetry.inc(self.metrics.moved);
                        self.telemetry.record(
                            now.as_nanos(),
                            Severity::Warn,
                            "clash",
                            "moved",
                            [
                                ("session", id),
                                ("from", u64::from(u32::from(from))),
                                ("to", u64::from(u32::from(to))),
                            ],
                        );
                        events.push(DirectoryEvent::Moved {
                            session_id: id,
                            from,
                            to,
                        });
                        if let Some(s) = self.own.get(&id) {
                            out.push(Self::announcement_packet(self.cfg.host, &s.desc));
                        }
                    }
                }
                _ => {}
            }
        }

        // Clash detection against cached third-party sessions: defend the
        // *older* session (the incumbent).
        let incumbents: Vec<(Ipv4Addr, u64)> = self
            .cache
            .users_of(group)
            .filter(|(k, e)| {
                !(k.origin == their_origin && k.session_id == their_session_id)
                    && e.first_heard() < now
            })
            .map(|(k, _)| (k.origin, k.session_id))
            .collect();
        for (origin, session_id) in incumbents {
            let sid = SessionId {
                site: u32::from(origin),
                seq: session_id,
            };
            let action = self.responder.on_clash(
                now,
                self.cfg.space.index_of(group).unwrap_or(Addr(0)),
                sid,
                Incumbent::Cached,
                rng,
            );
            events.push(DirectoryEvent::Clash { group, action });
        }

        // Any newly-armed third-party defence needs a deadline in the
        // timer queue.
        self.arm_defence_timer();

        // A mid-call move may have degraded; pick that up too.
        events.append(&mut self.pending_events);
        (out, events)
    }

    /// The ids of our own sessions announcing on `group` — the
    /// candidates a clashing announcement forces us to defend or move.
    /// The wire-supplied group only selects among ids this host minted.
    /// The snapshot decouples the defence loop from the session-map
    /// borrow.
    fn clashing_own_ids(&self, group: Ipv4Addr) -> Vec<HostMintedId> {
        self.own
            .iter()
            .filter(|(_, s)| s.desc.group == group)
            .map(|(&id, _)| HostMintedId(id))
            .collect()
    }

    /// Reallocate a clashing own session; returns (old group, new group).
    fn move_session(
        &mut self,
        HostMintedId(session_id): HostMintedId,
        rng: &mut SimRng,
    ) -> Option<(Ipv4Addr, Ipv4Addr)> {
        let view_data = self.current_view();
        let view = View::new(&view_data);
        let ttl = self.own.get(&session_id)?.desc.ttl;
        let addr = if self.cfg.exhaustion_fallback {
            let out = self
                .allocator
                .allocate_or_widen(&self.cfg.space, ttl, &view, rng)?;
            if out.widened {
                self.telemetry.inc(self.metrics.degraded);
                self.pending_events.push(DirectoryEvent::Degraded {
                    session_id,
                    group: self.cfg.space.ip(out.addr),
                    ttl,
                    exhausted_band: out.band,
                    fallback_range: (0, self.cfg.space.size()),
                });
            }
            out.addr
        } else {
            self.allocator.allocate(&self.cfg.space, ttl, &view, rng)?
        };
        let new_group = self.cfg.space.ip(addr);
        let s = self.own.get_mut(&session_id)?;
        let old_group = s.desc.group;
        s.desc.group = new_group;
        s.desc.origin.version += 1;
        // Restart the fast announcement phase so the move propagates
        // quickly, and reset the "recent" clock: the moved announcement
        // is effectively new.
        s.sends = 0;
        s.first_announced = s.next_send.min(s.first_announced);
        Some((old_group, new_group))
    }

    fn announcement_packet(origin: Ipv4Addr, desc: &SessionDescription) -> SapPacket {
        let payload = desc.format();
        SapPacket::announce(origin, msg_id_hash(&payload), payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::InformedRandomAllocator;

    fn media() -> Vec<Media> {
        vec![Media {
            kind: "audio".into(),
            port: 5004,
            proto: "RTP/AVP".into(),
            format: 0,
        }]
    }

    fn directory(host: [u8; 4]) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::from(host));
        cfg.space = AddrSpace::abstract_space(64);
        SessionDirectory::new(cfg, Box::new(InformedRandomAllocator))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn create_and_announce() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(1);
        let id = d
            .create_session(t(0), "seminar", 63, media(), &mut rng)
            .unwrap();
        let pkts = d.poll(t(0));
        assert_eq!(pkts.len(), 1);
        let desc = SessionDescription::parse(&pkts[0].payload).unwrap();
        assert_eq!(desc.origin.session_id, id);
        assert_eq!(desc.ttl, 63);
        assert!(desc.group.is_multicast());
    }

    #[test]
    fn backoff_announcements() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(2);
        d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        assert_eq!(d.poll(t(0)).len(), 1); // t=0
        assert_eq!(d.poll(t(4)).len(), 0);
        assert_eq!(d.poll(t(5)).len(), 1); // t=5
        assert_eq!(d.poll(t(14)).len(), 0);
        assert_eq!(d.poll(t(15)).len(), 1); // t=15
        assert_eq!(d.poll(t(35)).len(), 1); // t=35
    }

    #[test]
    fn two_directories_allocate_distinct_addresses() {
        let mut a = directory([10, 0, 0, 1]);
        let mut b = directory([10, 0, 0, 2]);
        let mut rng = SimRng::new(3);
        a.create_session(t(0), "a", 63, media(), &mut rng).unwrap();
        let pkts = a.poll(t(0));
        // b hears a's announcement before allocating.
        b.on_packet(t(0), &pkts[0], &mut rng);
        assert_eq!(b.cached_sessions(), 1);
        b.create_session(t(1), "b", 63, media(), &mut rng).unwrap();
        let ga: Vec<Ipv4Addr> = a.own_sessions().map(|(_, s)| s.desc.group).collect();
        let gb: Vec<Ipv4Addr> = b.own_sessions().map(|(_, s)| s.desc.group).collect();
        assert_ne!(
            ga[0], gb[0],
            "informed allocation must avoid the cached group"
        );
    }

    #[test]
    fn phase2_recent_announcer_moves() {
        // Two directories race to the same address: the one that hears
        // the other's announcement just after announcing must move.
        let mut a = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(4);
        let id = a.create_session(t(0), "a", 63, media(), &mut rng).unwrap();
        let group = a.own_sessions().next().unwrap().1.desc.group;
        a.poll(t(0));

        // Forge a competing announcement for the same group from b.
        let competing = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 9,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "b".into(),
            info: None,
            group,
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        };
        let payload = competing.format();
        let pkt = SapPacket::announce(competing.origin.address, msg_id_hash(&payload), payload);
        let (replies, events) = a.on_packet(t(2), &pkt, &mut rng);
        // a announced at t=0, clash at t=2 (inside the recent window):
        // phase 2 → move.
        assert!(events
            .iter()
            .any(|e| matches!(e, DirectoryEvent::Moved { .. })));
        assert_eq!(replies.len(), 1);
        let new_desc = SessionDescription::parse(&replies[0].payload).unwrap();
        assert_ne!(new_desc.group, group);
        assert_eq!(new_desc.origin.version, 2);
        assert_eq!(a.own.get(&id).unwrap().desc.group, new_desc.group);
    }

    #[test]
    fn phase1_old_session_defends() {
        let mut a = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(5);
        a.create_session(t(0), "a", 63, media(), &mut rng).unwrap();
        let group = a.own_sessions().next().unwrap().1.desc.group;
        a.poll(t(0));
        let competing = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 9,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "b".into(),
            info: None,
            group,
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        };
        let payload = competing.format();
        let pkt = SapPacket::announce(competing.origin.address, msg_id_hash(&payload), payload);
        // Clash arrives long after our announcement: phase 1, defend.
        let (replies, events) = a.on_packet(t(5_000), &pkt, &mut rng);
        assert!(events.iter().any(|e| matches!(
            e,
            DirectoryEvent::Clash {
                action: ClashAction::DefendOwn { .. },
                ..
            }
        )));
        assert_eq!(replies.len(), 1);
        let defended = SessionDescription::parse(&replies[0].payload).unwrap();
        assert_eq!(defended.group, group);
        assert_eq!(defended.origin.address, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn phase3_third_party_defends_cached_session() {
        let mut c = directory([10, 0, 0, 3]);
        let mut rng = SimRng::new(6);
        // c caches a session from origin A at t=0.
        let a_desc = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 1,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 1),
            },
            name: "a".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 5),
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        };
        let pa = a_desc.format();
        c.on_packet(
            t(0),
            &SapPacket::announce(a_desc.origin.address, msg_id_hash(&pa), pa),
            &mut rng,
        );
        // Later, a clashing announcement from B arrives.
        let b_desc = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 2,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "b".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 5),
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        };
        let pb = b_desc.format();
        let (_, events) = c.on_packet(
            t(100),
            &SapPacket::announce(b_desc.origin.address, msg_id_hash(&pb), pb),
            &mut rng,
        );
        assert!(events.iter().any(|e| matches!(
            e,
            DirectoryEvent::Clash {
                action: ClashAction::ThirdPartyArmed { .. },
                ..
            }
        )));
        // Nothing before the deadline...
        let deadline = c.next_deadline().unwrap();
        assert!(c.poll(deadline - SimDuration::from_nanos(1)).is_empty());
        // ...then c re-announces A's session on its behalf.
        let fired = c.poll(deadline);
        assert_eq!(fired.len(), 1);
        let defended = SessionDescription::parse(&fired[0].payload).unwrap();
        assert_eq!(defended.origin.address, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(defended.origin.session_id, 1);
    }

    #[test]
    fn phase3_suppressed_when_originator_defends() {
        let mut c = directory([10, 0, 0, 3]);
        let mut rng = SimRng::new(7);
        let make = |host: [u8; 4], sid: u64, name: &str| {
            let d = SessionDescription {
                origin: Origin {
                    username: "-".into(),
                    session_id: sid,
                    version: 1,
                    address: Ipv4Addr::from(host),
                },
                name: name.into(),
                info: None,
                group: Ipv4Addr::new(224, 2, 128, 5),
                ttl: 63,
                start: 0,
                stop: 0,
                media: vec![],
            };
            let p = d.format();
            SapPacket::announce(d.origin.address, msg_id_hash(&p), p)
        };
        c.on_packet(t(0), &make([10, 0, 0, 1], 1, "a"), &mut rng);
        c.on_packet(t(100), &make([10, 0, 0, 2], 2, "b"), &mut rng);
        // Originator A defends itself before our timer fires.
        c.on_packet(t(101), &make([10, 0, 0, 1], 1, "a"), &mut rng);
        // Our pending defence of A is suppressed: nothing we ever emit
        // re-announces A's session on its behalf.  (A's own t=101
        // re-announcement clashed against cached incumbent B, so a
        // defence of *B* legitimately fires at its deadline — under the
        // old coarse poll it was skipped only because the whole cache
        // had expired by the time anyone polled.)
        let fired = c.poll(t(10_000));
        for pkt in &fired {
            let desc = SessionDescription::parse(&pkt.payload).unwrap();
            assert_ne!(
                (desc.origin.address, desc.origin.session_id),
                (Ipv4Addr::new(10, 0, 0, 1), 1),
                "suppressed defence of A still fired: {fired:?}"
            );
        }
    }

    #[test]
    fn forged_high_session_id_cannot_cancel_a_pending_defence() {
        // The clash responder keys pending defences by (site, session
        // id).  With the id narrowed to 32 bits, `id + 2^32` from the
        // same origin aliased `id`: one forged announcement read as the
        // originator defending itself and cancelled our defence.
        let mut c = directory([10, 0, 0, 3]);
        let mut rng = SimRng::new(7);
        let group = [224, 2, 128, 5];
        c.on_packet(
            t(0),
            &announce_pkt(&remote_desc([10, 0, 0, 1], 1, group)),
            &mut rng,
        );
        c.on_packet(
            t(100),
            &announce_pkt(&remote_desc([10, 0, 0, 2], 2, group)),
            &mut rng,
        );
        let forged = remote_desc([10, 0, 0, 1], 1 + (1 << 32), [224, 2, 128, 9]);
        c.on_packet(t(101), &announce_pkt(&forged), &mut rng);
        let defended = c.poll(t(10_000)).iter().any(|pkt| {
            let desc = SessionDescription::parse(&pkt.payload).unwrap();
            (desc.origin.address, desc.origin.session_id) == (Ipv4Addr::new(10, 0, 0, 1), 1)
        });
        assert!(
            defended,
            "the armed defence of (10.0.0.1, 1) must still fire"
        );
    }

    #[test]
    fn withdraw_emits_delete() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(8);
        let id = d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        let del = d.withdraw_session(id).unwrap();
        assert_eq!(del.message_type, MessageType::Delete);
        assert!(d.withdraw_session(id).is_none());
        assert_eq!(d.poll(t(100)).len(), 0, "withdrawn session not announced");
    }

    #[test]
    fn delete_packet_clears_peer_cache() {
        let mut a = directory([10, 0, 0, 1]);
        let mut b = directory([10, 0, 0, 2]);
        let mut rng = SimRng::new(9);
        let id = a.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        let ann = a.poll(t(0));
        b.on_packet(t(0), &ann[0], &mut rng);
        assert_eq!(b.cached_sessions(), 1);
        let del = a.withdraw_session(id).unwrap();
        b.on_packet(t(1), &del, &mut rng);
        assert_eq!(b.cached_sessions(), 0);
    }

    #[test]
    fn space_full_error() {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(2);
        let mut d = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(10);
        d.create_session(t(0), "a", 63, media(), &mut rng).unwrap();
        d.create_session(t(0), "b", 63, media(), &mut rng).unwrap();
        assert_eq!(
            d.create_session(t(0), "c", 63, media(), &mut rng),
            Err(CreateError::SpaceFull)
        );
    }

    #[test]
    fn exhaustion_fallback_widens_instead_of_failing() {
        use sdalloc_core::StaticIpr;
        // A banded allocator whose band for TTL 15 holds 4 addresses.
        let make = |fallback: bool| {
            let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
            cfg.space = AddrSpace::abstract_space(12);
            cfg.exhaustion_fallback = fallback;
            SessionDirectory::new(cfg, Box::new(StaticIpr::three_band()))
        };
        let mut rng = SimRng::new(41);

        // Degradation disabled: the fifth low-TTL create fails.
        let mut strict = make(false);
        let mut failed = false;
        for k in 0..5 {
            if strict
                .create_session(t(k), "s", 15, media(), &mut rng)
                .is_err()
            {
                failed = true;
            }
        }
        assert!(failed, "band exhaustion must surface without the fallback");

        // Degradation enabled: every create succeeds, and the widened
        // ones are reported as Degraded events.
        let mut graceful = make(true);
        for k in 0..5 {
            graceful
                .create_session(t(k), "s", 15, media(), &mut rng)
                .expect("fallback must absorb band exhaustion");
        }
        let events = graceful.take_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, DirectoryEvent::Degraded { .. })),
            "widening must be logged: {events:?}"
        );
        assert!(graceful.take_events().is_empty(), "take_events drains");
        // All five sessions hold distinct groups.
        let groups: std::collections::HashSet<Ipv4Addr> =
            graceful.own_sessions().map(|(_, s)| s.desc.group).collect();
        assert_eq!(groups.len(), 5);
    }

    #[test]
    fn staleness_factor_expires_ahead_of_hard_timeout() {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(64);
        cfg.cache_timeout = SimDuration::from_hours(1);
        cfg.staleness_factor = Some(2); // 2 × 600 s cap = 20 min
        let mut d = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(42);
        let remote = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 5,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 9),
            },
            name: "r".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 3),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        };
        let p = remote.format();
        d.on_packet(
            t(0),
            &SapPacket::announce(remote.origin.address, msg_id_hash(&p), p),
            &mut rng,
        );
        assert_eq!(d.cached_sessions(), 1);
        // 21 minutes of silence: stale horizon (20 min) passed, hard
        // timeout (60 min) not yet.
        d.poll(t(21 * 60));
        assert_eq!(d.cached_sessions(), 0, "stale entry must be shed early");
    }

    #[test]
    fn restart_loses_cache_but_reannounces_own_sessions() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(43);
        d.create_session(t(0), "mine", 63, media(), &mut rng)
            .unwrap();
        // Walk past the fast phase.
        for s in [0u64, 5, 15, 35, 75] {
            d.poll(t(s));
        }
        // Hear a peer.
        let remote = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 7,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "peer".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 9),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        };
        let p = remote.format();
        d.on_packet(
            t(80),
            &SapPacket::announce(remote.origin.address, msg_id_hash(&p), p),
            &mut rng,
        );
        assert_eq!(d.cached_sessions(), 1);

        d.restart(t(100));
        assert_eq!(d.cached_sessions(), 0, "cache lost on restart");
        // Own session survives and re-enters the fast phase at t=100.
        assert_eq!(d.next_deadline(), Some(t(100)));
        let pkts = d.poll(t(100));
        assert_eq!(pkts.len(), 1, "immediate re-announcement after restart");
        assert_eq!(d.next_deadline(), Some(t(105)), "fast-phase interval");
    }

    #[test]
    fn bandwidth_pacing_stretches_background_interval() {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(64);
        // Tiny budget: 160 bit/s.
        cfg.bandwidth_limit_bps = Some(160.0);
        let mut d = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(31);
        d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        // Walk through the fast phase: intervals 5,10,…,cap.
        let mut sent = 0;
        let mut now = 0u64;
        while sent < 9 {
            now += 1;
            sent += d.poll(t(now)).len();
            assert!(now < 10_000, "never reached the paced regime");
        }
        // In the paced regime the next interval must exceed the plain
        // cap: announcement ~150 bytes → 1200 bits / 160 bps = ~7.5 s…
        // with one session that's below the 600 s cap, so shrink the
        // budget by pretending many cached sessions instead:
        for k in 0..200u64 {
            let desc = SessionDescription {
                origin: Origin {
                    username: "-".into(),
                    session_id: k,
                    version: 1,
                    address: Ipv4Addr::new(10, 0, 1, (k % 250) as u8 + 1),
                },
                name: format!("peer{k}"),
                info: None,
                group: Ipv4Addr::new(239, 1, u8::try_from(k / 250).unwrap(), (k % 250) as u8),
                ttl: 63,
                start: 0,
                stop: 0,
                media: vec![],
            };
            d.cache_observe_for_test(t(now), desc);
        }
        let before = d.next_deadline().unwrap();
        d.poll(before);
        let after = d.next_deadline().unwrap();
        let interval = after.saturating_since(before);
        assert!(
            interval > d.config().schedule.cap,
            "paced interval {interval} not stretched beyond cap"
        );
    }

    #[test]
    fn cache_expiry_frees_addresses_for_reuse() {
        // If a peer's session stops being announced, its address ages
        // out of the cache and becomes allocatable again.
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(1); // one address total
        cfg.cache_timeout = SimDuration::from_secs(100);
        let mut d = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(21);
        // Hear a remote session occupying the only address.
        let remote = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 5,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 9),
            },
            name: "r".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 0),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        };
        let p = remote.format();
        d.on_packet(
            t(0),
            &SapPacket::announce(remote.origin.address, msg_id_hash(&p), p),
            &mut rng,
        );
        assert_eq!(
            d.create_session(t(1), "mine", 63, media(), &mut rng),
            Err(CreateError::SpaceFull)
        );
        // After the timeout the cache purges on poll and the address is
        // free again.
        d.poll(t(200));
        assert_eq!(d.cached_sessions(), 0);
        assert!(d
            .create_session(t(201), "mine", 63, media(), &mut rng)
            .is_ok());
    }

    #[test]
    fn modification_updates_peer_cache_group() {
        // A moved session (higher o= version, new group) replaces the
        // old entry rather than duplicating it.
        let mut b = directory([10, 0, 0, 2]);
        let mut rng = SimRng::new(22);
        let make = |version: u64, group: Ipv4Addr| {
            let d = SessionDescription {
                origin: Origin {
                    username: "-".into(),
                    session_id: 3,
                    version,
                    address: Ipv4Addr::new(10, 0, 0, 1),
                },
                name: "mv".into(),
                info: None,
                group,
                ttl: 63,
                start: 0,
                stop: 0,
                media: vec![],
            };
            let p = d.format();
            SapPacket::announce(d.origin.address, msg_id_hash(&p), p)
        };
        let g1 = Ipv4Addr::new(224, 2, 128, 1);
        let g2 = Ipv4Addr::new(224, 2, 128, 2);
        b.on_packet(t(0), &make(1, g1), &mut rng);
        let (_, events) = b.on_packet(t(10), &make(2, g2), &mut rng);
        assert!(events.contains(&DirectoryEvent::Heard(CacheUpdate::Modified)));
        assert_eq!(b.cached_sessions(), 1);
        let view = b.current_view();
        assert_eq!(view.len(), 1);
        assert_eq!(b.config().space.ip(view[0].addr), g2);
        // A stale re-announcement of the old version is ignored.
        let (_, events) = b.on_packet(t(20), &make(1, g1), &mut rng);
        assert!(events.contains(&DirectoryEvent::Heard(CacheUpdate::Stale)));
        let view = b.current_view();
        assert_eq!(b.config().space.ip(view[0].addr), g2);
    }

    #[test]
    fn missed_announcements_clamp_to_single_send() {
        // A directory that slept through several scheduled sends does
        // NOT burst-replay every missed period: it emits one
        // announcement and re-anchors the schedule from `now`.
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(23);
        d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        // Sends were due at t = 0, 5, 15, 35; polling at 35 emits one.
        let pkts = d.poll(t(35));
        assert_eq!(pkts.len(), 1);
        // Re-anchored: the send consumed interval_after(0) = 5 s, so the
        // next deadline is now + 5 rather than the stale t = 5 slot.
        assert_eq!(d.next_deadline(), Some(t(40)));
        assert_eq!(d.poll(t(39)).len(), 0);
        assert_eq!(d.poll(t(40)).len(), 1);
    }

    #[test]
    fn event_api_matches_poll() {
        // Driving pop_due_timer/on_timer by hand is equivalent to the
        // poll compat wrapper.
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(24);
        d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        let mut sent = Vec::new();
        let mut now = t(0);
        for _ in 0..5 {
            let deadline = d.next_deadline().unwrap();
            assert!(deadline >= now, "deadlines move forward");
            now = deadline;
            while let Some(kind) = d.pop_due_timer(now) {
                sent.extend(d.on_timer(now, kind));
            }
        }
        // Fast-phase schedule: 0, 5, 15, 35, 75.
        assert_eq!(sent.len(), 5);
        assert_eq!(now, t(75));
        assert_eq!(d.next_deadline(), Some(t(155)));
    }

    #[test]
    fn degraded_event_carries_band_context() {
        use sdalloc_core::StaticIpr;
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(12);
        cfg.exhaustion_fallback = true;
        let mut d = SessionDirectory::new(cfg, Box::new(StaticIpr::three_band()));
        let mut rng = SimRng::new(44);
        for k in 0..5 {
            d.create_session(t(k), "s", 15, media(), &mut rng).unwrap();
        }
        let degraded: Vec<DirectoryEvent> = d
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, DirectoryEvent::Degraded { .. }))
            .collect();
        assert!(!degraded.is_empty());
        for e in &degraded {
            let DirectoryEvent::Degraded {
                ttl,
                exhausted_band,
                fallback_range,
                ..
            } = e
            else {
                unreachable!()
            };
            assert_eq!(*ttl, 15);
            // TTL 15 is band 0 of the 3-band split over 12 addresses.
            assert_eq!(*exhausted_band, (0, 4));
            assert_eq!(*fallback_range, (0, 12));
        }
        assert_eq!(d.telemetry().metrics.counter_by_name("dir.degraded"), 1);
    }

    #[test]
    fn telemetry_counts_directory_activity() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(45);
        let id = d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        d.poll(t(0));
        d.poll(t(5));
        // Hear a peer announcement twice (new, then refresh).
        let remote = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 7,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "peer".into(),
            info: None,
            group: Ipv4Addr::new(224, 2, 128, 9),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        };
        let p = remote.format();
        let pkt = SapPacket::announce(remote.origin.address, msg_id_hash(&p), p);
        d.on_packet(t(6), &pkt, &mut rng);
        d.on_packet(t(7), &pkt, &mut rng);
        d.withdraw_session(id);
        let snap = d.telemetry_snapshot_json();
        let m = &d.telemetry().metrics;
        assert_eq!(m.counter_by_name("dir.sessions_created"), 1);
        assert_eq!(m.counter_by_name("dir.sessions_withdrawn"), 1);
        assert_eq!(m.counter_by_name("announce.sent"), 2);
        assert_eq!(m.counter_by_name("net.rx_packets"), 2);
        assert_eq!(m.counter_by_name("cache.heard_new"), 1);
        assert_eq!(m.counter_by_name("cache.heard_refreshed"), 1);
        assert!(snap.contains("\"announce.sent\": 2"), "{snap}");
        // The merged snapshot includes the responder's clash metrics.
        assert!(snap.contains("\"clash.defend_own\": 0"), "{snap}");
        assert!(!d.telemetry().recorder().is_empty());
    }

    #[test]
    fn telemetry_disabled_is_inert_and_snapshot_identical_across_runs() {
        let run = |enabled: bool| {
            let mut d = directory([10, 0, 0, 1]);
            d.set_telemetry_identity(1, 46);
            d.set_telemetry_enabled(enabled);
            let mut rng = SimRng::new(46);
            d.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
            d.poll(t(0));
            d.telemetry_snapshot_json()
        };
        assert_eq!(run(true), run(true), "per-seed snapshot must be stable");
        let off = run(false);
        assert!(off.contains("\"dir.sessions_created\": 0"), "{off}");
    }

    #[test]
    fn responder_telemetry_survives_directory_restart() {
        let mut a = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(47);
        a.create_session(t(0), "a", 63, media(), &mut rng).unwrap();
        let group = a.own_sessions().next().unwrap().1.desc.group;
        a.poll(t(0));
        let competing = SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: 9,
                version: 1,
                address: Ipv4Addr::new(10, 0, 0, 2),
            },
            name: "b".into(),
            info: None,
            group,
            ttl: 63,
            start: 0,
            stop: 0,
            media: media(),
        };
        let payload = competing.format();
        let pkt = SapPacket::announce(competing.origin.address, msg_id_hash(&payload), payload);
        a.on_packet(t(5_000), &pkt, &mut rng); // phase-1 defence
        a.restart(t(6_000));
        let snap = a.telemetry_snapshot_json();
        assert!(
            snap.contains("\"clash.defend_own\": 1"),
            "responder metrics lost across restart: {snap}"
        );
        assert!(snap.contains("\"dir.restarts\": 1"), "{snap}");
        let dump = a.flight_dump_json("test");
        assert!(dump.contains("\"name\": \"restart\""), "{dump}");
    }

    #[test]
    fn next_deadline_tracks_schedule() {
        let mut d = directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(11);
        assert_eq!(d.next_deadline(), None);
        d.create_session(t(10), "s", 63, media(), &mut rng).unwrap();
        assert_eq!(d.next_deadline(), Some(t(10)));
        d.poll(t(10));
        assert_eq!(d.next_deadline(), Some(t(15)));
    }

    fn remote_desc(origin: [u8; 4], sid: u64, group: [u8; 4]) -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: "-".into(),
                session_id: sid,
                version: 1,
                address: Ipv4Addr::from(origin),
            },
            name: format!("s{sid}"),
            info: None,
            group: Ipv4Addr::from(group),
            ttl: 63,
            start: 0,
            stop: 0,
            media: vec![],
        }
    }

    fn announce_pkt(desc: &SessionDescription) -> SapPacket {
        let p = desc.format();
        SapPacket::announce(desc.origin.address, msg_id_hash(&p), p)
    }

    fn recon_directory(host: [u8; 4]) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::from(host));
        cfg.space = AddrSpace::abstract_space(64);
        cfg.reconcile = Some(ReconcileConfig::default());
        SessionDirectory::new(cfg, Box::new(InformedRandomAllocator))
    }

    #[test]
    fn reconciliation_rebuilds_cache_from_live_peer() {
        // A caches B's sessions, crashes, and rebuilds from the digest
        // exchange in a handful of message rounds — no announce cycle.
        let mut a = recon_directory([10, 0, 0, 1]);
        let mut b = recon_directory([10, 0, 0, 2]);
        let mut rng = SimRng::new(50);
        for _ in 0..3 {
            b.create_session(t(0), "s", 63, media(), &mut rng).unwrap();
        }
        for pkt in b.poll(t(0)) {
            a.on_packet(t(1), &pkt, &mut rng);
        }
        assert_eq!(a.cached_sessions(), 3);

        a.restart(t(100));
        assert_eq!(a.cached_sessions(), 0);
        let m = &a.telemetry().metrics;
        assert_eq!(m.gauge_by_name("recon.rebuilding"), 1);
        assert_eq!(m.gauge_by_name("cache.rebuild_fraction"), 0);

        // Round 1: the restart fires an immediate digest broadcast.
        let opener = a.poll(t(100));
        assert_eq!(opener.len(), 1, "restart opens with one digest");
        // Round 2: the live peer replies with a request + its digest.
        let (reply, _) = b.on_packet(t(100), &opener[0], &mut rng);
        assert_eq!(reply.len(), 2, "peer sends request + digest");
        // Round 3: our diff against the peer digest requests the
        // missing buckets.
        let mut fetch = Vec::new();
        for pkt in &reply {
            let (out, _) = a.on_packet(t(100), pkt, &mut rng);
            fetch.extend(out);
        }
        assert_eq!(fetch.len(), 1, "rebuilder sends one targeted request");
        // Round 4: the peer compact-re-announces the requested buckets,
        // and hearing them completes the rebuild.
        let mut refill = Vec::new();
        for pkt in &fetch {
            let (out, _) = b.on_packet(t(101), pkt, &mut rng);
            refill.extend(out);
        }
        assert_eq!(refill.len(), 3, "every missing session re-announced");
        for pkt in &refill {
            a.on_packet(t(101), pkt, &mut rng);
        }
        assert_eq!(a.cached_sessions(), 3, "cache rebuilt");
        let m = &a.telemetry().metrics;
        assert_eq!(m.counter_by_name("recon.completed"), 1);
        assert_eq!(m.gauge_by_name("recon.rebuilding"), 0);
        assert_eq!(m.gauge_by_name("cache.rebuild_fraction"), 1000);
        let mb = &b.telemetry().metrics;
        assert_eq!(mb.counter_by_name("recon.request_heard"), 1);
        assert_eq!(mb.counter_by_name("recon.reannounced"), 3);
    }

    #[test]
    fn restart_reannounces_mixed_ttl_sessions_in_creation_order_then_digest() {
        // Every scope at one instant: equal deadlines fire in schedule
        // order whatever the TTL, and the restart's digest comes last.
        let mut d = recon_directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(51);
        let ttls = [127u8, 15, 255, 63];
        let ids: Vec<u64> = ttls
            .iter()
            .map(|&ttl| d.create_session(t(0), "s", ttl, media(), &mut rng).unwrap())
            .collect();
        d.poll(t(0));
        d.restart(t(50));
        let pkts = d.poll(t(50));
        assert_eq!(pkts.len(), ids.len() + 1);
        let (digest, announces) = pkts.split_last().unwrap();
        let announced: Vec<(u64, u8)> = announces
            .iter()
            .map(|p| SessionDescription::parse(&p.payload).unwrap())
            .map(|desc| (desc.origin.session_id, desc.ttl))
            .collect();
        let created: Vec<(u64, u8)> = ids.into_iter().zip(ttls).collect();
        assert_eq!(announced, created);
        assert!(matches!(
            ReconMessage::parse(&digest.payload),
            Some(ReconMessage::Digest(_))
        ));
    }

    #[test]
    fn matching_digest_completes_rebuild_without_fetch() {
        // A peer whose digest already equals ours ends the rebuilding
        // phase immediately — nothing was lost, nothing to fetch.
        let mut a = recon_directory([10, 0, 0, 1]);
        let mut b = recon_directory([10, 0, 0, 2]);
        let mut rng = SimRng::new(51);
        a.restart(t(10)); // empty cache at crash: fraction = 1000
        assert_eq!(
            a.telemetry()
                .metrics
                .gauge_by_name("cache.rebuild_fraction"),
            1000
        );
        let digest = b.poll(t(30)); // periodic digest, caches both empty
        assert_eq!(digest.len(), 1);
        let (out, _) = a.on_packet(t(30), &digest[0], &mut rng);
        assert!(out.is_empty(), "in-sync digest needs no request");
        let m = &a.telemetry().metrics;
        assert_eq!(m.counter_by_name("recon.completed"), 1);
        assert_eq!(m.gauge_by_name("recon.rebuilding"), 0);
    }

    #[test]
    fn own_digest_echo_is_ignored() {
        let mut a = recon_directory([10, 0, 0, 1]);
        let mut rng = SimRng::new(52);
        a.restart(t(5));
        let opener = a.poll(t(5));
        assert_eq!(opener.len(), 1);
        let (out, _) = a.on_packet(t(5), &opener[0], &mut rng);
        assert!(out.is_empty(), "multicast echo of our own digest is inert");
        assert_eq!(
            a.telemetry().metrics.counter_by_name("recon.digest_heard"),
            0
        );
    }

    fn governed(host: [u8; 4], g: GovernorConfig) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::from(host));
        cfg.space = AddrSpace::abstract_space(64);
        cfg.governor = Some(g);
        SessionDirectory::new(cfg, Box::new(InformedRandomAllocator))
    }

    #[test]
    fn governor_rate_limits_per_source() {
        let mut d = governed(
            [10, 0, 0, 1],
            GovernorConfig {
                max_entries: 100,
                per_source_quota: 50,
                rate_per_sec: 1.0,
                burst: 2.0,
                max_tracked_sources: 8,
            },
        );
        let mut rng = SimRng::new(53);
        for sid in 0..3u64 {
            let desc = remote_desc(
                [10, 0, 0, 9],
                sid,
                [224, 2, 128, u8::try_from(sid).unwrap()],
            );
            d.on_packet(t(0), &announce_pkt(&desc), &mut rng);
        }
        // Burst of 2 tokens: the third packet in the same instant drops.
        assert_eq!(d.cached_sessions(), 2);
        let m = &d.telemetry().metrics;
        assert_eq!(m.counter_by_name("governor.rate_limited"), 1);
        // Refilled a token after a second; the retry lands.
        let desc = remote_desc([10, 0, 0, 9], 2, [224, 2, 128, 2]);
        d.on_packet(t(1), &announce_pkt(&desc), &mut rng);
        assert_eq!(d.cached_sessions(), 3);
    }

    #[test]
    fn governor_enforces_per_source_quota_but_admits_refreshes() {
        let mut d = governed(
            [10, 0, 0, 1],
            GovernorConfig {
                max_entries: 100,
                per_source_quota: 2,
                rate_per_sec: 100.0,
                burst: 100.0,
                max_tracked_sources: 8,
            },
        );
        let mut rng = SimRng::new(54);
        for sid in 0..3u64 {
            let desc = remote_desc(
                [10, 0, 0, 9],
                sid,
                [224, 2, 128, u8::try_from(sid).unwrap()],
            );
            d.on_packet(t(sid), &announce_pkt(&desc), &mut rng);
        }
        assert_eq!(d.cached_sessions(), 2, "third session over quota");
        let m = &d.telemetry().metrics;
        assert_eq!(m.counter_by_name("governor.rejected_quota"), 1);
        // A refresh of an existing entry is never a quota question.
        let desc = remote_desc([10, 0, 0, 9], 0, [224, 2, 128, 0]);
        d.on_packet(t(10), &announce_pkt(&desc), &mut rng);
        assert_eq!(
            d.telemetry()
                .metrics
                .counter_by_name("cache.heard_refreshed"),
            1
        );
    }

    #[test]
    fn governor_budget_evicts_unverified_then_refuses() {
        let mut d = governed(
            [10, 0, 0, 1],
            GovernorConfig {
                max_entries: 2,
                per_source_quota: 10,
                rate_per_sec: 100.0,
                burst: 100.0,
                max_tracked_sources: 8,
            },
        );
        let mut rng = SimRng::new(55);
        let s1 = remote_desc([10, 0, 0, 9], 1, [224, 2, 128, 1]);
        let s2 = remote_desc([10, 0, 1, 9], 2, [224, 2, 128, 2]);
        d.on_packet(t(0), &announce_pkt(&s1), &mut rng);
        d.on_packet(t(1), &announce_pkt(&s2), &mut rng);
        assert_eq!(d.cached_sessions(), 2);
        // At the budget: the oldest once-heard entry (s1) gives way.
        let s3 = remote_desc([10, 0, 2, 9], 3, [224, 2, 128, 3]);
        d.on_packet(t(2), &announce_pkt(&s3), &mut rng);
        assert_eq!(d.cached_sessions(), 2);
        let m = &d.telemetry().metrics;
        assert_eq!(m.counter_by_name("governor.evicted_unverified"), 1);
        assert!(d.cache().get(s2.origin.address, 2).is_some());
        assert!(d.cache().get(s3.origin.address, 3).is_some());
        // Verify both survivors (second hearing), then a newcomer has
        // no tier to claim: every incumbent is legitimate.
        d.on_packet(t(3), &announce_pkt(&s2), &mut rng);
        d.on_packet(t(3), &announce_pkt(&s3), &mut rng);
        let s4 = remote_desc([10, 0, 3, 9], 4, [224, 2, 128, 4]);
        d.on_packet(t(4), &announce_pkt(&s4), &mut rng);
        assert_eq!(d.cached_sessions(), 2, "no legitimate session evicted");
        let m = &d.telemetry().metrics;
        assert_eq!(m.counter_by_name("governor.rejected_budget"), 1);
        assert!(d.cache().get(s2.origin.address, 2).is_some());
        assert!(d.cache().get(s3.origin.address, 3).is_some());
    }

    #[test]
    fn governor_budget_evicts_stale_and_quota_tiers() {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(64);
        cfg.cache_timeout = SimDuration::from_secs(100);
        cfg.governor = Some(GovernorConfig {
            max_entries: 2,
            per_source_quota: 1,
            rate_per_sec: 100.0,
            burst: 100.0,
            max_tracked_sources: 8,
        });
        let mut d = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let mut rng = SimRng::new(56);
        // Tier 1: an entry silent past the horizon is shed first.  The
        // second entry is refreshed (verified) so only staleness can
        // free the slot.
        let s1 = remote_desc([10, 0, 0, 9], 1, [224, 2, 128, 1]);
        let s2 = remote_desc([10, 0, 1, 9], 2, [224, 2, 128, 2]);
        d.on_packet(t(0), &announce_pkt(&s1), &mut rng);
        d.on_packet(t(1), &announce_pkt(&s2), &mut rng);
        d.on_packet(t(2), &announce_pkt(&s2), &mut rng);
        let s3 = remote_desc([10, 0, 2, 9], 3, [224, 2, 128, 3]);
        d.on_packet(t(150), &announce_pkt(&s3), &mut rng);
        assert_eq!(d.cached_sessions(), 2);
        assert_eq!(
            d.telemetry()
                .metrics
                .counter_by_name("governor.evicted_stale"),
            1
        );
        assert!(d.cache().get(s1.origin.address, 1).is_none());

        // Tier 3: a quota-exceeding source (stuffed past the gate, as a
        // shrunk quota would leave it) loses its stalest session.
        let mut d = SessionDirectory::new(
            {
                let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
                cfg.space = AddrSpace::abstract_space(64);
                cfg.governor = Some(GovernorConfig {
                    max_entries: 2,
                    per_source_quota: 1,
                    rate_per_sec: 100.0,
                    burst: 100.0,
                    max_tracked_sources: 8,
                });
                cfg
            },
            Box::new(InformedRandomAllocator),
        );
        let hog1 = remote_desc([10, 0, 0, 9], 1, [224, 2, 128, 1]);
        let hog2 = remote_desc([10, 0, 0, 9], 2, [224, 2, 128, 2]);
        for s in [&hog1, &hog2] {
            d.cache_observe_for_test(t(0), s.clone());
            d.cache_observe_for_test(t(1), s.clone()); // verified
        }
        let s4 = remote_desc([10, 0, 3, 9], 4, [224, 2, 128, 4]);
        d.on_packet(t(2), &announce_pkt(&s4), &mut rng);
        assert_eq!(d.cached_sessions(), 2);
        assert_eq!(
            d.telemetry()
                .metrics
                .counter_by_name("governor.evicted_quota"),
            1
        );
        assert!(
            d.cache().get(hog1.origin.address, 1).is_none(),
            "the hog's stalest session gave way"
        );
        assert!(d.cache().get(s4.origin.address, 4).is_some());
    }

    #[test]
    fn rx_dropped_counts_predecode_losses() {
        let mut d = directory([10, 0, 0, 1]);
        d.note_rx_dropped(t(0));
        d.note_rx_dropped(t(1));
        assert_eq!(d.telemetry().metrics.counter_by_name("net.rx_dropped"), 2);
    }
}

/// Hostile input through the real receive path, with the governor and
/// reconciliation on: whatever arrives, the directory neither panics
/// nor lets the wire size its tables or choose its deadlines.
#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "the generator folds 64 random bits into narrower fields on purpose"
)]
mod hostile_input {
    use super::*;
    use proptest::prelude::*;
    use sdalloc_core::InformedRandomAllocator;

    const GOVERNOR: GovernorConfig = GovernorConfig {
        max_entries: 8,
        per_source_quota: 3,
        rate_per_sec: 0.25,
        burst: 2.0,
        max_tracked_sources: 4,
    };
    const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// A governed, reconciling directory announcing two sessions.
    fn directory(rng: &mut SimRng) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(HOST);
        cfg.space = AddrSpace::abstract_space(64);
        cfg.staleness_factor = Some(3);
        cfg.reconcile = Some(ReconcileConfig::default());
        cfg.governor = Some(GOVERNOR);
        let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        for name in ["a", "b"] {
            dir.create_session(SimTime::ZERO, name, 63, vec![], rng)
                .expect("an empty space has room");
        }
        dir
    }

    /// One hostile datagram.  `kind` picks the shape; `a`, `b` and
    /// `text` fill it with extreme ids, TTLs, times, names, bucket
    /// lists and plain garbage.
    fn datagram(dir: &SessionDirectory, kind: u8, a: u64, b: u64, text: &str) -> Vec<u8> {
        // A dozen sources, skewed so that a couple of them flood.
        let source = Ipv4Addr::new(10, 9, 0, (a % 12) as u8 >> (a >> 9 & 3));
        let forged = || {
            let own_group = dir.own.values().next().map(|s| s.desc.group);
            SessionDescription {
                origin: Origin {
                    username: "-".into(),
                    session_id: match a >> 62 {
                        0 => b % 4,
                        1 => (b % 4) + (1 << 32),
                        2 => u64::MAX,
                        _ => b,
                    },
                    version: (a >> 16) % 3,
                    address: if a & 0x80 == 0 { source } else { HOST },
                },
                name: match a >> 60 & 3 {
                    0 => "n".repeat(1024),
                    _ => format!("s{}", b % 7),
                },
                info: None,
                group: match (a >> 40 & 3, own_group) {
                    (0, Some(group)) => group,
                    (1, _) => Ipv4Addr::from((b >> 8) as u32),
                    _ => dir.cfg.space.ip(Addr((b >> 8) as u32 % 64)),
                },
                ttl: (a >> 8) as u8,
                start: b,
                stop: b.rotate_left(17),
                media: vec![],
            }
        };
        let recon = |msg: ReconMessage| {
            let payload = msg.encode_payload();
            SapPacket::announce(source, msg_id_hash(&payload), payload)
        };
        let pkt = match kind {
            0..=2 => announce_of(&forged()),
            3 => {
                let payload = forged().format();
                SapPacket::delete(source, msg_id_hash(&payload), payload)
            }
            4 => {
                let mut cut = announce_of(&forged()).encode();
                cut.truncate(b as usize % (cut.len() + 1));
                return cut;
            }
            5 => {
                let mut raw = a.to_le_bytes().to_vec();
                raw.extend_from_slice(text.as_bytes());
                return raw;
            }
            6 => recon(ReconMessage::Digest(CacheDigest {
                seed: if a & 1 == 0 { DIGEST_SEED } else { a },
                entries: b,
                rebuilding: a & 2 == 0,
                buckets: (0..if b & 3 == 0 { b % 20 } else { 16 })
                    .map(|i| a.rotate_left(i as u32) ^ b)
                    .collect(),
            })),
            7 => recon(ReconMessage::Request(ReconcileRequest {
                buckets: (0..(a % 40))
                    .map(|i| (b >> (i % 48)) as u16 % if i % 2 == 0 { 16 } else { u16::MAX })
                    .collect(),
            })),
            _ => SapPacket::announce(source, a as u16, text.to_string()),
        };
        pkt.encode()
    }

    fn announce_of(desc: &SessionDescription) -> SapPacket {
        SessionDirectory::announcement_packet(desc.origin.address, desc)
    }

    /// What must hold after every step, whatever the step was.
    fn assert_bounded(dir: &mut SessionDirectory, now: SimTime) {
        assert!(dir.cached_sessions() <= GOVERNOR.max_entries);
        assert!(dir.gov_buckets.len() <= GOVERNOR.max_tracked_sources);
        // One announce timer per own session, three control timers.
        assert!(dir.timers.len() <= dir.own.len() + 3);
        assert_eq!(dir.announce_timers.len(), dir.own.len());

        // Every deadline is local time plus a configured interval.
        let cfg = &dir.cfg;
        let longest = [
            cfg.cache_timeout,
            cfg.schedule.cap,
            cfg.clash_policy.d2,
            cfg.reconcile
                .map_or(SimDuration::ZERO, |rc| rc.digest_interval),
        ]
        .into_iter()
        .max()
        .unwrap_or(SimDuration::ZERO);
        let limit = now + longest + SimDuration::from_nanos(1);
        let control = [dir.cache_timer, dir.defence_timer, dir.recon_timer];
        let armed = control.into_iter().flatten().map(|(_, at)| at);
        for at in armed.chain(dir.own.values().map(|s| s.next_send)) {
            assert!(at <= limit, "deadline {at} beyond {limit}");
        }
        assert!(dir.next_deadline().is_some_and(|at| at <= limit));
    }

    proptest! {
        #[test]
        fn state_and_deadlines_stay_bounded(
            steps in proptest::collection::vec(
                (0u8..9, any::<u64>(), any::<u64>(), 0u64..4_000, "\\PC{0,48}"),
                1..96,
            ),
        ) {
            let mut rng = SimRng::new(71);
            let mut dir = directory(&mut rng);
            let mut now = SimTime::ZERO;
            let mut admitted = 0;
            for (kind, a, b, dt_ms, text) in &steps {
                now += SimDuration::from_millis(*dt_ms);
                match SapPacket::decode(&datagram(&dir, *kind, *a, *b, text)) {
                    Ok(pkt) => {
                        let (_, events) = dir.on_packet(now, &pkt, &mut rng);
                        admitted += events
                            .iter()
                            .filter(|e| matches!(e, DirectoryEvent::Heard(CacheUpdate::New)))
                            .count();
                    }
                    Err(_) => dir.note_rx_dropped(now),
                }
                dir.poll(now);
                assert_bounded(&mut dir, now);
                // A refresh or a modification re-files its expiry slot;
                // only an admission adds one, and evictions cannot pile
                // dead ones up.
                prop_assert!(dir.cache.expiry_slots() <= admitted);
                prop_assert!(dir.cache.expiry_slots() <= 2 * dir.cached_sessions() + 64);
            }
            // With the flood over, everything it left behind ages out.
            now = now + dir.cfg.cache_timeout + SimDuration::from_secs(1);
            dir.poll(now);
            assert_bounded(&mut dir, now);
            prop_assert_eq!(dir.cached_sessions(), 0);
            prop_assert_eq!(dir.cache.expiry_slots(), 0);
        }
    }
}
